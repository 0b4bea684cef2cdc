"""The layers both substrates share: M2Paxos handlers and proposals
(``core.m2``), its per-node state (``core.state``) and the env's
end-of-event flush (``consensus.env``)."""

from __future__ import annotations

from common import HANDLER_TYPES, Outcome
from tracing import Tracer


def instrument_protocol(tracer: Tracer, protocol) -> None:
    """Time ``on_message`` per message type and ``propose``; count the
    commands each Accept carries."""

    def count_accept(sender, message) -> None:
        if type(message).__name__ == "Accept":
            tracer.count("accepts")
            tracer.count(
                "accept.cmds", len({c.cid for c in message.to_decide.values()})
            )

    tracer.patch(
        protocol,
        "on_message",
        tracer.timed(
            protocol.on_message,
            name_of=lambda sender, message: "core.m2.handler." + type(message).__name__,
            cid_arg=1,
            on_call=count_accept,
        ),
    )
    tracer.patch(
        protocol, "propose", tracer.timed(protocol.propose, "core.m2.propose", cid_arg=0)
    )


def instrument_env(tracer: Tracer, env) -> None:
    tracer.patch(env, "end_event", tracer.timed(env.end_event, "consensus.env.end_event"))


def core_metrics(
    outcome: Outcome,
    seconds: dict[str, float],
    calls: dict[str, int],
    counters: dict[str, float],
    done: int,
    stats_before: list[dict],
    stats_after: list[dict],
    reads_issued: int,
    protocols: list,
) -> None:
    """``core.m2``, ``core.state`` and ``consensus.env`` metrics of one
    traced window that completed ``done`` commands."""
    put = outcome.put
    handler_calls = 0
    for kind in HANDLER_TYPES:
        name = f"core.m2.handler.{kind}"
        put(f"core.m2.handler_us_per_cmd.{kind}", seconds.get(name, 0.0) * 1e6 / done, "us")
        handler_calls += calls.get(name, 0)
    put("core.m2.propose_us_per_cmd", seconds.get("core.m2.propose", 0.0) * 1e6 / done, "us")
    put("core.m2.msgs_per_cmd", handler_calls / done, "count")
    accepts = counters.get("accepts", 0)
    put(
        "core.m2.cmds_per_accept",
        counters.get("accept.cmds", 0) / accepts if accepts else 0.0,
        "count",
    )

    delta = {
        key: sum(after[key] - before[key] for before, after in zip(stats_before, stats_after))
        for key in stats_after[0]
    }
    paths = delta["fast_path"] + delta["forwarded"] + delta["acquisitions"]
    nacks = delta["accept_nacks"] + delta["prepare_nacks"]
    attempts = delta["acquisitions"] + nacks
    put("core.m2.fast_frac", delta["fast_path"] / paths if paths else 0.0, "ratio")
    put("core.m2.forward_frac", delta["forwarded"] / paths if paths else 0.0, "ratio")
    put("core.m2.acquisitions_per_kcmd", delta["acquisitions"] * 1e3 / done, "count")
    put("core.m2.nacks_per_kcmd", nacks * 1e3 / done, "count")
    put(
        "core.m2.useful_work_ratio",
        delta["acquisitions"] / attempts if attempts else 0.0,
        "ratio",
    )
    put("core.m2.gap_recoveries", delta["gap_recoveries"], "count")
    put(
        "core.m2.read_local_frac",
        delta["read_local"] / reads_issued if reads_issued else 0.0,
        "ratio",
    )

    states = [protocol.state for protocol in protocols]
    n = len(states)
    put("core.state.instances_per_node", sum(len(s.instances) for s in states) / n, "count")
    put("core.state.acks_per_node", sum(len(s.acks) for s in states) / n, "count")
    put(
        "core.state.decided_per_node",
        sum(len(o.decided) for s in states for o in s.objects.values()) / n,
        "count",
    )
    put(
        "consensus.env.end_event_self_us_per_cmd",
        seconds.get("consensus.env.end_event", 0.0) * 1e6 / done,
        "us",
    )
