"""The simulator workload: five M2Paxos nodes at saturation.

One repeat builds the run with ``build_run(saturated_spec(...))``,
warms it up with ``Cluster.run_for``, measures a fixed window of virtual
time in equal steps and drains the in-flight commands.  The virtual
window is fixed, so a repeat decides the same commands in the same
order every time for a given seed; what varies is the wall time the
simulator needed for them.  A run makes two repeats, and the second
one's decision logs must match the first one's; in a traced run the
second repeat is the traced one.
"""

from __future__ import annotations

import gc
import hashlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.bench.harness import PointSpec, build_run, saturated_spec
from repro.sim.cluster import ConsistencyViolation
from repro.workloads.synthetic import SyntheticConfig

from common import Outcome, median, peak_rss_mb, percentile
from layers import core_metrics, instrument_env, instrument_protocol
from tracing import Tracer

N_NODES = 5
REPEATS = 2
WINDOW_PER_SECOND = 1 / 40
"""Virtual seconds measured per repeat, per second requested: 0.6 s of
virtual time for a 24 s run, about 8 s of wall time on a 2-vCPU VM."""
STEPS = 1000
"""The window runs as this many equal steps of virtual time; the wall
time of each step is the simulator's latency sample.  Enough steps that
the few a major GC pause lands in stay beyond the 99th percentile."""
DRAIN_S = 0.25
"""Virtual seconds after the window, clients stopped, for the commands
still in flight to finish."""


@dataclass
class Repeat:
    setup_s: float
    wall: float
    decided: int
    completed: int
    start: float
    end: float
    digest: str
    virtual_cps: float
    step_ms: list[float]
    step_events: list[int]
    virtual_p50_ms: float
    virtual_p99_ms: float
    events: int
    attempted: int
    failed: int
    stats_before: list[dict] = field(default_factory=list)
    stats_after: list[dict] = field(default_factory=list)
    protocols: list = field(default_factory=list)
    tracer: Optional[Tracer] = None
    counters: dict = field(default_factory=dict)
    violation: Optional[str] = None


def decision_digest(cluster) -> str:
    """sha256 over every node's per-object delivery order."""
    digest = hashlib.sha256()
    for node in cluster.nodes:
        per_object: dict[str, list] = {}
        for command in node.delivered:
            for obj in command.ls:
                per_object.setdefault(obj, []).append(command.cid)
        digest.update(repr((node.node_id, sorted(per_object.items()))).encode())
    return digest.hexdigest()


def run_repeat(seed: int, window: float, traced: bool) -> Repeat:
    spec = saturated_spec(
        PointSpec(
            protocol="m2paxos",
            n_nodes=N_NODES,
            synthetic=SyntheticConfig(locality=1.0),
            duration=window,
            seed=seed,
        )
    )
    gc.collect()  # the previous repeat's cluster, outside the timed set-up
    started = time.perf_counter()
    handle = build_run(spec)
    cluster, collector = handle.cluster, handle.collector
    handle.start()
    cluster.run_for(spec.warmup)
    setup_s = time.perf_counter() - started

    completed = [0]
    recording = [False]

    def on_deliver(node_id, command, now) -> None:
        if recording[0] and node_id == command.proposer:
            completed[0] += 1

    for node in cluster.nodes:
        node.deliver_listeners.append(on_deliver)
    tracer = Tracer() if traced else None
    if tracer is not None:
        instrument(tracer, handle)
    stats_before = [dict(n.protocol.stats) for n in cluster.nodes]
    gc.collect()
    recording[0] = True
    collector.begin_window()
    origin = cluster.loop.now
    step_ms, step_events = [], []
    loop = cluster.loop
    start = time.perf_counter()
    mark, events_mark = start, loop.processed_events
    for step in range(1, STEPS + 1):
        cluster.run_until(origin + spec.duration * step / STEPS)
        now, events_now = time.perf_counter(), loop.processed_events
        step_ms.append((now - mark) * 1e3)
        step_events.append(events_now - events_mark)
        mark, events_mark = now, events_now
    end = mark
    collector.end_window()
    recording[0] = False
    stats_after = [dict(n.protocol.stats) for n in cluster.nodes]
    counters = dict(tracer.counters) if tracer is not None else {}
    if tracer is not None:
        tracer.restore()
    handle.clients.stop()
    cluster.run_for(DRAIN_S)
    violation = None
    try:
        cluster.check_consistency()
    except ConsistencyViolation as exc:
        violation = str(exc)
    result = collector.result()
    return Repeat(
        setup_s=setup_s,
        wall=end - start,
        decided=result.delivered,
        completed=completed[0],
        start=start,
        end=end,
        digest=decision_digest(cluster),
        virtual_cps=result.throughput,
        step_ms=step_ms,
        step_events=step_events,
        virtual_p50_ms=result.latency.p50 * 1e3,
        virtual_p99_ms=result.latency.p99 * 1e3,
        events=sum(step_events),
        attempted=collector.proposed,
        failed=len(collector.inflight_of),
        stats_before=stats_before,
        stats_after=stats_after,
        # Only a traced repeat keeps its cluster's state alive for the
        # per-layer sizes; the others release it before the next repeat.
        protocols=[n.protocol for n in cluster.nodes] if traced else [],
        tracer=tracer,
        counters=counters,
        violation=violation,
    )


def instrument(tracer: Tracer, handle) -> None:
    """Wrap the simulator's layers: handlers, network, CPU model, the
    attached metrics collector and the workload generator."""
    cluster = handle.cluster
    network = cluster.network
    tracer.patch(network, "send", tracer.timed(network.send, "sim.network"))
    tracer.patch(network, "size_of", tracer.timed(network.size_of, "sim.network"))
    for node in cluster.nodes:
        instrument_protocol(tracer, node.protocol)
        instrument_env(tracer, node.env)
        tracer.patch(node.cpu, "submit", tracer.timed(node.cpu.submit, "sim.cpu"))
    collector = handle.collector
    tracer.patch(
        collector, "on_propose", tracer.timed(collector.on_propose, "obs.collector")
    )
    for node in cluster.nodes:
        for listeners, hook in (
            (node.deliver_listeners, collector._on_deliver),
            (node.read_listeners, collector._on_read),
        ):
            tracer.replace_item(listeners, hook, tracer.timed(hook, "obs.collector"))
    obs = collector.obs
    for hook in (
        "on_propose",
        "on_handler_enter",
        "on_handler_exit",
        "on_flush",
        "on_deliver",
        "on_note",
    ):
        tracer.patch(obs, hook, tracer.timed(getattr(obs, hook), "obs.collector"))
    workload = handle.workload
    tracer.patch(
        workload, "next_command", tracer.timed(workload.next_command, "workloads.gen")
    )


def run(seed: int, seconds: float, trace: bool, out: str) -> Outcome:
    outcome = Outcome()
    window = seconds * WINDOW_PER_SECOND
    repeats = [
        run_repeat(seed, window, traced=trace and i == REPEATS - 1)
        for i in range(REPEATS)
    ]
    first, second = repeats
    if (second.digest, second.decided) != (first.digest, first.decided):
        outcome.errors.append(
            f"nondeterministic: decided {second.decided} vs {first.decided}, "
            f"decision-log digest {second.digest[:12]} vs {first.digest[:12]}"
        )
    for repeat in repeats:
        outcome.attempted += repeat.attempted
        outcome.failed += repeat.failed
        if repeat.violation is not None:
            outcome.safety_violations += 1
            print(f"safety audit: {repeat.violation}", file=sys.stderr)
    outcome.note("repeats", len(repeats))
    outcome.note("decided_per_repeat", first.decided)
    outcome.note("decision_digest", first.digest[:16])
    outcome.note("virtual_cps", round(first.virtual_cps, 3))
    outcome.note("virtual_latency_p50_ms", round(first.virtual_p50_ms, 4))
    outcome.note("virtual_latency_p99_ms", round(first.virtual_p99_ms, 4))
    if trace:
        per_layer(outcome, second, first)
        second.tracer.write(os.path.join(out, f"spans-sim-saturated-{seed}.tsv"))
    else:
        end_to_end(outcome, repeats)
    return outcome


def end_to_end(outcome: Outcome, repeats: list[Repeat]) -> None:
    """Every repeat's window pooled, as for the runtime arms."""
    put = outcome.put
    completed = sum(r.completed for r in repeats)
    wall = sum(r.wall for r in repeats)
    steps = sorted(x for r in repeats for x in r.step_ms)
    put("throughput_cps", completed / wall, "1/s")
    put("latency_p50_ms", percentile(steps, 50), "ms")
    put("latency_p99_ms", percentile(steps, 99), "ms")
    put("late_early_ratio", event_rate_ratio(repeats), "ratio")
    put("setup_s", median([r.setup_s for r in repeats]), "s")
    put("peak_rss_mb", peak_rss_mb(), "MB")
    put("sim_us_per_cmd", wall * 1e6 / sum(r.decided for r in repeats), "us")
    outcome.note("late_early_per_repeat", [round(event_rate_ratio([r]), 4) for r in repeats])


def event_rate_ratio(repeats: list[Repeat]) -> float:
    """The simulator's soak signal: the median step's events per wall
    second over the last quarter of the window divided by the same over
    the first quarter, steps of all repeats pooled.  Events, not
    commands: decisions arrive in bursts of virtual time that differ
    from seed to seed, while the event rate follows only how fast the
    simulator works.  The median keeps a single GC pause from deciding
    which quarter looks slow."""
    q = STEPS // 4

    def rate(lo: int, hi: int) -> float:
        return median(
            [
                events / ms
                for r in repeats
                for events, ms in zip(r.step_events[lo:hi], r.step_ms[lo:hi])
            ]
        )

    return rate(STEPS - q, STEPS) / rate(0, q)


def per_layer(outcome: Outcome, traced: Repeat, plain: Repeat) -> None:
    tracer = traced.tracer
    done = traced.decided
    seconds, calls = tracer.totals(traced.start, traced.end)

    def us(name: str) -> float:
        return seconds.get(name, 0.0) * 1e6 / done

    core_metrics(
        outcome,
        seconds,
        calls,
        traced.counters,
        done,
        traced.stats_before,
        traced.stats_after,
        0,
        traced.protocols,
    )
    put = outcome.put
    handlers = sum(s for name, s in seconds.items() if name.startswith("core.m2.handler."))
    attributed = sum(seconds.values())
    put("sim.events_per_cmd", traced.events / done, "count")
    put("sim.handler_us_per_cmd", handlers * 1e6 / done, "us")
    put("sim.network_us_per_cmd", us("sim.network"), "us")
    put("sim.cpu_us_per_cmd", us("sim.cpu"), "us")
    put("obs.collector_us_per_cmd", us("obs.collector"), "us")
    put("workloads.gen_us_per_cmd", us("workloads.gen"), "us")
    put("sim.event_loop_self_us_per_cmd", (traced.wall - attributed) * 1e6 / done, "us")
    put("sim.virtual_cps", traced.virtual_cps, "1/s")
    put("sim.decided_in_window", traced.decided, "count")
    plain_cps = plain.completed / plain.wall
    traced_cps = traced.completed / traced.wall
    put("trace.untraced_throughput_cps", plain_cps, "1/s")
    put("trace.traced_throughput_cps", traced_cps, "1/s")
    put("trace.overhead_ratio", plain_cps / traced_cps if traced_cps else 0.0, "ratio")
    put("trace.coverage_frac", attributed / traced.wall, "ratio")
