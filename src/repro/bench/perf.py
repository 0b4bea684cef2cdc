"""Seeded performance microbenches behind the ``repro perf`` CLI.

Four layers, matching where the hot-path work actually happens:

- **sim**: raw event-loop dispatch rate (events/sec of wall time) --
  the floor under every simulated datapoint;
- **codec**: encode+decode round-trips/sec and bytes/msg for the JSON
  and binary wire paths over the same seeded message corpus;
- **m2_batching**: end-to-end commands/sec at saturation for M2Paxos
  with fast-path batching off (``max_batch=1``) vs on, under the
  *wire-bound* cost profile below;
- **runtime_tcp**: commands/sec through the real asyncio runtime over
  localhost TCP (the binary codec's end-to-end effect);
- **telemetry_overhead**: pipelined runtime saturation with the full
  live-telemetry stack attached vs the bare cluster (the telemetry
  tax, asserted <= 5% by the CI floor).

Every bench is seeded; wall-clock rates vary with the machine, but the
simulated-throughput numbers (``m2_batching``) are deterministic.
Results are written as one ``BENCH_<stamp>.json`` datapoint.

Why a wire-bound cost profile for the batching bench: with the default
calibration, throughput is bound by ``propose_cost`` (per-command
client handling, 8 ms), which batching cannot amortise -- by design, it
models work that exists per command regardless of how rounds are
packed.  Batching attacks the *per-round* costs: quorum messages, their
handler invocations, their sends.  To measure that effect the profile
shrinks ``propose_cost`` so rounds dominate, and charges an honest
``per_command_cost`` for every extra command a batched round carries.
Both arms run the identical profile, so the ratio isolates the
protocol-layer change.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, replace

from repro.bench.geo import bench_geo
from repro.consensus.base import ProtocolCosts
from repro.consensus.commands import Command

BENCH_SCHEMA = "repro-perf/1"

# Wire-bound profile for the batching comparison (see module docstring).
# per_command_cost is ~half of base_cost: a command inside a batch costs
# about half of what a whole message costs to handle.
WIRE_BOUND_COSTS = ProtocolCosts(
    base_cost=120e-6,
    serial_fraction=0.03,
    propose_cost=1e-3,
    per_command_cost=60e-6,
)

# Profile for the serving-tier comparison: leases remove the *consensus
# messages* from the read path, so the bench shrinks the per-command
# client-handling cost (which both arms pay identically, served or not)
# until the message path dominates -- the same isolation argument the
# batching bench makes for its wire-bound profile.
SERVING_COSTS = ProtocolCosts(
    base_cost=120e-6,
    serial_fraction=0.03,
    propose_cost=250e-6,
    per_command_cost=60e-6,
)


@dataclass
class PerfConfig:
    """Scale knobs; ``smoke`` shrinks everything for CI."""

    seed: int = 1
    n_nodes: int = 5
    sim_events: int = 200_000
    codec_messages: int = 400
    codec_rounds: int = 40
    bench_duration: float = 0.4
    bench_warmup: float = 0.4
    runtime_commands: int = 300
    # runtime_tcp noise control: one unmeasured burn-in run, then the
    # best of ``tcp_repeats`` measured runs (one-sided noise: background
    # load only ever slows a run down, so the best is the estimate).
    tcp_repeats: int = 5
    # Serving bench: sim read-ratio sweep (leased vs unleased arms per
    # ratio), plus a runtime pair at 90% reads driven with the same
    # alternating best-of-N discipline as the telemetry bench.
    serving_read_ratios: tuple[float, ...] = (0.0, 0.5, 0.9, 0.99)
    serving_commands: int = 1200
    serving_repeats: int = 5
    serving_lease: float = 0.2  # virtual seconds (sim arms)
    storage_records: int = 2048
    # Saturation sweep (bench ``runtime_saturation``): pipeline depths
    # to try and commands per arm.  ``uvloop=True`` runs every runtime
    # bench under uvloop's event loop when installed (silent fallback
    # otherwise; see repro.runtime.cluster.run).
    saturation_depths: tuple[int, ...] = (1, 4, 16, 64)
    saturation_commands: int = 1200
    # Telemetry-overhead bench: commands per arm, alternating off/on
    # repeats (the tax is the ratio of per-arm bests, so more repeats
    # give each arm more chances to record an uncontaminated run), and
    # the wall-clock sampling cadence while measuring.
    telemetry_commands: int = 1200
    telemetry_repeats: int = 7
    telemetry_interval: float = 0.05
    # Geo bench (``geo``): virtual seconds of warmup (ownership
    # migrations settle here) and of measured window per arm.
    geo_warmup: float = 0.8
    geo_duration: float = 0.8
    uvloop: bool = False
    smoke: bool = False

    def scaled_for_smoke(self) -> "PerfConfig":
        return replace(
            self,
            sim_events=40_000,
            codec_messages=150,
            codec_rounds=10,
            bench_duration=0.2,
            bench_warmup=0.25,
            runtime_commands=120,
            tcp_repeats=3,
            # The endpoints of the sweep still resolve the speedup the
            # CI floor checks; the mid-ratio points are full-run detail.
            serving_read_ratios=(0.0, 0.9),
            serving_commands=600,
            serving_repeats=3,
            storage_records=512,
            saturation_depths=(1, 16),
            saturation_commands=360,
            # Still the smallest telemetry arm that resolves a 5% tax:
            # below ~100ms of measured run, startup and batching-regime
            # jitter swamp the effect the floor is checking.
            telemetry_commands=900,
            # Long enough for every hot object to earn its migration
            # (threshold 3 demand-weight at ~200 req/s/zone) and for the
            # measured window to see >100 completions per zone.
            geo_warmup=0.5,
            geo_duration=0.5,
            smoke=True,
        )


# ----------------------------------------------------------------------
# Layer 0: event-loop dispatch
# ----------------------------------------------------------------------


def bench_sim_events(config: PerfConfig) -> dict:
    """Events/sec through the simulator's heap, including the timer
    churn pattern protocols create (arm a supervision timer, cancel it
    when the round completes) -- the case the lazy-compaction change
    targets."""
    from repro.sim.event_loop import EventLoop

    loop = EventLoop()
    n = config.sim_events
    fired = 0
    pending_cancel = []

    def tick() -> None:
        nonlocal fired
        fired += 1
        # Each event arms a 'supervision' timer it immediately replaces,
        # leaving a cancelled tombstone in the heap, and reschedules
        # itself while the budget lasts.
        guard = loop.schedule(10.0, lambda: None)
        pending_cancel.append(guard)
        if len(pending_cancel) > 32:
            pending_cancel.pop(0).cancel()
        if fired < n:
            loop.schedule(1e-6, tick)

    loop.schedule(0.0, tick)
    start = time.perf_counter()
    loop.run_until(1e9)
    elapsed = time.perf_counter() - start
    return {
        "events": fired,
        "events_per_sec": fired / elapsed,
        "wall_seconds": elapsed,
    }


# ----------------------------------------------------------------------
# Layer 1: wire codec
# ----------------------------------------------------------------------


def _codec_corpus(config: PerfConfig) -> list:
    """Seeded corpus shaped like real M2Paxos saturation traffic: mostly
    Accept/AckAccept/Decide, some Forward/Prepare, commands reused
    across messages the way one round's Accept+Decide reuse them."""
    import random

    from repro.core.messages import Accept, AckAccept, Decide, Forward, Prepare

    rng = random.Random(config.seed * 31 + 7)
    corpus: list = []
    for i in range(config.codec_messages):
        node = rng.randrange(config.n_nodes)
        n_objs = 1 if rng.random() < 0.9 else rng.randint(2, 4)
        objects = frozenset(
            f"o{node}.{rng.randrange(100)}" for _ in range(n_objs)
        )
        command = Command(
            cid=(node, i), ls=objects, payload_bytes=16, proposer=node
        )
        to_decide = {(obj, rng.randrange(50)): command for obj in objects}
        eps = {ins: node + config.n_nodes for ins in to_decide}
        kind = rng.random()
        if kind < 0.35:
            corpus.append(Accept(req=i, to_decide=to_decide, eps=eps))
        elif kind < 0.70:
            corpus.append(
                AckAccept(
                    req=i,
                    coordinator=node,
                    ok=rng.random() < 0.95,
                    cids={ins: command.cid for ins in to_decide},
                    eps=eps,
                )
            )
        elif kind < 0.90:
            corpus.append(Decide(to_decide=to_decide))
        elif kind < 0.95:
            corpus.append(Forward(command=command, hops=rng.randrange(3)))
        else:
            corpus.append(Prepare(req=i, eps=eps))
    return corpus


def bench_codec(config: PerfConfig) -> dict:
    """Round-trips/sec and bytes/msg, JSON vs binary, same corpus."""
    from repro.runtime import codec

    corpus = _codec_corpus(config)

    def run(encode) -> tuple[float, float]:
        # Best-of-N rounds with warm caches: steady state is what the
        # hot path sees (commands are re-encoded across Accept/Decide
        # and intern their bodies by design).
        best = float("inf")
        total_bytes = 0
        for _ in range(config.codec_rounds):
            start = time.perf_counter()
            total_bytes = 0
            for message in corpus:
                payload = encode(0, message)
                total_bytes += len(payload)
                codec.decode_payload(payload)
            best = min(best, time.perf_counter() - start)
        return len(corpus) / best, total_bytes / len(corpus)

    json_rate, json_bytes = run(codec.encode_payload_json)
    bin_rate, bin_bytes = run(codec.encode_payload_binary)
    return {
        "messages": len(corpus),
        "json_roundtrips_per_sec": json_rate,
        "binary_roundtrips_per_sec": bin_rate,
        "speedup": bin_rate / json_rate,
        "json_bytes_per_msg": json_bytes,
        "binary_bytes_per_msg": bin_bytes,
        "size_ratio": json_bytes / bin_bytes,
    }


# ----------------------------------------------------------------------
# Layer 2: protocol batching, end to end in the simulator
# ----------------------------------------------------------------------


def bench_m2_batching(config: PerfConfig) -> dict:
    """Saturated M2Paxos commands/sec, ``max_batch=1`` vs ``8``.

    Full-locality synthetic workload (each node hammering its own
    objects) so the fast path dominates and batching gets traffic to
    coalesce -- the workload regime the paper's Figure 3 measures.
    Real codec frame sizes feed the network model in both arms.
    """
    from repro.bench.harness import PointSpec, run_point, saturated_spec
    from repro.workloads.synthetic import SyntheticConfig

    base = saturated_spec(
        PointSpec(
            protocol="m2paxos",
            n_nodes=config.n_nodes,
            synthetic=SyntheticConfig(locality=1.0, local_set_size=16),
            seed=config.seed,
            frame_sizes="codec",
        )
    )
    # saturated_spec stretches the windows for measurement-grade runs;
    # the perf config stays authoritative so smoke mode is actually quick.
    base = replace(
        base, duration=config.bench_duration, warmup=config.bench_warmup
    )
    arms = {}
    for label, spec in (
        ("unbatched", base),
        ("batched", replace(base, m2={"max_batch": 8, "batch_wait": 1e-3})),
    ):
        result = run_point(spec, costs=WIRE_BOUND_COSTS)
        arms[label] = {
            "commands_per_sec": result.throughput,
            "delivered": result.delivered,
            "messages_sent": result.messages_sent,
            "bytes_sent": result.bytes_sent,
            "p50_ms": result.latency.p50 * 1e3 if result.latency else None,
            "fast_ratio": result.fast_ratio,
        }
    unbatched = arms["unbatched"]["commands_per_sec"]
    batched = arms["batched"]["commands_per_sec"]
    return {
        **arms,
        "speedup": batched / unbatched if unbatched else float("inf"),
        "message_reduction": (
            arms["unbatched"]["messages_sent"]
            / max(arms["batched"]["messages_sent"], 1)
        ),
    }


# ----------------------------------------------------------------------
# Layer 3: the real runtime over TCP
# ----------------------------------------------------------------------


def bench_runtime_tcp(config: PerfConfig) -> dict:
    """Commands/sec through asyncio RuntimeNodes on localhost sockets
    (binary codec end to end).  3 nodes keep the quorum math real while
    staying cheap enough for CI.

    A single cold run of this bench used to swing more than 10x between
    invocations (cold sockets, allocator and code-cache warmup, and the
    first-touch ownership acquisitions all landed inside the measured
    window), which made the datapoint untrustworthy.  It now follows
    the telemetry bench's discipline: each run warms ownership with an
    unmeasured pass and parks the GC around the measured region, one
    whole run is burned in unmeasured, and the reported rate is the
    **best of N repeats** -- timing noise on a shared box is one-sided,
    so the best repeat is the closest estimate of the uncontaminated
    cost (the spread is reported alongside as a dispersion check).
    """
    from repro.bench.harness import protocol_factory
    from repro.runtime.cluster import LocalCluster, run

    n_nodes = 3
    per_node = config.runtime_commands // n_nodes
    warm_per_node = min(64, per_node)

    async def one_run() -> float:
        cluster = LocalCluster(n_nodes, protocol_factory("m2paxos"))
        await cluster.start()
        try:
            for node in range(n_nodes):
                for i in range(warm_per_node):
                    cluster.propose(
                        node,
                        Command.make(node, 1_000_000 + i, [f"o{node}.{i % 8}"]),
                    )
            await cluster.wait_delivered(warm_per_node * n_nodes, timeout=60.0)
            already = warm_per_node * n_nodes
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            try:
                for node in range(n_nodes):
                    for i in range(per_node):
                        cluster.propose(
                            node, Command.make(node, i, [f"o{node}.{i % 8}"])
                        )
                await cluster.wait_delivered(
                    already + per_node * n_nodes, timeout=60.0
                )
                return time.perf_counter() - start
            finally:
                gc.enable()
        finally:
            await cluster.stop()

    run(one_run(), uvloop=config.uvloop)  # burn-in, unmeasured
    total = per_node * n_nodes
    runs = [run(one_run(), uvloop=config.uvloop) for _ in range(config.tcp_repeats)]
    rates = [total / elapsed for elapsed in runs]
    return {
        "nodes": n_nodes,
        "commands": total,
        "repeats": config.tcp_repeats,
        "commands_per_sec": max(rates),
        "median_commands_per_sec": statistics.median(rates),
        "rates": rates,
        "wall_seconds": min(runs),
    }


async def _measured_drive(
    cluster, per_node: int, depth: int, warm_depth: int = 8, reads: bool = False
) -> tuple[float, object]:
    """Drive ``per_node`` own-object commands per node through a
    ``depth``-deep :class:`~repro.runtime.driver.PipelineDriver` window;
    return ``(elapsed seconds, driver)``.

    An unmeasured warm-up pass settles ownership first (first-touch
    acquisitions and their deferred-retry churn would otherwise bill the
    measured window for a one-time transient), and the GC is parked for
    the measured region only (collector pauses skew short windows by
    whole milliseconds).  ``reads`` makes nine commands in ten reads.
    """
    from repro.runtime.driver import PipelineDriver

    nodes = range(len(cluster.nodes))
    warm = [
        (node, Command.make(node, 1_000_000 + i, [f"o{node}.{i % 8}"]))
        for node in nodes
        for i in range(min(64, per_node))
    ]
    await PipelineDriver(cluster, depth=warm_depth).run(warm, timeout=60.0)
    proposals = [
        (node, Command.make(node, i, [f"o{node}.{i % 8}"], is_read=reads and i % 10 != 0))
        for node in nodes
        for i in range(per_node)
    ]
    driver = PipelineDriver(cluster, depth=depth)
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        await driver.run(proposals, timeout=60.0)
        return time.perf_counter() - start, driver
    finally:
        gc.enable()


# The one pipelined M2 configuration every saturation arm runs: with
# ``batch_adaptive`` on, a depth-1 client sees immediate flushes (the
# serial protocol, batching adds no latency) while deep windows coalesce
# up to 32 commands per Accept round -- so the per-depth speedup
# isolates the *client window*, not a config change.
SATURATION_M2 = dict(max_batch=32, batch_wait=5e-3, batch_adaptive=True)


def bench_runtime_saturation(config: PerfConfig) -> dict:
    """Commands/sec through the real runtime as the client pipeline
    deepens -- the sim<->runtime gap bench.

    Each depth arm boots a fresh 3-node cluster, settles ownership with
    an unmeasured warmup pass (first-touch acquisitions and their
    deferred-retry churn would otherwise bill the measured window for a
    one-time transient), then drives ``saturation_commands`` through a
    :class:`~repro.runtime.driver.PipelineDriver` window.  All arms run
    the same pipelined protocol config (``SATURATION_M2``), so the
    depth-1 arm is the honest serial baseline for the speedup."""
    from repro.bench.harness import protocol_factory
    from repro.runtime.cluster import LocalCluster, run, uvloop_available

    n_nodes = 3
    per_node = config.saturation_commands // n_nodes

    async def arm(depth: int) -> dict:
        cluster = LocalCluster(n_nodes, protocol_factory("m2paxos", **SATURATION_M2))
        await cluster.start()
        try:
            elapsed, driver = await _measured_drive(
                cluster, per_node, depth, warm_depth=min(depth, 8)
            )
            return {
                "commands_per_sec": per_node * n_nodes / elapsed,
                "wall_seconds": elapsed,
                "peak_inflight": driver.max_inflight,
            }
        finally:
            await cluster.stop()

    depths = {}
    for depth in config.saturation_depths:
        depths[str(depth)] = run(arm(depth), uvloop=config.uvloop)
    serial_key = str(min(int(k) for k in depths))
    best_key = max(depths, key=lambda k: depths[k]["commands_per_sec"])
    serial = depths[serial_key]["commands_per_sec"]
    best = depths[best_key]["commands_per_sec"]
    return {
        "nodes": n_nodes,
        "commands": per_node * n_nodes,
        "depths": depths,
        "serial_depth": int(serial_key),
        "serial_commands_per_sec": serial,
        "best_depth": int(best_key),
        "best_commands_per_sec": best,
        "pipelined_speedup": best / serial if serial else float("inf"),
        "uvloop": config.uvloop and uvloop_available(),
    }


def bench_telemetry_overhead(config: PerfConfig) -> dict:
    """The telemetry tax: pipelined saturation throughput with the full
    live-telemetry stack (collector + wall-clock sampler + Prometheus
    endpoints) attached vs the bare cluster.

    Must run on the real runtime: in the simulator throughput is
    virtual-time, so wall-clock instrumentation cost is invisible there
    by construction.  Timing noise on a shared box is one-sided --
    background load can only *add* time -- so each arm's best repeat is
    its estimate of the uncontaminated cost, and the tax is the **ratio
    of per-arm bests**.  Arms still alternate (with the order flipped
    every round) so both get shots at the machine's calm moments
    wherever they fall in the bench's window; the per-round paired
    ratios are reported alongside as a dispersion check.
    """
    from repro.bench.harness import protocol_factory
    from repro.runtime.cluster import LocalCluster, run

    n_nodes = 3
    depth = 16
    per_node = config.telemetry_commands // n_nodes

    async def arm(telemetry_on: bool) -> dict:
        cluster = LocalCluster(n_nodes, protocol_factory("m2paxos", **SATURATION_M2))
        await cluster.start()
        try:
            telemetry = None
            if telemetry_on:
                telemetry = await cluster.start_telemetry(
                    interval=config.telemetry_interval, serve=True
                )
            elapsed, _ = await _measured_drive(cluster, per_node, depth)
            measurement = {
                "commands_per_sec": per_node * n_nodes / elapsed,
                "wall_seconds": elapsed,
            }
            if telemetry is not None:
                measurement["frames"] = len(telemetry.frames)
                measurement["endpoints"] = len(telemetry.endpoints)
            return measurement
        finally:
            await cluster.stop()

    # One unmeasured burn-in arm: process-level warm-up (allocator,
    # socket machinery, code caches) otherwise lands entirely on the
    # first measured round.
    run(arm(False), uvloop=config.uvloop)
    repeats: dict[bool, list[dict]] = {False: [], True: []}
    for round_index in range(config.telemetry_repeats):
        # Alternate which arm goes first so slow machine drift within
        # the bench (thermal throttling, background load ramping) can
        # not systematically tax one arm.
        order = (False, True) if round_index % 2 == 0 else (True, False)
        for telemetry_on in order:
            repeats[telemetry_on].append(
                run(arm(telemetry_on), uvloop=config.uvloop)
            )
    best = {
        on: max(runs, key=lambda r: r["commands_per_sec"])
        for on, runs in repeats.items()
    }
    round_ratios = [
        off["commands_per_sec"] / on["commands_per_sec"]
        if on["commands_per_sec"]
        else float("inf")
        for off, on in zip(repeats[False], repeats[True])
    ]
    return {
        "nodes": n_nodes,
        "commands": per_node * n_nodes,
        "depth": depth,
        "interval": config.telemetry_interval,
        "repeats": config.telemetry_repeats,
        "off": best[False],
        "on": best[True],
        "round_ratios": round_ratios,
        "round_ratio_median": statistics.median(round_ratios),
        "overhead_ratio": (
            best[False]["commands_per_sec"] / best[True]["commands_per_sec"]
            if best[True]["commands_per_sec"]
            else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# Serving tier: leased owner-local reads
# ----------------------------------------------------------------------


def bench_serving(config: PerfConfig) -> dict:
    """Leased owner-local reads vs consensus-for-everything, on both
    substrates.

    Sim side: a read-ratio sweep (``serving_read_ratios``) where each
    ratio runs two arms under :data:`SERVING_COSTS` -- identical except
    that one enables ownership leases.  The workload is fully local
    (``locality=1.0``) so the arms isolate exactly what leases change:
    whether a read at its owner costs an Accept round or nothing.  The
    headline ``read_local_speedup`` is the leased/unleased throughput
    ratio at the 90%-read point, the serving mix the serving tier is
    built for.

    Runtime side: one 90%-read pair through real asyncio/TCP nodes,
    driven with the same alternating best-of-N discipline as
    :func:`bench_telemetry_overhead` (wall-clock noise is one-sided, so
    per-arm bests are the uncontaminated estimates and the ratio of
    bests is the datapoint).
    """
    from repro.bench.harness import PointSpec, protocol_factory, run_point
    from repro.runtime.cluster import LocalCluster, run
    from repro.workloads.synthetic import SyntheticConfig

    def sim_arm(read_fraction: float, leased: bool) -> dict:
        spec = PointSpec(
            protocol="m2paxos",
            n_nodes=config.n_nodes,
            synthetic=SyntheticConfig(
                locality=1.0,
                local_set_size=16,
                read_fraction=read_fraction,
            ),
            clients_per_node=64,
            think_time=0.002,
            max_inflight=96,
            duration=config.bench_duration,
            warmup=max(config.bench_warmup, 0.4),
            seed=config.seed,
            frame_sizes="codec",
            m2={"lease_duration": config.serving_lease if leased else 0.0},
        )
        result = run_point(spec, costs=SERVING_COSTS)
        stats = result.extra["protocol_stats"]
        summary = {
            "commands_per_sec": result.throughput,
            "delivered": result.delivered,
            "reads_served": result.reads_served,
            "read_local": sum(s.get("read_local", 0) for s in stats),
            "read_fallback": sum(s.get("read_fallback", 0) for s in stats),
        }
        if result.latency is not None:
            summary["p50_ms"] = result.latency.p50 * 1e3
        return summary

    ratios: dict[str, dict] = {}
    for read_fraction in config.serving_read_ratios:
        unleased = sim_arm(read_fraction, leased=False)
        leased = sim_arm(read_fraction, leased=True)
        ratios[f"{read_fraction:g}"] = {
            "unleased": unleased,
            "leased": leased,
            "speedup": (
                leased["commands_per_sec"] / unleased["commands_per_sec"]
                if unleased["commands_per_sec"]
                else float("inf")
            ),
        }
    # The headline: the 90%-read point when it is in the sweep, else the
    # most read-heavy ratio measured.
    headline_rf = (
        0.9
        if 0.9 in config.serving_read_ratios
        else max(config.serving_read_ratios)
    )
    read_local_speedup = ratios[f"{headline_rf:g}"]["speedup"]

    # -- runtime pair: 90% reads over asyncio/TCP --------------------
    n_nodes = 3
    per_node = config.serving_commands // n_nodes

    async def runtime_arm(leased: bool) -> dict:
        factory = protocol_factory(
            "m2paxos",
            **SATURATION_M2,
            # Wall-clock lease: long enough that renewals (not expiries)
            # carry the measured window, short enough to stay honest.
            lease_duration=0.5 if leased else 0.0,
            lease_margin=0.005,
        )
        cluster = LocalCluster(n_nodes, factory)
        await cluster.start()
        try:
            # The unmeasured warm-up writes settle ownership (and, on
            # the leased arm, establish every object's lease).
            elapsed, _ = await _measured_drive(cluster, per_node, 16, reads=True)
            return {
                "commands_per_sec": per_node * n_nodes / elapsed,
                "wall_seconds": elapsed,
                "reads_local": sum(
                    len(node.read_log) for node in cluster.nodes
                ),
            }
        finally:
            await cluster.stop()

    run(runtime_arm(False), uvloop=config.uvloop)  # burn-in, unmeasured
    repeats: dict[bool, list[dict]] = {False: [], True: []}
    for round_index in range(config.serving_repeats):
        order = (False, True) if round_index % 2 == 0 else (True, False)
        for leased in order:
            repeats[leased].append(run(runtime_arm(leased), uvloop=config.uvloop))
    best = {
        leased: max(runs, key=lambda r: r["commands_per_sec"])
        for leased, runs in repeats.items()
    }
    runtime = {
        "nodes": n_nodes,
        "commands": per_node * n_nodes,
        "read_ratio": 0.9,
        "repeats": config.serving_repeats,
        "unleased": best[False],
        "leased": best[True],
        "speedup": (
            best[True]["commands_per_sec"] / best[False]["commands_per_sec"]
            if best[False]["commands_per_sec"]
            else float("inf")
        ),
    }

    return {
        "nodes": config.n_nodes,
        "lease_duration": config.serving_lease,
        "ratios": ratios,
        "headline_read_ratio": headline_rf,
        "read_local_speedup": read_local_speedup,
        "runtime": runtime,
    }


# ----------------------------------------------------------------------
# Layer 4: durable storage (fsync batching)
# ----------------------------------------------------------------------


def bench_storage_fsync(config: PerfConfig) -> dict:
    """Accept-path append throughput on real files: one fsync per record
    vs one group-commit fsync per ~32 records.

    This is the mechanism behind the ``fsync_wait`` knob: a synchronous
    store pays an fsync on every commit, the group-commit store batches
    an event window's records under a single fsync.  The speedup floor
    asserted by CI is deliberately far below what any real disk shows
    (an fsync costs orders of magnitude more than framing ~100 bytes).
    """
    import shutil
    import tempfile

    from repro.storage.base import StorageConfig
    from repro.storage.disk import DiskStorage

    n = config.storage_records
    group = 32
    payload = b"x" * 96  # roughly one framed Accept record
    tmpdir = tempfile.mkdtemp(prefix="perf-storage-")
    noop = lambda: None  # noqa: E731 - release hook; the bench has no outbox

    def run(batch: int) -> float:
        store = DiskStorage(
            StorageConfig(kind="disk", dir=tmpdir), os.path.join(tmpdir, f"b{batch}")
        )
        try:
            start = time.perf_counter()
            done = 0
            while done < n:
                take = min(batch, n - done)
                for _ in range(take):
                    store.append(1, payload)
                store.commit(noop)
                done += take
            return time.perf_counter() - start
        finally:
            store.close()

    try:
        per_record = run(1)
        batched = run(group)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return {
        "records": n,
        "group_size": group,
        "per_record_fsync_records_per_sec": n / per_record,
        "batched_fsync_records_per_sec": n / batched,
        "speedup": per_record / batched,
    }


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------

BENCHES = {
    "sim": bench_sim_events,
    "codec": bench_codec,
    "m2_batching": bench_m2_batching,
    "runtime_tcp": bench_runtime_tcp,
    "runtime_saturation": bench_runtime_saturation,
    "telemetry_overhead": bench_telemetry_overhead,
    "serving": bench_serving,
    "storage_fsync": bench_storage_fsync,
    "geo": bench_geo,
}

# The rows ``repro perf`` prints per bench: ``(label, path)`` where the
# path is dot-separated keys into the bench's result dict.  A ``*`` key
# expands to one row per entry at that level, its key filling the
# label's ``{}``.
HEADLINES = {
    "sim": [("sim events/sec", "events_per_sec")],
    "codec": [
        ("codec binary/json speedup", "speedup"),
        ("codec bytes/msg (bin)", "binary_bytes_per_msg"),
    ],
    "m2_batching": [
        ("m2 batched cmds/sec", "batched.commands_per_sec"),
        ("m2 batching speedup", "speedup"),
    ],
    "runtime_tcp": [("runtime TCP cmds/sec", "commands_per_sec")],
    "runtime_saturation": [
        ("runtime depth={} cmds/sec", "depths.*.commands_per_sec"),
        ("runtime pipelined speedup", "pipelined_speedup"),
    ],
    "telemetry_overhead": [
        ("telemetry-off cmds/sec", "off.commands_per_sec"),
        ("telemetry-on cmds/sec", "on.commands_per_sec"),
        ("telemetry overhead ratio", "overhead_ratio"),
    ],
    "serving": [
        ("serving {} reads leased cmds/sec", "ratios.*.leased.commands_per_sec"),
        ("serving {} reads speedup", "ratios.*.speedup"),
        ("serving read_local speedup", "read_local_speedup"),
        ("serving runtime speedup (90% reads)", "runtime.speedup"),
    ],
    "storage_fsync": [
        ("fsync-batched records/sec", "batched_fsync_records_per_sec"),
        ("fsync batching speedup", "speedup"),
    ],
    "geo": [
        ("geo pinned remote p50 ms", "pinned.remote_p50_ms"),
        ("geo affinity remote p50 ms", "zone_affinity.remote_p50_ms"),
        ("geo affinity+flex remote p50 ms", "zone_affinity_flex.remote_p50_ms"),
        ("geo remote p50 improvement", "remote_p50_improvement"),
        ("geo flex remote p50 improvement", "flex_remote_p50_improvement"),
        (
            "geo flex+nearest remote p50 improvement",
            "flex_nearest_remote_p50_improvement",
        ),
    ],
}


def headline_rows(results: dict) -> list[dict]:
    """The ``{"bench", "value"}`` report rows :data:`HEADLINES` names
    for every bench in ``results``, in run order."""

    def rows(label: str, node, keys: list[str]) -> list[dict]:
        if not keys:
            return [{"bench": label, "value": node}]
        if keys[0] == "*":
            return [
                row
                for key, sub in node.items()
                for row in rows(label.format(key), sub, keys[1:])
            ]
        return rows(label, node[keys[0]], keys[1:])

    return [
        row
        for bench, result in results.items()
        for label, path in HEADLINES.get(bench, ())
        for row in rows(label, result, path.split("."))
    ]


def run_perf(config: PerfConfig, only: list[str] | None = None) -> dict:
    """Run the selected benches and return the BENCH datapoint dict."""
    names = only or list(BENCHES)
    unknown = [name for name in names if name not in BENCHES]
    if unknown:
        raise ValueError(f"unknown bench(es) {unknown}; choose from {list(BENCHES)}")
    results = {}
    for name in names:
        results[name] = BENCHES[name](config)
    return {
        "schema": BENCH_SCHEMA,
        "stamp": time.strftime("%Y%m%d-%H%M%S"),
        "smoke": config.smoke,
        "seed": config.seed,
        "config_hash": config_hash(config),
        "results": results,
    }


def config_hash(config: PerfConfig) -> str:
    """Stable digest of every scale knob -- two datapoints with the same
    hash, seed, and bench set measured the same thing."""
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_regressions(datapoint: dict) -> list[str]:
    """The assertions the CI perf smoke enforces.  Thresholds are set
    below the steady-state numbers (batching ~2x, codec ~2x) so only a
    real regression -- not scheduler jitter -- trips them."""
    problems = []
    results = datapoint["results"]
    batching = results.get("m2_batching")
    if batching is not None and batching["speedup"] <= 1.0:
        problems.append(
            f"batched m2paxos is not faster than unbatched "
            f"(speedup {batching['speedup']:.3f})"
        )
    codec = results.get("codec")
    if codec is not None and codec["speedup"] <= 1.0:
        problems.append(
            f"binary codec is not faster than JSON "
            f"(speedup {codec['speedup']:.3f})"
        )
    storage = results.get("storage_fsync")
    if storage is not None and storage["speedup"] < 3.0:
        problems.append(
            f"fsync-batched appends are not >= 3x per-record fsync "
            f"(speedup {storage['speedup']:.3f})"
        )
    saturation = results.get("runtime_saturation")
    if saturation is not None and saturation["pipelined_speedup"] < 1.5:
        problems.append(
            f"pipelined runtime is not >= 1.5x the serial depth-1 client "
            f"(speedup {saturation['pipelined_speedup']:.3f} at depth "
            f"{saturation['best_depth']})"
        )
    telemetry = results.get("telemetry_overhead")
    if telemetry is not None and telemetry["overhead_ratio"] > 1.05:
        problems.append(
            f"full telemetry costs more than 5% of saturation throughput "
            f"(overhead ratio {telemetry['overhead_ratio']:.3f})"
        )
    serving = results.get("serving")
    if serving is not None:
        # Steady-state sim speedup at 90% reads is ~4x; the smoke floor
        # is looser because its shorter windows resolve the ratio more
        # coarsely.
        floor = 2.0 if datapoint.get("smoke") else 3.0
        if serving["read_local_speedup"] < floor:
            problems.append(
                f"serving: leased local reads are not >= {floor}x the "
                f"lease-disabled arm at {serving['headline_read_ratio']:g} "
                f"read ratio (speedup {serving['read_local_speedup']:.3f})"
            )
        if serving["runtime"]["leased"]["reads_local"] <= 0:
            problems.append(
                "serving: runtime leased arm served no local reads"
            )
    geo = results.get("geo")
    if geo is not None:
        if geo["zone_affinity"]["migrations"] <= 0:
            problems.append(
                "geo: zone-affinity arm performed no ownership migrations"
            )
        # Floors far below the steady-state wins (~2x majority, ~10x+
        # flex): only a broken migration path trips them.
        if not geo["remote_p50_improvement"] >= 1.3:
            problems.append(
                f"geo: remote-region p50 did not improve >= 1.3x after "
                f"migration (got {geo['remote_p50_improvement']:.3f}x)"
            )
        if not geo["flex_remote_p50_improvement"] >= 1.3:
            problems.append(
                f"geo: flexible-quorum arm did not improve remote p50 >= "
                f"1.3x (got {geo['flex_remote_p50_improvement']:.3f}x)"
            )
        nearest = geo.get("flex_nearest_remote_p50_improvement")
        if nearest is not None:
            # Latency-aware targeting must never regress the broadcast
            # flexible-quorum arm (5% slack absorbs the run-to-run
            # wobble of the migration timing, nothing more).
            if not nearest >= geo["flex_remote_p50_improvement"] * 0.95:
                problems.append(
                    f"geo: nearest-quorum targeting regressed the "
                    f"flexible-quorum arm ({nearest:.3f}x vs "
                    f"{geo['flex_remote_p50_improvement']:.3f}x)"
                )
    return problems


def _datapoint_key(datapoint: dict) -> tuple:
    """Identity of one measurement: config shape, seed, and bench set.
    Re-running the same configuration replaces the old entry instead of
    accumulating duplicates."""
    return (
        datapoint.get("config_hash"),
        datapoint.get("seed"),
        tuple(sorted(datapoint.get("results", {}))),
    )


def write_datapoint(datapoint: dict, path: str | None = None) -> str:
    """Write ``datapoint`` to ``path`` (default ``BENCH_<stamp>.json``).

    A fresh path gets the bare datapoint dict.  Writing to an existing
    file (the accumulated ``BENCH_full.json`` pattern) merges: the file
    becomes a list of datapoints, deduplicated on (config hash, seed,
    bench set) so repeated runs of one configuration keep only the
    latest measurement instead of appending duplicates.
    """
    if path is None:
        path = f"BENCH_{datapoint['stamp']}.json"
    payload: dict | list = datapoint
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
        history = existing if isinstance(existing, list) else [existing]
        key = _datapoint_key(datapoint)
        history = [d for d in history if _datapoint_key(d) != key]
        history.append(datapoint)
        payload = history
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
