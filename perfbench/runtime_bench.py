"""Runtime workloads: three nodes on localhost TCP, closed loop.

Each run pre-generates its commands with ``SyntheticWorkload`` from the
seed, then measures them in arms of ``ARM_SECONDS``.  An arm boots a
fresh :class:`LocalCluster`, settles ownership with a warm-up pass and
lets a :class:`PipelineDriver` window per node (each slot a caller that
waits for its reply) run for the arm's seconds.  When the window closes
no new command is issued; the arm waits a bounded grace period for the
outstanding ones and for the replicas to agree, then audits every
node's delivery logs with the chaos checker.  The end-to-end figures
pool the commands of all arms.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import repro.runtime.node as runtime_node
from repro.bench.harness import protocol_factory
from repro.bench.perf import SATURATION_M2
from repro.chaos.checker import check_run
from repro.consensus.base import EnvObserver
from repro.consensus.commands import Command
from repro.core.m2.config import SafetyViolation
from repro.runtime.cluster import LocalCluster
from repro.runtime.driver import PipelineDriver
from repro.storage.base import StorageConfig
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload

from common import (
    Outcome,
    arm_count,
    late_early_ratio,
    median,
    peak_rss_mb,
    percentile,
    quarter_spans,
)
from layers import core_metrics, instrument_env, instrument_protocol
from tracing import Tracer

N_NODES = 3
LOCAL_SET = 16
MAX_BOOT_ATTEMPTS = 5
WARMUP_WRITES_PER_OBJECT = 3
GRACE_S = 3.0
"""After the window: how long outstanding commands may still complete
and replicas catch up before the run is audited."""


@dataclass(frozen=True)
class RuntimeWorkload:
    name: str
    synthetic: SyntheticConfig
    depth: int
    m2: dict
    max_cps: float
    """Commands pre-generated per measured second; well above the
    rate this workload reaches, so the pool never runs dry."""
    durable: bool = False


WORKLOADS = {
    "local-writes": RuntimeWorkload(
        name="local-writes",
        synthetic=SyntheticConfig(local_set_size=LOCAL_SET, locality=1.0),
        depth=64,
        m2=dict(SATURATION_M2),
        max_cps=9_000.0,
    ),
    "durable-contended": RuntimeWorkload(
        name="durable-contended",
        synthetic=SyntheticConfig(
            local_set_size=LOCAL_SET, locality=0.7, complex_fraction=0.1
        ),
        depth=16,
        m2=dict(SATURATION_M2),
        durable=True,
        max_cps=2_500.0,
    ),
    "durable-local": RuntimeWorkload(
        name="durable-local",
        synthetic=SyntheticConfig(local_set_size=LOCAL_SET, locality=1.0),
        depth=64,
        m2=dict(SATURATION_M2),
        durable=True,
        max_cps=6_000.0,
    ),
    "read-mostly": RuntimeWorkload(
        name="read-mostly",
        synthetic=SyntheticConfig(
            local_set_size=LOCAL_SET, locality=1.0, read_fraction=0.9
        ),
        depth=64,
        m2=dict(SATURATION_M2, lease_duration=0.5, lease_margin=0.005),
        max_cps=22_000.0,
    ),
}

FSYNC_WAIT = 0.002
"""Group-commit window of the durable workload (seconds)."""


class Recorder(EnvObserver):
    """Propose and completion times of the measured commands.

    Subscribes to no notes, no handler timing and only proposer
    deliveries, so attaching it adds one call per proposal."""

    note_kinds = frozenset()
    wants_handler_timing = False
    deliver_scope = "proposer"

    def __init__(self) -> None:
        self.proposed_at: dict[tuple[int, int], float] = {}
        self.completed_at: dict[tuple[int, int], float] = {}
        self.reads_issued = 0

    def on_propose(self, node_id: int, command: Command) -> None:
        self.proposed_at[command.cid] = time.perf_counter()
        if command.is_read:
            self.reads_issued += 1

    def complete(self, node_id: int, command: Command, *_rest) -> None:
        cid = command.cid
        if node_id == command.proposer and cid in self.proposed_at:
            self.completed_at.setdefault(cid, time.perf_counter())

    def attach(self, cluster: LocalCluster) -> None:
        for node in cluster.nodes:
            node.env.add_observer(self)
            node.deliver_listeners.append(self.complete)
            node.read_listeners.append(self.complete)


@dataclass
class Arm:
    """One measured window on one cluster."""

    cluster: LocalCluster
    recorder: Recorder
    start: float
    end: float
    issued: int
    stats_before: list[dict]
    stats_after: list[dict] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    counters_at_end: dict = field(default_factory=dict)
    safety_exceptions: int = 0
    loop_errors: list[str] = field(default_factory=list)

    @property
    def completions(self) -> list[float]:
        return sorted(
            t for t in self.recorder.completed_at.values() if t <= self.end
        )

    @property
    def wall(self) -> float:
        return self.end - self.start


def generate(workload: RuntimeWorkload, seed: int, seconds: float) -> list:
    """The run's commands, in per-node submission order."""
    rng = random.Random(seed)
    generator = SyntheticWorkload(workload.synthetic, N_NODES, rng)
    per_node = math.ceil(workload.max_cps * seconds / N_NODES)
    return [
        (node, generator.next_command(node))
        for _ in range(per_node)
        for node in range(N_NODES)
    ]


def warmup_commands() -> list:
    """Writes to every node's own objects: each first touch acquires
    ownership here, before the window opens."""
    base = 1 << 40  # cid space disjoint from the generated commands
    return [
        (node, Command.make(node, base + i, [f"o{node}.{i % LOCAL_SET}"]))
        for node in range(N_NODES)
        for i in range(LOCAL_SET * WARMUP_WRITES_PER_OBJECT)
    ]


class RuntimeBench:
    def __init__(
        self, workload: RuntimeWorkload, seed: int, seconds: float, scratch: str, out: str
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.arms = arm_count(seconds)
        self.arm_seconds = seconds / self.arms
        self.scratch = scratch
        self.out = out
        self.boot_failures = 0
        self._boots = 0
        self._factory = protocol_factory("m2paxos", **workload.m2)

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def _storage(self) -> Optional[StorageConfig]:
        if not self.workload.durable:
            return None
        self._boots += 1
        path = os.path.join(self.scratch, f"boot-{self._boots}")
        shutil.rmtree(path, ignore_errors=True)
        return StorageConfig(kind="disk", dir=path, fsync_wait=FSYNC_WAIT)

    async def boot(self) -> LocalCluster:
        """Boot a cluster; a boot that fails (a port taken between
        ``LocalCluster`` picking it and the node binding it) is counted
        and retried on fresh ports."""
        for _attempt in range(MAX_BOOT_ATTEMPTS):
            cluster = LocalCluster(N_NODES, self._factory, storage=self._storage())
            try:
                await cluster.start()
            except OSError as exc:
                self.boot_failures += 1
                print(f"boot failed ({exc}); booting again", file=sys.stderr)
                await cluster.stop()
                continue
            return cluster
        raise RuntimeError(f"{MAX_BOOT_ATTEMPTS} boots failed in a row")

    async def setup(self) -> tuple[LocalCluster, float]:
        """Boot plus ownership warm-up; returns the cluster and the
        seconds it took."""
        started = time.perf_counter()
        cluster = await self.boot()
        await PipelineDriver(cluster, depth=8).run(warmup_commands(), timeout=60.0)
        return cluster, time.perf_counter() - started

    # ------------------------------------------------------------------
    # Measured window
    # ------------------------------------------------------------------

    async def window(
        self, cluster: LocalCluster, proposals: list, tracer: Optional[Tracer]
    ) -> Arm:
        loop = asyncio.get_running_loop()
        errors: list[str] = []
        violations = [0]
        counting = [True]

        def on_error(_loop, context) -> None:
            if not counting[0]:
                return
            exc = context.get("exception")
            if isinstance(exc, SafetyViolation):
                violations[0] += 1
            else:
                errors.append(f"{context.get('message')}: {exc!r}")
            print(f"loop error: {context.get('message')}: {exc!r}", file=sys.stderr)

        loop.set_exception_handler(on_error)
        recorder = Recorder()
        recorder.attach(cluster)
        stats_before = [dict(n.protocol.stats) for n in cluster.nodes]
        gc.collect()
        if tracer is not None:
            instrument(tracer, cluster)
        driver = PipelineDriver(cluster, depth=self.workload.depth)
        start = time.perf_counter()
        task = asyncio.ensure_future(
            driver.run(proposals, timeout=self.arm_seconds + GRACE_S + 60.0)
        )
        done, _ = await asyncio.wait({task}, timeout=self.arm_seconds)
        end = time.perf_counter()
        arm = Arm(cluster, recorder, start, end, 0, stats_before, tracer=tracer)
        if tracer is not None:
            arm.counters_at_end = dict(tracer.counters)
        arm.stats_after = [dict(n.protocol.stats) for n in cluster.nodes]
        # Close the window: with depth 0 no pump issues another command,
        # while the ones in flight still complete.
        driver.depth = 0
        if task in done:
            exc = task.exception()
            if isinstance(exc, SafetyViolation):
                violations[0] += 1
            elif exc is not None:
                errors.append(f"driver: {exc!r}")
        arm.issued = len(recorder.proposed_at)
        per_node = len(proposals) // N_NODES
        for node in range(N_NODES):
            if sum(1 for cid in recorder.proposed_at if cid[0] == node) >= per_node:
                errors.append(f"node {node} ran out of commands before the window closed")
        await self._settle(cluster, recorder)
        # Python 3.11's ``wait_for`` swallows a cancel that lands while
        # the driver's wake-up is already set; cancel until it stops.
        while not task.done():
            task.cancel()
            await asyncio.wait({task}, timeout=0.05)
        if tracer is not None:
            tracer.restore()
        counting[0] = False
        arm.safety_exceptions = violations[0]
        arm.loop_errors = errors
        return arm

    async def _settle(self, cluster: LocalCluster, recorder: Recorder) -> None:
        """Wait (bounded) until every issued command completed and all
        replicas delivered the same number of commands."""
        deadline = time.perf_counter() + GRACE_S
        while time.perf_counter() < deadline:
            lengths = {len(n.delivered) for n in cluster.nodes}
            if len(recorder.completed_at) >= len(recorder.proposed_at) and len(lengths) == 1:
                return
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # One invocation
    # ------------------------------------------------------------------

    async def run_arm(self, proposals: list, traced: bool) -> tuple[Arm, float, Outcome]:
        """Boot, warm up, measure one window, audit, stop."""
        # The previous arm's cluster is garbage now; collect it here so
        # that collection is not billed to this arm's set-up.
        gc.collect()
        cluster, setup_s = await self.setup()
        try:
            arm = await self.window(cluster, proposals, Tracer() if traced else None)
            audit = audit_arm(arm)
        finally:
            await cluster.stop()
        return arm, setup_s, audit

    def run(self, trace: bool) -> Outcome:
        proposals = generate(self.workload, self.seed, self.arm_seconds)
        # The pool is benchmark input: keep the collector from scanning
        # it, so GC pauses in the window reflect the program's own heap.
        gc.collect()
        gc.freeze()
        outcome = Outcome()
        if not trace:
            figures, setup_times = [], []
            for _ in range(self.arms):
                arm, setup_s, audit = asyncio.run(self.run_arm(proposals, traced=False))
                # Keep only the figures: a finished arm's cluster would
                # otherwise stay on the heap the next arm collects.
                figures.append(arm_figures(arm))
                del arm
                setup_times.append(setup_s)
                outcome.merge(audit)
            end_to_end(outcome, figures, setup_times)
        else:
            plain, _, audit = asyncio.run(self.run_arm(proposals, traced=False))
            plain_cps = len(plain.completions) / plain.wall
            del plain
            outcome.merge(audit)
            arm, _, audit = asyncio.run(self.run_arm(proposals, traced=True))
            outcome.merge(audit)
            per_layer(outcome, arm, plain_cps)
            arm.tracer.write(
                os.path.join(self.out, f"spans-{self.workload.name}-{self.seed}.tsv")
            )
        outcome.boot_failures = self.boot_failures
        return outcome


def audit_arm(arm: Arm) -> Outcome:
    """Failed commands and the safety audit of one arm."""
    outcome = Outcome()
    outcome.attempted = arm.issued
    outcome.failed = arm.issued - len(arm.recorder.completed_at)
    logs = {
        node.node_id: node.delivery_history + [node.delivered]
        for node in arm.cluster.nodes
    }
    report = check_run(logs, live_nodes=list(logs))
    for violation in report.violations[:5]:
        print(f"safety audit: {violation}", file=sys.stderr)
    outcome.safety_violations = len(report.violations) + arm.safety_exceptions
    outcome.errors.extend(arm.loop_errors)
    return outcome


def arm_figures(arm: Arm) -> dict:
    recorder = arm.recorder
    return {
        "completed": len(arm.completions),
        "wall": arm.wall,
        "latencies": [
            recorder.completed_at[cid] - recorder.proposed_at[cid]
            for cid in recorder.completed_at
        ],
        "quarters": quarter_spans(arm.completions, arm.start, arm.end),
    }


def end_to_end(outcome: Outcome, figures: list[dict], setup_times: list[float]) -> None:
    """Every arm's commands pooled: throughput over the arms' summed
    windows, latency percentiles over all samples, soak over the summed
    quarter spans."""
    throughput = sum(f["completed"] for f in figures) / sum(f["wall"] for f in figures)
    latencies = sorted(x for f in figures for x in f["latencies"])
    outcome.put("throughput_cps", throughput, "1/s")
    outcome.put("latency_p50_ms", percentile(latencies, 50) * 1e3, "ms")
    outcome.put("latency_p99_ms", percentile(latencies, 99) * 1e3, "ms")
    outcome.put("late_early_ratio", late_early_ratio([f["quarters"] for f in figures]), "ratio")
    outcome.put("setup_s", median(setup_times), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.put("sim_us_per_cmd", 1e6 / throughput, "us")
    outcome.note("arms", len(figures))
    outcome.note("latency_samples", len(latencies))
    outcome.note(
        "throughput_per_arm", [round(f["completed"] / f["wall"], 1) for f in figures]
    )
    outcome.note(
        "late_early_per_arm", [round(late_early_ratio([f["quarters"]]), 4) for f in figures]
    )


def instrument(tracer: Tracer, cluster: LocalCluster) -> None:
    """Wrap each runtime layer's entry points for one traced window."""
    encode = runtime_node.encode_message_into

    def encode_counted(out, sender, message):
        before = len(out)
        encode(out, sender, message)
        tracer.count("codec.bytes", len(out) - before)

    tracer.patch(
        runtime_node,
        "decode_message",
        tracer.timed(runtime_node.decode_message, "runtime.codec.decode"),
    )
    tracer.patch(
        runtime_node,
        "encode_message_into",
        tracer.timed(encode_counted, "runtime.codec.encode", cid_arg=2),
    )

    for node in cluster.nodes:
        instrument_protocol(tracer, node.protocol)
        instrument_env(tracer, node.env)
        storage = node.env.storage
        if storage.durable:
            tracer.patch(storage, "commit", tracer.timed(storage.commit, "storage.commit"))
            tracer.patch(storage, "_fire", tracer.timed(storage._fire, "storage.commit"))

            def count_persist(frames):
                tracer.count("storage.bytes", sum(len(f) for f in frames))
                tracer.count("storage.fsyncs")

            tracer.patch(
                storage,
                "_persist",
                tracer.timed(storage._persist, "storage.fsync", on_call=count_persist),
            )
    writer, reader = asyncio.StreamWriter, asyncio.StreamReader
    tracer.patch(writer, "write", tracer.timed(writer.write, "runtime.node.write"))
    tracer.patch(
        writer, "writelines", tracer.timed(writer.writelines, "runtime.node.write")
    )
    tracer.patch(writer, "drain", tracer.waited(writer.drain, "runtime.node.drain_wait"))
    tracer.patch(reader, "read", tracer.waited(reader.read, "runtime.node.read"))


def per_layer(outcome: Outcome, arm: Arm, plain_cps: float) -> None:
    tracer = arm.tracer
    done = max(len(arm.completions), 1)
    seconds, calls = tracer.totals(arm.start, arm.end)
    counters = arm.counters_at_end

    def us(name: str) -> float:
        return seconds.get(name, 0.0) * 1e6 / done

    def per_cmd(value: float) -> float:
        return value / done

    put = outcome.put
    put("runtime.codec.decode_us_per_cmd", us("runtime.codec.decode"), "us")
    put("runtime.codec.encode_us_per_cmd", us("runtime.codec.encode"), "us")
    put("runtime.codec.bytes_per_cmd", per_cmd(counters.get("codec.bytes", 0)), "bytes")
    core_metrics(
        outcome,
        seconds,
        calls,
        counters,
        done,
        arm.stats_before,
        arm.stats_after,
        arm.recorder.reads_issued,
        [node.protocol for node in arm.cluster.nodes],
    )
    put("storage.commit_us_per_cmd", us("storage.commit") + us("storage.fsync"), "us")
    put("storage.fsync_us_per_cmd", us("storage.fsync"), "us")
    put("storage.fsyncs_per_cmd", per_cmd(counters.get("storage.fsyncs", 0)), "count")
    put("storage.bytes_per_cmd", per_cmd(counters.get("storage.bytes", 0)), "bytes")
    put("runtime.node.drain_wait_us_per_cmd", us("runtime.node.drain_wait"), "us")
    put("runtime.node.writes_per_cmd", per_cmd(calls.get("runtime.node.write", 0)), "count")
    put("runtime.node.reads_per_cmd", per_cmd(calls.get("runtime.node.read", 0)), "count")
    attributed = sum(
        s for name, s in seconds.items() if name not in tracer.wait_names
    )
    put("runtime.loop.unattributed_us_per_cmd", (arm.wall - attributed) * 1e6 / done, "us")
    traced_cps = len(arm.completions) / arm.wall
    put("trace.untraced_throughput_cps", plain_cps, "1/s")
    put("trace.traced_throughput_cps", traced_cps, "1/s")
    put("trace.overhead_ratio", plain_cps / traced_cps if traced_cps else 0.0, "ratio")
    put("trace.coverage_frac", attributed / arm.wall, "ratio")
