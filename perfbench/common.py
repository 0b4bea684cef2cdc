"""Shared pieces: percentile and soak arithmetic, process memory, and
the metric names every run prints."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field

HANDLER_TYPES = (
    "Accept",
    "AckAccept",
    "Decide",
    "Forward",
    "Prepare",
    "AckPrepare",
    "RenewLease",
    "AckRenew",
    "ReleaseLease",
)

END_TO_END = (
    ("throughput_cps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("late_early_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_us_per_cmd", "us"),
)
"""Every end-to-end metric, printed by every untraced run."""

PER_LAYER = (
    ("runtime.codec.decode_us_per_cmd", "us"),
    ("runtime.codec.encode_us_per_cmd", "us"),
    ("runtime.codec.bytes_per_cmd", "bytes"),
    *((f"core.m2.handler_us_per_cmd.{t}", "us") for t in HANDLER_TYPES),
    ("core.m2.propose_us_per_cmd", "us"),
    ("core.m2.msgs_per_cmd", "count"),
    ("core.m2.cmds_per_accept", "count"),
    ("core.m2.fast_frac", "ratio"),
    ("core.m2.forward_frac", "ratio"),
    ("core.m2.acquisitions_per_kcmd", "count"),
    ("core.m2.nacks_per_kcmd", "count"),
    ("core.m2.useful_work_ratio", "ratio"),
    ("core.m2.gap_recoveries", "count"),
    ("core.m2.read_local_frac", "ratio"),
    ("core.state.instances_per_node", "count"),
    ("core.state.acks_per_node", "count"),
    ("core.state.decided_per_node", "count"),
    ("consensus.env.end_event_self_us_per_cmd", "us"),
    ("storage.commit_us_per_cmd", "us"),
    ("storage.fsync_us_per_cmd", "us"),
    ("storage.fsyncs_per_cmd", "count"),
    ("storage.bytes_per_cmd", "bytes"),
    ("runtime.node.drain_wait_us_per_cmd", "us"),
    ("runtime.node.writes_per_cmd", "count"),
    ("runtime.node.reads_per_cmd", "count"),
    ("runtime.loop.unattributed_us_per_cmd", "us"),
    ("sim.events_per_cmd", "count"),
    ("sim.handler_us_per_cmd", "us"),
    ("sim.network_us_per_cmd", "us"),
    ("sim.cpu_us_per_cmd", "us"),
    ("obs.collector_us_per_cmd", "us"),
    ("workloads.gen_us_per_cmd", "us"),
    ("sim.event_loop_self_us_per_cmd", "us"),
    ("sim.virtual_cps", "1/s"),
    ("sim.decided_in_window", "count"),
    ("trace.untraced_throughput_cps", "1/s"),
    ("trace.traced_throughput_cps", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("audit.safety_violations", "count"),
    ("audit.failed_frac", "ratio"),
    ("audit.boot_failures", "count"),
)
"""Every per-layer metric, printed by every traced run; a layer the
workload does not exercise reads 0."""


ARM_SECONDS = 6.0
"""Measured seconds per arm: long enough (about 11k commands of
``local-writes``) for throughput's fall with run length to show in
``late_early_ratio``, short enough for four arms in a 24 s run."""


def arm_count(seconds: float) -> int:
    """Arms (fresh cluster, one window each) that make up ``seconds``."""
    return max(1, round(seconds / ARM_SECONDS))


@dataclass
class Outcome:
    """What one benchmark invocation measured and audited."""

    attempted: int = 0
    failed: int = 0
    safety_violations: int = 0
    boot_failures: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    """Context printed next to the metrics (sample counts, checks)."""

    @property
    def correct(self) -> bool:
        return self.safety_violations == 0 and not self.errors

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value: object) -> None:
        self.notes[name] = value

    def merge(self, other: "Outcome") -> None:
        """Add another arm's audit to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.safety_violations += other.safety_violations
        self.errors.extend(other.errors)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def quarter_spans(times: list[float], start: float, end: float) -> tuple[float, float]:
    """``(early, late)``: the seconds the first quarter of the completed
    commands took from ``start``, and the seconds the last quarter took
    until ``end``.  ``times`` are the ascending completion times inside
    ``[start, end]``."""
    quarter = len(times) // 4
    if quarter < 1:
        return 0.0, 0.0
    return times[quarter - 1] - start, end - times[len(times) - quarter]


def late_early_ratio(spans: list[tuple[float, float]]) -> float:
    """Completion rate over the last quarter of the commands divided by
    the rate over the first quarter, pooled over several windows'
    :func:`quarter_spans` (the quarters hold equal counts, so the rate
    ratio is the ratio of the summed spans)."""
    early = sum(e for e, _ in spans)
    late = sum(la for _, la in spans)
    return early / late if early > 0 and late > 0 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
