"""One benchmark datapoint: build a cluster, drive load, measure.

Protocols come from :func:`repro.spec.protocol_factory` (importable
from here too): every M2Paxos tunable is a field of
:class:`~repro.core.m2.config.M2PaxosConfig`, and a datapoint names
only its overrides, in :attr:`PointSpec.m2`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.metrics.collector import MetricsCollector, RunResult
from repro.sim.cluster import Cluster
from repro.sim.cpu import CpuConfig
from repro.sim.latency import GaussianLatency
from repro.sim.network import NetworkConfig
from repro.sim.rng import RngRegistry
from repro.spec import ClusterSpec, ZoneLatency, protocol_factory
from repro.storage.base import StorageConfig
from repro.workloads.client import ClientConfig, OpenLoopClients
from repro.workloads.synthetic import SyntheticConfig, SyntheticWorkload
from repro.workloads.tpcc import TpccConfig, TpccWorkload


@dataclass
class PointSpec:
    """Everything defining one datapoint."""

    protocol: str
    n_nodes: int
    workload: str = "synthetic"  # "synthetic" | "tpcc"
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    tpcc: TpccConfig = field(default_factory=TpccConfig)
    clients_per_node: int = 64
    think_time: float = 0.005
    max_inflight: int = 96
    duration: float = 0.25
    warmup: float = 0.15
    seed: int = 1
    cores: int = 16
    batching: bool = True
    latency_mean: float = 100e-6
    latency_stddev: float = 10e-6
    # "estimate" (seed default) or "codec" (real binary frame sizes).
    frame_sizes: str = "estimate"
    # Durable storage; None keeps today's in-memory-only behaviour.
    storage: Optional[StorageConfig] = None
    # Geo runs: node->zone assignment, the intra/inter-zone latency
    # shorthand (replaces the Gaussian LAN model when set), and whether
    # m2paxos runs the zone-aware migration policy.
    zones: Optional[tuple[int, ...]] = None
    zone_latency: Optional["ZoneLatency"] = None
    zone_affinity: bool = False
    # Aggregate client-session count per node, wired into both the
    # workload's session stamps and the open-loop driver (0 = off).
    sessions_per_node: int = 0
    # M2Paxos tunables (m2paxos only): M2PaxosConfig field overrides
    # over the bench-tuned ``repro.spec.BENCH_M2``, e.g.
    # ``{"max_batch": 8}``.  Empty keeps the seed-identical defaults.
    m2: Mapping[str, Any] = field(default_factory=dict)

    def scaled_for_fast_mode(self) -> "PointSpec":
        """Cheaper variant used when REPRO_BENCH_FAST is set."""
        return replace(self, duration=self.duration / 2, warmup=self.warmup / 2)


def fast_mode() -> bool:
    return bool(os.environ.get("REPRO_BENCH_FAST"))


def build_workload(spec: PointSpec, rng: RngRegistry):
    if spec.workload == "synthetic":
        synthetic = spec.synthetic
        if spec.sessions_per_node and not synthetic.sessions_per_node:
            # One knob drives both halves of the session model: the
            # workload stamps (client_id, seq) and the client driver
            # aggregates issuance over the same session count.
            synthetic = replace(
                synthetic, sessions_per_node=spec.sessions_per_node
            )
        return SyntheticWorkload(synthetic, spec.n_nodes, rng.stream("workload"))
    if spec.workload == "tpcc":
        return TpccWorkload(spec.tpcc, spec.n_nodes, rng.stream("workload"))
    raise ValueError(f"unknown workload {spec.workload!r}")


@dataclass
class RunHandle:
    """A fully built but not-yet-started sim run.

    ``repro top`` steps the cluster interval-by-interval between screen
    refreshes; :func:`run_point` drives it start-to-finish.  Either way
    the pieces (cluster, workload, collector, clients) are assembled
    once, here.
    """

    spec: PointSpec
    cluster: Cluster
    workload: object
    collector: MetricsCollector
    clients: OpenLoopClients

    def start(self) -> None:
        self.cluster.start()
        self.clients.start()

    def finish(self) -> RunResult:
        self.clients.stop()
        self.cluster.check_consistency()
        result = self.collector.result()
        result.extra["protocol_stats"] = [
            dict(node.protocol.stats) for node in self.cluster.nodes
        ]
        result.extra["obs"] = self.collector.obs
        self.cluster.close_storage()
        return result


def build_run(
    spec: PointSpec, record_spans: bool = False, costs=None
) -> RunHandle:
    """Assemble cluster + workload + collector + clients for ``spec``."""
    network = NetworkConfig(
        latency=GaussianLatency(spec.latency_mean, spec.latency_stddev),
        batching=spec.batching,
        frame_sizes=spec.frame_sizes,
    )
    m2: dict[str, Any] = {}
    if spec.workload == "tpcc" and spec.protocol == "m2paxos":
        # TPC-C declares its partitioning: every object of warehouse W
        # is homed at node ``W % N`` (DESIGN.md, "home-ownership hint").
        n = spec.n_nodes
        m2["home_hint"] = lambda name: int(name[1:].split(".", 1)[0]) % n
    if spec.zone_affinity:
        if spec.zones is None:
            raise ValueError("zone_affinity requires zones")
        from repro.core.policy import ZoneAffinityPolicy

        zones = spec.zones
        m2["policy"] = lambda: ZoneAffinityPolicy(zones)
    m2.update(spec.m2)
    cluster_spec = ClusterSpec(
        protocol=spec.protocol,
        n_nodes=spec.n_nodes,
        seed=spec.seed,
        network=network,
        cpu=CpuConfig(cores=spec.cores),
        storage=spec.storage,
        zones=spec.zones,
        zone_latency=spec.zone_latency,
    )
    cluster = Cluster(
        cluster_spec.sim_cluster_config(),
        protocol_factory(spec.protocol, costs=costs, **m2),
    )
    workload_rng = RngRegistry(spec.seed * 7919 + 13)
    workload = build_workload(spec, workload_rng)
    collector = MetricsCollector(cluster, warmup=spec.warmup, record_spans=record_spans)
    clients = OpenLoopClients(
        cluster,
        workload,
        ClientConfig(
            clients_per_node=spec.clients_per_node,
            think_time=spec.think_time,
            max_inflight_per_node=spec.max_inflight,
            sessions_per_node=spec.sessions_per_node,
        ),
        collector=collector,
    )
    return RunHandle(
        spec=spec,
        cluster=cluster,
        workload=workload,
        collector=collector,
        clients=clients,
    )


def run_point(
    spec: PointSpec,
    record_spans: bool = False,
    costs=None,
    telemetry_interval: Optional[float] = None,
) -> RunResult:
    """Simulate one datapoint and return its measurements.

    With ``record_spans`` the run also keeps the full span log; the
    attached observability collector rides along in
    ``result.extra["obs"]`` for the trace exporters.  ``costs``
    optionally replaces the protocol's CPU-cost profile (see
    :func:`protocol_factory`).  ``telemetry_interval`` additionally
    attaches the live-telemetry sampler at that cadence; the
    ``Telemetry`` handle rides along in ``result.extra["telemetry"]``.
    Sampler callbacks only read, so decision logs are unchanged.
    """
    if fast_mode():
        spec = spec.scaled_for_fast_mode()
    handle = build_run(spec, record_spans=record_spans, costs=costs)
    cluster, collector = handle.cluster, handle.collector
    telemetry = None
    if telemetry_interval is not None:
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(cluster, interval=telemetry_interval)
        telemetry.start()
    handle.start()
    cluster.run_for(spec.warmup)
    collector.begin_window()
    cluster.run_for(spec.duration)
    collector.end_window()
    if telemetry is not None:
        telemetry.stop()
    result = handle.finish()
    if telemetry is not None:
        result.extra["telemetry"] = telemetry
    return result


def saturated_spec(spec: PointSpec) -> PointSpec:
    """An offered load well above any protocol's capacity, so measured
    throughput equals capacity (the paper's 'maximum attainable
    throughput' methodology: load to saturation, report the plateau).

    The warm-up is stretched so the in-flight pipeline reaches steady
    state before the measurement window opens -- at saturation the
    queueing delay is a large multiple of the unloaded latency.
    """
    return replace(
        spec,
        clients_per_node=64,
        think_time=0.002,
        max_inflight=96,
        warmup=max(spec.warmup, 0.5),
        duration=max(spec.duration, 0.3),
    )
