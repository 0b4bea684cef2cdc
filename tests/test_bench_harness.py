"""Unit tests for the benchmark harness and reporting helpers."""

from dataclasses import fields

import pytest

from repro.bench.harness import (
    PointSpec,
    build_run,
    build_workload,
    protocol_factory,
    run_point,
    saturated_spec,
)
from repro.bench.perf import SATURATION_M2
from repro.bench.report import format_table, series_by
from repro.chaos import Scenario
from repro.consensus.base import ProtocolCosts
from repro.core.m2.config import LEASE_RENEW_FRACTION, RETRY_BACKOFF, M2PaxosConfig
from repro.sim.rng import RngRegistry
from repro.spec import PROTOCOLS, ConfigError
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.tpcc import TpccWorkload


class TestProtocolFactory:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_every_protocol_constructs(self, name):
        factory = protocol_factory(name)
        protocol = factory(0, 5)
        assert protocol is not None

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            protocol_factory("zab")

    def test_home_hint_threaded_to_m2paxos(self):
        hint = lambda name: 1
        protocol = protocol_factory("m2paxos", home_hint=hint)(0, 3)
        assert protocol.config.home_hint is hint

    def test_unknown_m2_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="max_btach"):
            protocol_factory("m2paxos", max_btach=8)

    @pytest.mark.parametrize("name", [p for p in PROTOCOLS if p != "m2paxos"])
    def test_m2_override_rejected_for_other_protocols(self, name):
        with pytest.raises(ConfigError, match="max_batch"):
            protocol_factory(name, max_batch=8)

    @pytest.mark.parametrize("leased", [False, True])
    def test_benchmark_configs_unchanged(self, leased):
        """The configs the repository benchmark's runtime workloads
        build, pinned field for field."""
        m2 = dict(SATURATION_M2)
        if leased:  # the read-mostly workload
            m2.update(lease_duration=0.5, lease_margin=0.005)
        config = protocol_factory("m2paxos", **m2)(0, 3).config
        assert vars(config) == {
            "forward_timeout": 1.0,
            "gap_check_period": 0.25,
            "gap_timeout": 0.5,
            "supervise_timeout": 30.0,
            "round_timeout": 10.0,
            "learn_resend_timeout": 0.25,
            "learn_resend_attempts": 12,
            "max_batch": 32,
            "batch_wait": 0.005,
            "batch_adaptive": True,
            "ack_to_all": False,
            "max_forward_hops": 1,
            "gap_recovery": True,
            "home_hint": None,
            "policy": None,
            "quorum": None,
            "lease_duration": 0.5 if leased else 0.0,
            "lease_margin": 0.005 if leased else 0.002,
            "session_cap": 65536,
            "nearest_accept": False,
            "quorum_rtt": None,
        }
        assert (RETRY_BACKOFF, LEASE_RENEW_FRACTION) == (0.002, 0.34)

    def test_costs_replace_the_cost_profile(self):
        costs = ProtocolCosts(base_cost=1e-3)
        assert protocol_factory("epaxos", costs=costs)(0, 3).costs is costs


class TestOneDeclarationPerKnob:
    """M2Paxos tunables are declared once, in M2PaxosConfig."""

    def test_point_spec_and_scenario_carry_no_m2_knob(self):
        knobs = {f.name for f in fields(M2PaxosConfig)}
        for cls in (PointSpec, Scenario):
            assert not knobs & {f.name for f in fields(cls)}, cls

    def test_point_spec_m2_reaches_every_node(self):
        spec = PointSpec(
            protocol="m2paxos", n_nodes=3, m2={"max_batch": 8, "batch_wait": 1e-3}
        )
        for node in build_run(spec).cluster.nodes:
            assert node.protocol.config.max_batch == 8
            assert node.protocol.config.batch_wait == 1e-3

    def test_point_spec_m2_rejected_for_other_protocols(self):
        spec = PointSpec(protocol="epaxos", n_nodes=3, m2={"max_batch": 8})
        with pytest.raises(ConfigError, match="max_batch"):
            build_run(spec)

    def test_tpcc_home_hint_only_for_m2paxos(self):
        for protocol in PROTOCOLS:
            build_run(PointSpec(protocol=protocol, n_nodes=3, workload="tpcc"))


class TestWorkloadBuilder:
    def test_synthetic(self):
        spec = PointSpec(protocol="m2paxos", n_nodes=3)
        workload = build_workload(spec, RngRegistry(1))
        assert isinstance(workload, SyntheticWorkload)

    def test_tpcc(self):
        spec = PointSpec(protocol="m2paxos", n_nodes=3, workload="tpcc")
        workload = build_workload(spec, RngRegistry(1))
        assert isinstance(workload, TpccWorkload)

    def test_unknown_workload_rejected(self):
        spec = PointSpec(protocol="m2paxos", n_nodes=3, workload="ycsb")
        with pytest.raises(ValueError):
            build_workload(spec, RngRegistry(1))


class TestRunPoint:
    def test_small_point_produces_metrics(self):
        spec = PointSpec(
            protocol="m2paxos",
            n_nodes=3,
            clients_per_node=4,
            think_time=0.01,
            max_inflight=8,
            warmup=0.05,
            duration=0.1,
        )
        result = run_point(spec)
        assert result.throughput > 0
        assert result.latency is not None
        assert result.messages_sent > 0
        assert "protocol_stats" in result.extra

    def test_saturated_spec_stretches_warmup(self):
        spec = PointSpec(protocol="m2paxos", n_nodes=3, warmup=0.1)
        stretched = saturated_spec(spec)
        assert stretched.warmup >= 0.5
        assert stretched.clients_per_node == 64

    def test_deterministic_given_seed(self):
        spec = PointSpec(
            protocol="multipaxos",
            n_nodes=3,
            clients_per_node=4,
            think_time=0.01,
            warmup=0.05,
            duration=0.1,
            seed=7,
        )
        a = run_point(spec)
        b = run_point(spec)
        assert a.throughput == b.throughput
        assert a.messages_sent == b.messages_sent


class TestReport:
    def test_format_table_aligns_columns(self):
        rows = [
            {"proto": "m2paxos", "tp": 1234.5},
            {"proto": "mp", "tp": 9.25},
        ]
        out = format_table(rows, ["proto", "tp"])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "1,234.5" in out
        assert "9.250" in out

    def test_series_by_groups_and_sorts(self):
        rows = [
            {"p": "a", "x": 2, "y": 20},
            {"p": "a", "x": 1, "y": 10},
            {"p": "b", "x": 1, "y": 5},
        ]
        series = series_by(rows, "p", "x", "y")
        assert series["a"] == [(1, 10), (2, 20)]
        assert series["b"] == [(1, 5)]
