"""The perf microbench layer: schema, regression gates, CLI plumbing.

These run micro-scaled configs (fractions of the CI smoke) -- the point
is that every bench executes, the datapoint schema holds, and the
regression assertions mean what they say; the real numbers come from
``repro perf`` runs.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.perf import (
    BENCH_SCHEMA,
    PerfConfig,
    check_regressions,
    run_perf,
    write_datapoint,
)

MICRO = PerfConfig(
    sim_events=5_000,
    codec_messages=120,
    codec_rounds=5,
    bench_duration=0.06,
    bench_warmup=0.12,
    runtime_commands=45,
    saturation_depths=(1, 8),
    saturation_commands=45,
    telemetry_commands=45,
    telemetry_repeats=1,
    smoke=True,
)


def test_sim_and_codec_datapoint_schema():
    datapoint = run_perf(MICRO, only=["sim", "codec"])
    assert datapoint["schema"] == BENCH_SCHEMA
    assert datapoint["smoke"] is True
    sim = datapoint["results"]["sim"]
    assert sim["events"] == MICRO.sim_events
    assert sim["events_per_sec"] > 0
    codec = datapoint["results"]["codec"]
    for key in (
        "json_roundtrips_per_sec",
        "binary_roundtrips_per_sec",
        "speedup",
        "json_bytes_per_msg",
        "binary_bytes_per_msg",
        "size_ratio",
    ):
        assert codec[key] > 0
    # The binary frames must actually be smaller; rate speedup is
    # asserted by the CI smoke, not this micro run.
    assert codec["size_ratio"] > 1.0


def test_m2_batching_micro_still_wins():
    datapoint = run_perf(MICRO, only=["m2_batching"])
    batching = datapoint["results"]["m2_batching"]
    assert batching["batched"]["commands_per_sec"] > 0
    assert batching["unbatched"]["commands_per_sec"] > 0
    assert batching["speedup"] > 1.0
    assert batching["message_reduction"] > 1.0
    assert check_regressions(datapoint) == []


def test_check_regressions_trips_on_slow_batching():
    datapoint = {
        "results": {
            "m2_batching": {"speedup": 0.97},
            "codec": {"speedup": 2.0},
        }
    }
    problems = check_regressions(datapoint)
    assert len(problems) == 1
    assert "batched" in problems[0]


def test_check_regressions_trips_on_slow_codec():
    datapoint = {"results": {"codec": {"speedup": 0.5}}}
    assert len(check_regressions(datapoint)) == 1


def test_unknown_bench_rejected():
    with pytest.raises(ValueError, match="unknown bench"):
        run_perf(MICRO, only=["warp_drive"])


def test_write_datapoint_roundtrips(tmp_path):
    datapoint = run_perf(MICRO, only=["sim"])
    path = write_datapoint(datapoint, str(tmp_path / "BENCH_test.json"))
    with open(path) as fh:
        assert json.load(fh) == datapoint


def test_cli_perf_smoke(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    # The CLI's --smoke is CI-sized; shrink further for the test suite.
    import repro.bench.perf as perf_mod

    monkeypatch.setattr(
        PerfConfig, "scaled_for_smoke", lambda self: MICRO, raising=True
    )
    out = tmp_path / "BENCH_cli.json"
    code = main(["perf", "sim", "codec", "--smoke", "--out", str(out)])
    assert code == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "sim events/sec" in stdout
    assert perf_mod.BENCH_SCHEMA in out.read_text()

def test_storage_fsync_bench_schema_and_floor():
    datapoint = run_perf(MICRO, only=["storage_fsync"])
    storage = datapoint["results"]["storage_fsync"]
    assert storage["records"] == MICRO.storage_records
    assert storage["group_size"] > 1
    assert storage["per_record_fsync_records_per_sec"] > 0
    assert storage["batched_fsync_records_per_sec"] > 0
    # Group commit amortises one fsync over the whole group; even on a
    # tmpfs-backed CI disk the batched arm should clear the 3x CI floor.
    assert storage["speedup"] >= 3.0
    assert check_regressions(datapoint) == []


def test_check_regressions_trips_on_slow_fsync_batching():
    datapoint = {"results": {"storage_fsync": {"speedup": 1.2}}}
    problems = check_regressions(datapoint)
    assert len(problems) == 1
    assert "fsync" in problems[0]


def test_runtime_saturation_schema():
    datapoint = run_perf(MICRO, only=["runtime_saturation"])
    saturation = datapoint["results"]["runtime_saturation"]
    assert set(saturation["depths"]) == {
        str(d) for d in MICRO.saturation_depths
    }
    for entry in saturation["depths"].values():
        assert entry["commands_per_sec"] > 0
        assert entry["wall_seconds"] > 0
        assert entry["peak_inflight"] >= 1
    assert saturation["serial_depth"] == min(MICRO.saturation_depths)
    assert str(saturation["best_depth"]) in saturation["depths"]
    assert saturation["pipelined_speedup"] > 0
    # Micro scale is too noisy to assert the CI floor here; the smoke
    # run enforces it.  uvloop was not requested, so the flag is False.
    assert saturation["uvloop"] is False


def test_check_regressions_trips_on_slow_pipelining():
    datapoint = {
        "results": {
            "runtime_saturation": {
                "pipelined_speedup": 1.1,
                "best_depth": 16,
            }
        }
    }
    problems = check_regressions(datapoint)
    assert len(problems) == 1
    assert "pipelined" in problems[0]


def test_telemetry_overhead_schema():
    datapoint = run_perf(MICRO, only=["telemetry_overhead"])
    telemetry = datapoint["results"]["telemetry_overhead"]
    assert telemetry["commands"] == 45
    assert telemetry["off"]["commands_per_sec"] > 0
    on = telemetry["on"]
    assert on["commands_per_sec"] > 0
    # The on arm actually ran the stack: wall-clock frames may be few at
    # micro scale, but the per-node endpoints must have been up.
    assert on["endpoints"] == 3
    assert telemetry["overhead_ratio"] == pytest.approx(
        telemetry["off"]["commands_per_sec"] / on["commands_per_sec"]
    )
    # Micro scale is too noisy to assert the 1.05 CI floor here; the
    # smoke run enforces it.


def test_check_regressions_trips_on_costly_telemetry():
    datapoint = {"results": {"telemetry_overhead": {"overhead_ratio": 1.2}}}
    problems = check_regressions(datapoint)
    assert len(problems) == 1
    assert "telemetry" in problems[0]


def test_headline_rows_follow_the_table():
    from repro.bench.perf import HEADLINES, headline_rows

    results = {
        "runtime_saturation": {
            "depths": {"1": {"commands_per_sec": 10.0}, "16": {"commands_per_sec": 40.0}},
            "pipelined_speedup": 4.0,
        },
        "codec": {"speedup": 2.0, "binary_bytes_per_msg": 50.0},
        "unlisted": {"anything": 1},
    }
    assert headline_rows(results) == [
        {"bench": "runtime depth=1 cmds/sec", "value": 10.0},
        {"bench": "runtime depth=16 cmds/sec", "value": 40.0},
        {"bench": "runtime pipelined speedup", "value": 4.0},
        {"bench": "codec binary/json speedup", "value": 2.0},
        {"bench": "codec bytes/msg (bin)", "value": 50.0},
    ]
    # Every registered bench reports at least one headline.
    from repro.bench.perf import BENCHES

    assert set(HEADLINES) == set(BENCHES)


def test_config_hash_stable_and_config_sensitive():
    from repro.bench.perf import config_hash

    assert config_hash(MICRO) == config_hash(MICRO)
    smaller = PerfConfig(sim_events=MICRO.sim_events - 1, smoke=True)
    assert config_hash(MICRO) != config_hash(smaller)


def test_datapoint_carries_config_hash():
    datapoint = run_perf(MICRO, only=["sim"])
    assert len(datapoint["config_hash"]) == 16


def test_write_datapoint_dedupes_reruns(tmp_path):
    from dataclasses import replace

    path = str(tmp_path / "BENCH_full.json")
    first = run_perf(MICRO, only=["sim"])
    first["tag"] = "old"
    write_datapoint(first, path)
    rerun = run_perf(MICRO, only=["sim"])
    rerun["tag"] = "new"
    write_datapoint(rerun, path)
    with open(path) as fh:
        history = json.load(fh)
    # Same (config, seed, bench set): the rerun replaces, not appends.
    assert isinstance(history, list)
    assert len(history) == 1
    assert history[0]["tag"] == "new"

    other_seed = run_perf(replace(MICRO, seed=7), only=["sim"])
    write_datapoint(other_seed, path)
    with open(path) as fh:
        history = json.load(fh)
    assert len(history) == 2
    assert {d["seed"] for d in history} == {MICRO.seed, 7}
