"""Golden decision digests: pinned sha256 digests of seeded runs.

Every digest hashes each node's per-object delivery order, for every
incarnation (the chaos runner's ``_fingerprint``).  A change to any of
them means the protocol, simulator or workload decided something
different for the same seed.  A refactor must leave them unchanged; a
change that alters decisions on purpose re-pins them (run this file as
a script to print the current values) and says why in CHANGES.md.

Each pinned run must decide something: a run that decides nothing has
the same digest for every seed and pins nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import PointSpec, build_run
from repro.chaos import by_name, run_scenario
from repro.chaos.runner import _fingerprint
from repro.chaos.scenarios import SMOKE
from repro.storage.base import StorageConfig
from repro.workloads.synthetic import SyntheticConfig

SEEDS = (1, 7, 42)

# Sim runs through ``build_run``, keyed by arm name: PointSpec overrides.
ARMS = {
    "default": {},
    "batched": {"m2": {"max_batch": 8, "batch_wait": 1e-3}},
    "leased": {
        "synthetic": SyntheticConfig(read_fraction=0.5),
        "m2": {"lease_duration": 0.1},
    },
    "durable": {"storage": StorageConfig(kind="mem", fsync_wait=1e-3)},
}

GOLDEN = {
    "default/1": "2bae157613653697797390a67f86d564283aaae960401c4f2d19fb5a78b647a0",
    "default/7": "ccbb5b61ad7afae4d45207e83e28f3ab592c83e916a6d77ead3fb25481eb2871",
    "default/42": "83a48dde8ee6c7dd28ba1c4bc65970b448705c64a7b3147c70bc6865b0781223",
    "batched/1": "e15c44b766b6a0c32c29b30b1a43be5ff829b9097a065d8af15545403767ca4c",
    "batched/7": "2a7b00caac93f9bf2d08dcaa7be05f85842c30b043f67baf1a2e8e96a7840b26",
    "batched/42": "84767d44e7c40b5815e9e64e1e1210e27f635630678e590c7fe5a038bfc8d569",
    "leased/1": "a3fa8db749a1bf33f07d0db184b7c19586e698cab52323e533b68548bb73abff",
    "leased/7": "15de9b3148b24282249e90e215ad7dfd18d1946dcae99ebdc6fa58c6b8c65790",
    "leased/42": "2ae70c4f9439322c1448ad187b731be7fb8e8d6e541e61372b325cca0e7a5f45",
    "durable/1": "2aee7634c562fb15741696830d9afb02c22dca106aa0fb2a1711fb23a5ac0639",
    "durable/7": "b2d28159651ef88ab152f4668d86c809c6ff328f3373732d986d990727597224",
    "durable/42": "d2f9905b2c19a730fdc3225c778517e9c1b9b88d88b6c2c56ca80f7d3fc26c5d",
    "chaos/crash-restart-durable": "ea94dbc4c58e36ca64a6f674a356b6ee34ff221866e356344e38ab6d648bc1ce",
    "chaos/partition-minority": "06fc1bc2e84b05858737801f8cd4c6b59bc2a26f33234aa9f69652b917fb561f",
    "chaos/drop-dup": "11e436e3d634d49fd0edb18cd277836a261965a37dc859f08d75cfcf99eda377",
}


def sim_digest(arm: str, seed: int) -> tuple[str, int]:
    """``(digest, commands decided)`` of one short 3-node sim run."""
    spec = PointSpec(
        protocol="m2paxos",
        n_nodes=3,
        clients_per_node=8,
        duration=0.2,
        warmup=0.1,
        seed=seed,
        **ARMS[arm],
    )
    handle = build_run(spec)
    cluster, collector = handle.cluster, handle.collector
    handle.start()
    cluster.run_for(spec.warmup)
    collector.begin_window()
    cluster.run_for(spec.duration)
    collector.end_window()
    nodes = cluster.nodes
    logs = {n.node_id: n.delivery_history + [n.delivered] for n in nodes}
    handle.finish()
    return _fingerprint(logs), max(len(n.delivered) for n in nodes)


def chaos_digest(name: str) -> tuple[str, int]:
    result = run_scenario(by_name(name))
    assert result.ok, result.report.violations
    return result.fingerprint, result.report.delivered_union


def all_digests() -> dict[str, str]:
    digests = {}
    for arm in ARMS:
        for seed in SEEDS:
            digests[f"{arm}/{seed}"] = sim_digest(arm, seed)[0]
    for name in SMOKE:
        digests[f"chaos/{name}"] = chaos_digest(name)[0]
    return digests


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_sim_digest(arm, seed):
    digest, decided = sim_digest(arm, seed)
    assert decided > 0
    assert digest == GOLDEN[f"{arm}/{seed}"]


@pytest.mark.parametrize("name", SMOKE)
def test_chaos_digest(name):
    digest, decided = chaos_digest(name)
    assert decided > 0
    assert digest == GOLDEN[f"chaos/{name}"]


def test_digests_independent_of_hash_seed():
    """Set iteration order varies with PYTHONHASHSEED; decisions must not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = [
        subprocess.Popen(
            [sys.executable, __file__],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("0", "1")
    ]
    outputs = [json.loads(run.communicate()[0]) for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0] == outputs[1] == GOLDEN

if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=4))
