"""Consensus protocols: shared sans-I/O interface and the paper's baselines.

- :mod:`repro.consensus.base` -- the :class:`Protocol` / :class:`Env`
  contract every implementation follows, quorum helpers, CPU-cost hooks.
- :mod:`repro.consensus.commands` -- commands with object access sets
  (``c.LS`` in the paper) and the conflict relation.
- :mod:`repro.consensus.multipaxos` -- single-leader Multi-Paxos.
- :mod:`repro.consensus.genpaxos` -- Generalized Paxos (fast rounds with
  fast quorums, leader recovery on collision).
- :mod:`repro.consensus.epaxos` -- EPaxos (dependency tracking, fast and
  slow paths, SCC-based execution order).
"""

from repro.consensus.base import (
    Env,
    Protocol,
    ProtocolCosts,
    classic_quorum_size,
    fast_quorum_size,
    epaxos_fast_quorum_size,
)
from repro.consensus.commands import Command, conflict
from repro.consensus.paxos import ClassicPaxos

__all__ = [
    "Env",
    "Protocol",
    "ProtocolCosts",
    "classic_quorum_size",
    "fast_quorum_size",
    "epaxos_fast_quorum_size",
    "Command",
    "conflict",
    "ClassicPaxos",
]
