"""The vectorized engine's decode-chain state: one per batch version.

Each instance's chain state (members, deadline coefficients, kernel
coefficients, ``minD``/``A`` step tables) is built at the first chain arm
on its ``batch_version`` and cached on that version's ``BatchProfile``;
every later arm re-arms it at the instance's current grant count.  These
tests drive the many-chain regime (eight co-located models decoding long
outputs) and check the two invariants the re-arm rests on.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.runner import RunSpec, execute_spec
from repro.sim.engine import VectorizedEngine


@pytest.fixture
def marathon(monkeypatch):
    """Runs decode-marathon on the vectorized engine, recording every
    state build (by instance and batch version) and every armed chain."""
    builds: Counter = Counter()
    arms: list = []
    real_build = VectorizedEngine._build_state
    real_arm = VectorizedEngine._arm

    def build(self, inst):
        builds[inst.inst_id, inst.batch_version] += 1
        return real_build(self, inst)

    def arm(self, states, *args):
        arms.append([(st.k, len(st.minD), len(st.A)) for st in states])
        return real_arm(self, states, *args)

    monkeypatch.setattr(VectorizedEngine, "_build_state", build)
    monkeypatch.setattr(VectorizedEngine, "_arm", arm)
    spec = RunSpec(
        system="slinfer",
        scenario="decode-marathon",
        n_models=8,
        cluster="cpu2-gpu2",
        duration=120.0,
        engine="vectorized",
    )
    execute_spec(spec)
    assert builds and arms, "the run never chained, so the checks prove nothing"
    return builds, arms


def test_state_is_built_at_most_once_per_batch_version(marathon):
    builds, arms = marathon
    assert max(builds.values()) == 1, [key for key, n in builds.items() if n > 1]
    # Re-arms reuse the cached states: far fewer builds than armed states.
    assert sum(builds.values()) < sum(len(states) for states in arms)


def test_every_armed_state_has_its_step_tables_filled_past_k(marathon):
    # Selection reads minD[k] and A[k] of every state in the chain, not
    # only of the pending one, so each must hold entry k when armed.
    _, arms = marathon
    assert any(len(states) > 1 for states in arms), "no multi-instance chain armed"
    for states in arms:
        for k, n_min, n_law in states:
            assert n_min > k and n_law > k, (k, n_min, n_law)
