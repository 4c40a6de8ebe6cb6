import numpy as np
import pytest
from numpy.testing import assert_allclose

from uichan import linalg
from uichan.bell import chsh_functional
from uichan.errors import DimensionMismatchError, PipelineInconsistencyError
from uichan.models import random_pvm_family
from uichan.seesaw import (SeesawConfig, SeesawResult, _bell_operator, _update_party,
                           lift_and_verify, optimize_bell)

CHSH_OPTIMUM = (2 + np.sqrt(2)) / 4


def fixed_outcome_functional(m):
    f = np.zeros((2, 2, m, m))
    f[0, 0, :, :] = 1.0 / m ** 2
    return f


class TestOptimizeBell:
    def test_fixed_outcome_reaches_one_quickly(self):
        cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=1, seed=1)
        res = optimize_bell(fixed_outcome_functional(2), cfg)
        assert abs(res.value - 1.0) <= 1e-12
        assert len(res.trace) <= 2

    def test_chsh_reaches_quantum_optimum(self):
        cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=5, seed=11)
        res = optimize_bell(chsh_functional(), cfg)
        assert abs(res.value - CHSH_OPTIMUM) <= 1e-4
        assert res.exact_updates

    def test_classical_dims_stay_below_chsh_bound(self):
        cfg = SeesawConfig(dA=1, dB=1, n=2, m=2, restarts=8, seed=5)
        res = optimize_bell(chsh_functional(), cfg)
        assert res.value <= 0.75 + 1e-9

    def test_trace_monotone(self):
        cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=3, seed=7)
        res = optimize_bell(chsh_functional(), cfg)
        trace = res.trace
        assert all(trace[i + 1] >= trace[i] - 1e-12 for i in range(len(trace) - 1))

    def test_deterministic_bits(self):
        cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=4, seed=13)
        r1 = optimize_bell(chsh_functional(), cfg)
        r2 = optimize_bell(chsh_functional(), cfg)
        assert r1.value == r2.value
        assert r1.restart_index == r2.restart_index
        assert np.array_equal(r1.state, r2.state)
        for x in range(2):
            for a in range(2):
                assert np.array_equal(r1.alice.projectors[x][a], r2.alice.projectors[x][a])

    def test_deterministic_arrays_three_outcomes(self):
        # the heuristic exchange path, complex Fourier phases in the lift
        f = np.random.default_rng(4).standard_normal((3, 3, 2, 2))
        cfg = SeesawConfig(dA=2, dB=3, n=3, m=2, restarts=3, seed=21, max_iters=40)
        r1, r2 = optimize_bell(f, cfg), optimize_bell(f, cfg)
        assert not r1.exact_updates
        assert r1.trace == r2.trace and r1.value == r2.value
        for a, b in [(r1.alice.projectors, r2.alice.projectors), (r1.bob.projectors,
                     r2.bob.projectors), (r1.state, r2.state), (r1.lifted.U, r2.lifted.U),
                     (r1.lifted.V, r2.lifted.V)]:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert r1.alice.projectors.shape == (2, 3, 2, 2) and r1.lifted.V.shape == (2, 9, 9)

    def test_bell_operator_equals_kron_sum_bit_for_bit(self):
        f = np.random.default_rng(3).standard_normal((3, 3, 2, 2))
        f[f < 0.3] = 0.0
        P = random_pvm_family(2, 2, 3, seed=1).projectors
        Q = random_pvm_family(3, 2, 3, seed=2).projectors
        B = np.zeros((6, 6), dtype=complex)
        for x, y, a, b in np.ndindex(2, 2, 3, 3):
            if f[a, b, x, y] != 0.0:
                B += f[a, b, x, y] * np.kron(P[x][a], Q[y][b])
        assert _bell_operator(f, P, Q).tobytes() == B.tobytes()

    def test_lifted_model_is_valid(self):
        cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=2, seed=17)
        res = optimize_bell(chsh_functional(), cfg)
        res.lifted.check()
        assert res.lifted.n == 2 and res.lifted.dA == 2

    def test_shape_mismatch(self):
        cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=1, seed=0)
        with pytest.raises(DimensionMismatchError):
            optimize_bell(np.zeros((3, 3, 2, 2)), cfg)

    def test_config_validation(self):
        with pytest.raises(DimensionMismatchError):
            SeesawConfig(rel_tol=0.0)
        with pytest.raises(DimensionMismatchError):
            SeesawConfig(restarts=0)


class TestUpdateOptimality:
    def test_two_outcome_update_beats_random_measurements(self):
        # brute force: no random rank-1 qubit PVM scores higher than the update
        rng = linalg.rng_from_seed(23)
        R1 = np.array(linalg.wishart_density(rng, 2)) * 2 - np.eye(2) * 0.3
        R2 = np.array(linalg.wishart_density(rng, 2)) * 1.5 - np.eye(2) * 0.2
        R1, R2 = (R1 + R1.conj().T) / 2, (R2 + R2.conj().T) / 2
        updated = _update_party([[R1, R2]], [[np.eye(2), np.zeros((2, 2))]], d=2, n=2)
        best = np.real(np.trace(updated[0][0] @ R1) + np.trace(updated[0][1] @ R2))

        vecs = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        projs = np.einsum("ni,nj->nij", vecs, np.conj(vecs))
        comps = np.eye(2) - projs
        scores = np.real(np.einsum("nij,ji->n", projs, R1) + np.einsum("nij,ji->n", comps, R2))
        # include the two trivial splits as candidates
        trivial = max(np.real(np.trace(R1)), np.real(np.trace(R2)))
        assert best >= max(float(scores.max()), trivial) - 1e-9

    def test_zero_ties_go_to_second_outcome(self):
        # score difference with a strictly zero eigenvalue: that direction
        # must land in the second projector
        delta = np.diag([1.0, 0.0])
        updated = _update_party([[delta, np.zeros((2, 2))]],
                                [[np.eye(2), np.zeros((2, 2))]], d=2, n=2)
        assert_allclose(updated[0][0], np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(updated[0][1], np.diag([0.0, 1.0]), atol=1e-14)


class TestThreeOutcomeHeuristic:
    def test_runs_and_is_flagged(self):
        f = np.zeros((3, 3, 1, 1))
        f[0, 0, 0, 0] = 1.0
        cfg = SeesawConfig(dA=3, dB=3, n=3, m=1, restarts=2, seed=3, max_iters=100)
        res = optimize_bell(f, cfg)
        assert not res.exact_updates
        assert res.value >= 1.0 - 1e-8  # reward concentrated on one outcome pair
        trace = res.trace
        assert all(trace[i + 1] >= trace[i] - 1e-12 for i in range(len(trace) - 1))


class TestLiftAndVerify:
    def test_trivial_functional_matches(self):
        cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=1, seed=19)
        f = fixed_outcome_functional(2)
        res = optimize_bell(f, cfg)
        ver = lift_and_verify(res, f)
        assert ver.deviation <= 1e-10
        assert ver.ok

    def test_chsh_matches(self):
        cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=5, seed=29)
        f = chsh_functional()
        res = optimize_bell(f, cfg)
        ver = lift_and_verify(res, f)
        assert ver.deviation <= 1e-8

    def test_random_functionals_match(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            f = rng.standard_normal((2, 2, 2, 2)) * 0.25
            cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=3, seed=trial)
            res = optimize_bell(f, cfg)
            assert lift_and_verify(res, f).deviation <= 1e-8

    def test_inconsistent_result_raises(self):
        cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=1, seed=37)
        f = chsh_functional()
        res = optimize_bell(f, cfg)
        doctored = SeesawResult(value=res.value + 0.1, alice=res.alice, bob=res.bob,
                                state=res.state, trace=res.trace, lifted=res.lifted,
                                exact_updates=res.exact_updates,
                                restart_index=res.restart_index, config=res.config)
        with pytest.raises(PipelineInconsistencyError):
            lift_and_verify(doctored, f)
