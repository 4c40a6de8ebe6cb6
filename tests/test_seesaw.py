import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uichan import linalg
from uichan.bell import chsh_functional
from uichan.errors import DimensionMismatchError, PipelineInconsistencyError
from uichan.models import random_pvm_family
from uichan.seesaw import (SeesawConfig, _alice_scores, _bell_operator, _bob_scores,
                           _positive_eigenspace_split, _update_party, lift_and_verify,
                           optimize_bell)

from oracles import alice_scores_by_kron, bob_scores_by_kron, local_bound

CHSH_OPTIMUM = (2 + np.sqrt(2)) / 4


def i3322():
    """I3322 (Collins and Gisin 2004), the table the benchmark's see-saw workload builds.

    I = -2 pA(1|1) - pA(1|2) - pB(1|1) + sum_xy c[x][y] p(11|xy) with
    c = [[1, 1, 1], [1, 1, -1], [1, -1, 0]]; qubits reach 0.25.
    """
    f = np.zeros((2, 2, 3, 3))
    f[0, :, :, 0] += np.array([-2.0, -1.0, 0.0])
    f[:, 0, 0, :] += np.array([-1.0, 0.0, 0.0])
    f[0, 0] += np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 0.0]])
    return f


def cglmp3():
    """CGLMP for three outcomes: P(A1=B1) + P(B1=A2+1) + P(A2=B2) + P(B2=A1) minus
    P(A1=B1-1) + P(B1=A2) + P(A2=B2-1) + P(B2=A1-1), outcomes mod 3.

    Qutrits reach 1 + sqrt(11/3) = 2.914854 with a non-maximally entangled state.
    """
    a, b = np.indices((3, 3))
    f = np.zeros((3, 3, 2, 2))
    f[:, :, 0, 0] = (a == b) * 1.0 - (a == (b - 1) % 3)
    f[:, :, 1, 0] = (b == (a + 1) % 3) * 1.0 - (b == a)
    f[:, :, 1, 1] = (a == b) * 1.0 - (a == (b - 1) % 3)
    f[:, :, 0, 1] = (b == a) * 1.0 - (b == (a - 1) % 3)
    return f


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
        # a NaN rel_tol would never stop a restart
        for bad in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(DimensionMismatchError):
                SeesawConfig(rel_tol=bad)
        with pytest.raises(DimensionMismatchError):
            SeesawConfig(restarts=0)


class TestHardFunctionals:
    """Functionals whose optimum a broken update would miss; default restarts and iterations."""

    def test_i3322_qubits(self):
        f = i3322()
        assert local_bound(f) == 0.0
        for seed in range(4):
            res = optimize_bell(f, SeesawConfig(dA=2, dB=2, n=2, m=3, seed=seed))
            assert 0.25 - 1e-8 <= res.value <= 0.2508754
            assert len(res.restarts) == 20
            assert {stop for _, _, stop in res.restarts} <= {"converged", "max_iters"}

    def test_cglmp3_qutrits(self):
        f = cglmp3()
        assert local_bound(f) == 2.0
        for seed in range(3):
            res = optimize_bell(f, SeesawConfig(dA=3, dB=3, n=3, m=2, seed=seed))
            assert not res.exact_updates
            assert abs(res.value - (1 + np.sqrt(11 / 3))) <= 1e-8
            assert {stop for _, _, stop in res.restarts} <= {"converged", "max_iters"}

    @staticmethod
    def shortfalls(cases):
        """(case, trial, value - local bound) for each random functional the see-saw ends below."""
        rng = np.random.default_rng(2024)
        out = []
        for n, m, d in cases:
            for trial in range(4):
                f = rng.standard_normal((n, n, m, m))
                res = optimize_bell(f, SeesawConfig(dA=d, dB=d, n=n, m=m, restarts=5, seed=trial))
                if res.value < local_bound(f) - 1e-9:
                    out.append(((n, m, d), trial, res.value - local_bound(f)))
        return out

    def test_random_functionals_reach_local_bound(self):
        # two outcomes: every measurement update is the exact subproblem optimum
        assert self.shortfalls([(2, 2, 2), (2, 3, 2), (2, 2, 3)]) == []

    @pytest.mark.xfail(strict=True, reason="the three-outcome pairwise exchange can stall below "
                                           "the local bound (trial 2 at d = 2 ends 0.31 short)")
    def test_three_outcome_heuristic_reaches_local_bound(self):
        assert self.shortfalls([(3, 2, 2), (3, 2, 3)]) == []


class TestStackedSweep:
    """The stacked score steps and update repeat the per-matrix forms bit for bit."""

    @pytest.mark.parametrize("dA, dB", [(1, 3), (2, 3), (3, 2), (3, 3), (4, 5), (5, 4), (8, 8)])
    def test_scores_equal_kron_partial_trace_bit_for_bit(self, dA, dB):
        rng = np.random.default_rng(10 * dA + dB)
        for n in (2, 3):
            for m in (1, 2, 3):
                f = rng.standard_normal((n, n, m, m))
                f[f < -0.5] = 0.0
                P = random_pvm_family(dA, m, n, rng=rng).projectors
                Q = random_pvm_family(dB, m, n, rng=rng).projectors
                psi = linalg.haar_state_vector(rng, dA * dB)
                rho = np.outer(psi, np.conj(psi))
                assert (_alice_scores(f, Q, rho, dA, dB).tobytes()
                        == alice_scores_by_kron(f, Q, rho, dA, dB).tobytes())
                assert (_bob_scores(f, P, rho, dA, dB).tobytes()
                        == bob_scores_by_kron(f, P, rho, dA, dB).tobytes())

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_two_outcome_update_equals_eigenspace_split(self, d):
        rng = np.random.default_rng(d)
        for m in (1, 2, 3):
            G = rng.standard_normal((m, 2, d, d)) + 1j * rng.standard_normal((m, 2, d, d))
            scores = (G + np.conj(G).swapaxes(-1, -2)) / 2
            P = random_pvm_family(d, m, 2, rng=rng).projectors
            out = _update_party(scores, P, d, 2)
            for x in range(m):
                pos, rest = _positive_eigenspace_split(scores[x, 0] - scores[x, 1], np.eye(d))
                assert out[x, 0].tobytes() == pos.tobytes()
                assert out[x, 1].tobytes() == rest.tobytes()

    def test_stop_reasons(self):
        f = i3322()
        one = optimize_bell(f, SeesawConfig(n=2, m=3, restarts=3, max_iters=1, seed=2))
        assert one.restarts == tuple((v, 1, "max_iters") for v, _, _ in one.restarts)
        res = optimize_bell(f, SeesawConfig(n=2, m=3, restarts=3, seed=2))
        assert res.restarts[res.restart_index][:2] == (res.value, len(res.trace))
        assert all(stop == "converged" and sweeps < 500 for _, sweeps, stop in res.restarts)


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
        doctored = dataclasses.replace(res, value=res.value + 0.1)
        with pytest.raises(PipelineInconsistencyError):
            lift_and_verify(doctored, f)
