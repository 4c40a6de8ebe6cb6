import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uichan import linalg
from uichan.bell import (Behaviour, behaviour_direct, behaviour_from_channel, bell_value,
                         chsh_functional, chsh_optimal_strategy, diagonal_moment_behaviour,
                         fourier_coeffs, sub_povm_total_bound)
from uichan.channels import ChannelFamily, channel_direct, cptp_report, moments_from_channel
from uichan.errors import (DimensionMismatchError, DomainError, InconsistentChannelError,
                           InvalidModelError)
from uichan.models import (PVMFamily, _state_defect, diagonal_fourier_lift, random_pvm_family,
                           random_tensor_model)

from oracles import anti_hermitian_choi_channel, lastcond_contraction, unitaries_from_pvm

CHSH_OPTIMUM = (2 + np.sqrt(2)) / 4


def computational_pvm(d, m):
    basis = np.eye(d)
    rows = tuple(tuple(np.outer(basis[a], basis[a]) for a in range(d)) for _ in range(m))
    return PVMFamily(d=d, m=m, n=d, projectors=rows)


def random_qubit_strategy(seed):
    alice = random_pvm_family(2, 2, 2, seed=seed)
    bob = random_pvm_family(2, 2, 2, seed=seed + 10_000)
    psi = linalg.haar_state_vector(linalg.rng_from_seed(seed + 20_000), 4)
    return alice, bob, psi


def born_table_oracle(alice, bob, psi):
    """Independent Born-rule loop, no library calls beyond numpy."""
    n, m = alice.n, alice.m
    rho = np.outer(psi, np.conj(psi))
    p = np.zeros((n, n, m, m))
    for x in range(m):
        for y in range(m):
            for a in range(n):
                for b in range(n):
                    op = np.kron(np.asarray(alice.projectors[x][a]),
                                 np.asarray(bob.projectors[y][b]))
                    p[a, b, x, y] = np.real(np.trace(rho @ op))
    return p


class TestFourierCoeffs:
    def test_n1(self):
        assert_allclose(fourier_coeffs(1), [[1.0]], atol=0)

    def test_n2_frozen(self):
        c = fourier_coeffs(2)
        assert_allclose(c, [[-0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        assert not c.flags.writeable

    def test_inverse_relation(self):
        # sum_{a'} c[a, a'] exp(2 pi i b a'/n) = delta_ab
        for n in (2, 3, 5):
            k = np.arange(1, n + 1)
            back = np.exp(2j * np.pi * np.outer(k, k) / n)
            assert np.max(np.abs(fourier_coeffs(n) @ back - np.eye(n))) <= 1e-12

    def test_byte_equal_to_entrywise_formula(self):
        # the formula entry by entry, as a scalar exp each: an exp over the whole table rounds
        # some entries differently at n = 6, and conj(exp(+...)) flips signed zeros
        for n in range(1, 9):
            c = np.array([[np.exp(-2j * np.pi * ((a * ap) % n) / n) / n
                           for ap in range(1, n + 1)] for a in range(1, n + 1)])
            assert fourier_coeffs(n).tobytes() == c.tobytes()


class TestUnitariesFromPVM:
    def test_computational_qubit(self):
        us = unitaries_from_pvm(computational_pvm(2, 1))
        assert_allclose(us[0][0], np.diag([-1.0, 1.0]), atol=1e-15)
        assert_allclose(us[0][1], np.eye(2), atol=0)

    def test_one_stack_per_family(self):
        fam = random_pvm_family(3, 2, 4, seed=5)
        us = unitaries_from_pvm(fam)
        assert isinstance(us, np.ndarray) and us.shape == (2, 4, 3, 3)

    def test_last_unitary_is_identity(self):
        for seed in range(4):
            fam = random_pvm_family(3, 2, 3, seed=seed)
            us = unitaries_from_pvm(fam)
            for x in range(2):
                assert np.max(np.abs(us[x][-1] - np.eye(3))) <= 1e-12

    def test_projector_reconstruction(self):
        # P_{a|x} = sum_{a'} c[a, a'] u^x_{a'}
        for n, d in [(2, 2), (3, 3), (3, 2)]:
            fam = random_pvm_family(d, 2, n, seed=n * 10 + d)
            c = fourier_coeffs(n)
            us = unitaries_from_pvm(fam)
            for x in range(2):
                total = np.zeros((d, d), dtype=complex)
                for a in range(n):
                    rec = sum(c[a, ap] * us[x][ap] for ap in range(n))
                    total += rec
                    assert np.max(np.abs(rec - fam.projectors[x][a])) <= 1e-12
                # completeness survives the round trip through the coefficients
                assert np.max(np.abs(total - np.eye(d))) <= 1e-12


class TestBehaviourDirect:
    def test_product_state_deterministic(self):
        fam = computational_pvm(2, 1)
        psi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)  # |0> x |1>
        b = behaviour_direct(fam, fam, psi)
        assert_allclose(b.p[:, :, 0, 0], [[0.0, 1.0], [0.0, 0.0]], atol=1e-14)

    def test_maximally_entangled_equal_bases(self):
        fam = computational_pvm(2, 1)
        psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
        b = behaviour_direct(fam, fam, psi)
        assert_allclose(b.p[:, :, 0, 0], [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)

    def test_chsh_optimal_value(self):
        alice, bob, psi = chsh_optimal_strategy()
        b = behaviour_direct(alice, bob, psi)
        assert_allclose(b.p, born_table_oracle(alice, bob, psi), atol=1e-14)
        assert abs(bell_value(b, chsh_functional()) - CHSH_OPTIMUM) <= 1e-12

    def test_density_state_accepted(self):
        alice, bob, psi = chsh_optimal_strategy()
        rho = np.outer(psi, np.conj(psi))
        b = behaviour_direct(alice, bob, rho)
        assert_allclose(b.p, born_table_oracle(alice, bob, psi), atol=1e-13)

    def test_normalization(self):
        alice, bob, psi = random_qubit_strategy(7)
        b = behaviour_direct(alice, bob, psi)
        b.check()

    def test_equals_per_cell_trace_bit_for_bit(self):
        # the stacked products and traces give what one trace per (x, y, a, b) cell gives
        for seed, (n, m, dA, dB) in enumerate([(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 1, 4),
                                               (3, 3, 3, 3), (4, 1, 2, 3), (2, 2, 4, 4)]):
            alice = random_pvm_family(dA, m, n, seed=seed)
            bob = random_pvm_family(dB, m, n, seed=seed + 50)
            rng = linalg.rng_from_seed(seed + 100)
            d = dA * dB
            state = linalg.haar_state_vector(rng, d) if seed % 2 else linalg.wishart_density(rng, d)
            rho = np.outer(state, np.conj(state)) if state.ndim == 1 else state
            p = np.zeros((n, n, m, m))
            for x, y, a, b in np.ndindex(m, m, n, n):
                op = np.kron(alice.projectors[x][a], bob.projectors[y][b])
                p[a, b, x, y] = float(np.real(np.trace(rho @ op)))
            assert behaviour_direct(alice, bob, state).p.tobytes() == p.tobytes()


class TestStateBound:
    # _state_defect 5e-10 > tol(4) = 4e-10: least eigenvalue -5e-10, trace 1 exactly
    OFF = np.diag([0.5 + 2.5e-10, 0.5 + 2.5e-10, 0.0, -5e-10])

    def test_one_bound_for_strategies_and_channel_inputs(self):
        assert _state_defect(self.OFF) > linalg.tol(4)
        alice, bob, _ = chsh_optimal_strategy()
        with pytest.raises(DomainError) as refused:
            behaviour_direct(alice, bob, self.OFF)
        assert str(refused.value) == ("strategy state: state failed: defect 5.000e-10 exceeds "
                                      "tolerance 4.000e-10")
        family = channel_direct(random_tensor_model(2, 1, 1, 1, seed=2))
        with pytest.raises(DomainError) as refused:
            family.apply_to(self.OFF, 0, 0)
        assert str(refused.value) == ("input state: state failed: defect 5.000e-10 exceeds "
                                      "tolerance 4.000e-10")
        # within tol(4) both take it
        inside = np.diag([0.5 + 1e-10, 0.5 + 1e-10, 0.0, -2e-10])
        assert _state_defect(inside) <= linalg.tol(4)
        behaviour_direct(alice, bob, inside)
        family.apply_to(inside, 0, 0)


class TestBellValue:
    def test_normalization_functional(self):
        alice, bob, psi = random_qubit_strategy(3)
        b = behaviour_direct(alice, bob, psi)
        assert abs(bell_value(b, np.full((2, 2, 2, 2), 1 / 2 ** 2)) - 1.0) <= 1e-12

    def test_classical_deterministic_bound(self):
        # oracle: enumerate all 16 deterministic strategies
        f = chsh_functional()
        best = 0.0
        for fa in itertools.product(range(2), repeat=2):
            for fb in itertools.product(range(2), repeat=2):
                p = np.zeros((2, 2, 2, 2))
                for x in range(2):
                    for y in range(2):
                        p[fa[x], fb[y], x, y] = 1.0
                best = max(best, bell_value(Behaviour(n=2, m=2, p=p), f))
        assert abs(best - 0.75) <= 1e-15

    def test_shape_mismatch(self):
        alice, bob, psi = random_qubit_strategy(4)
        b = behaviour_direct(alice, bob, psi)
        with pytest.raises(DimensionMismatchError):
            bell_value(b, np.zeros((3, 3, 2, 2)))


class TestBehaviourFromChannel:
    def test_identity_channel_concentrates_on_last_outcome(self):
        tm = random_tensor_model(2, 2, 1, 1, seed=2)
        eye = np.eye(tm.n * 1)
        ident = type(tm)(n=2, m=2, dA=1, dB=1, state=tm.state,
                         U=(eye, eye), V=(eye, eye))
        b = behaviour_from_channel(channel_direct(ident))
        expected = np.zeros((2, 2))
        expected[1, 1] = 1.0
        for x in range(2):
            for y in range(2):
                assert_allclose(b.p[:, :, x, y], expected, atol=1e-12)

    def test_round_trip_reproduces_born_rule(self):
        for seed in range(6):
            alice, bob, psi = random_qubit_strategy(seed)
            lift = diagonal_fourier_lift(alice, bob, psi)
            extracted = behaviour_from_channel(channel_direct(lift))
            assert np.max(np.abs(extracted.p - born_table_oracle(alice, bob, psi))) <= 1e-10
            assert np.max(np.abs(extracted.p.sum(axis=(0, 1)) - 1.0)) <= 1e-12

    def test_chsh_round_trip(self):
        alice, bob, psi = chsh_optimal_strategy()
        extracted = behaviour_from_channel(channel_direct(diagonal_fourier_lift(alice, bob, psi)))
        assert np.max(np.abs(extracted.p - born_table_oracle(alice, bob, psi))) <= 1e-10

    def test_three_outcome_round_trip(self):
        alice = random_pvm_family(3, 2, 3, seed=61)
        bob = random_pvm_family(3, 2, 3, seed=62)
        psi = linalg.haar_state_vector(linalg.rng_from_seed(63), 9)
        lift = diagonal_fourier_lift(alice, bob, psi)
        extracted = behaviour_from_channel(channel_direct(lift))
        assert np.max(np.abs(extracted.p - born_table_oracle(alice, bob, psi))) <= 1e-10

    def test_general_model_behaviour_is_normalized(self):
        tm = random_tensor_model(2, 2, 2, 2, seed=64)
        b = behaviour_from_channel(channel_direct(tm))
        assert np.max(np.abs(b.p.sum(axis=(0, 1)) - 1.0)) <= 1e-12
        assert b.p.min() >= -1e-9


class TestLastcondContraction:
    def test_identity_channel(self):
        eye = np.eye(2)
        rng = linalg.rng_from_seed(70)
        tm = random_tensor_model(2, 1, 1, 1, seed=70)
        ident = type(tm)(n=2, m=1, dA=1, dB=1, state=tm.state, U=(eye,), V=(eye,))
        fam = channel_direct(ident)
        for a in (1, 2):
            for b in (1, 2):
                expected = 1.0 if (a == 2 and b == 2) else 0.0
                assert abs(lastcond_contraction(fam, a, b, 1, 1) - expected) <= 1e-12

    def test_matches_diagonal_moment_behaviour(self):
        for seed in range(4):
            tm = random_tensor_model(2, 2, 2, 2, seed=seed + 80)
            fam = channel_direct(tm)
            q = diagonal_moment_behaviour(fam)
            for a in (1, 2):
                for b in (1, 2):
                    for x in (1, 2):
                        for y in (1, 2):
                            got = lastcond_contraction(fam, a, b, x, y)
                            assert abs(got - q[a - 1, b - 1, x - 1, y - 1]) <= 1e-12

    def test_batched_table_equals_per_cell_contraction(self):
        for n in (2, 3, 4):
            c = fourier_coeffs(n)
            fam = channel_direct(random_tensor_model(n, 2, 2, 1, seed=85 + n))
            tables = moments_from_channel(fam).tables
            q = diagonal_moment_behaviour(fam)
            for x, y in np.ndindex(2, 2):
                tdiag = np.einsum("jjkkrrss->jkrs", tables[x, y])
                cell = np.einsum("aj,ak,br,bs,jkrs->ab", c, np.conj(c), c, np.conj(c), tdiag)
                assert np.array_equal(q[:, :, x, y], cell)

    def test_n1_always_one(self):
        tm = random_tensor_model(1, 1, 2, 2, seed=90)
        fam = channel_direct(tm)
        assert abs(lastcond_contraction(fam, 1, 1, 1, 1) - 1.0) <= 1e-12

    def test_out_of_range(self):
        tm = random_tensor_model(2, 1, 1, 1, seed=91)
        fam = channel_direct(tm)
        with pytest.raises(DimensionMismatchError):
            lastcond_contraction(fam, 3, 1, 1, 1)


class TestSubPovmBound:
    def test_random_models_below_one(self):
        for seed in range(5):
            tm = random_tensor_model(2, 2, 2, 3, seed=seed)
            assert sub_povm_total_bound(tm) <= 1.0 + 1e-10

    def test_lifted_strategy_exactly_one(self):
        alice, bob, psi = chsh_optimal_strategy()
        lift = diagonal_fourier_lift(alice, bob, psi)
        assert abs(sub_povm_total_bound(lift) - 1.0) <= 1e-12


class TestBehaviourType:
    def test_defects_and_check(self):
        p = np.full((2, 2, 1, 1), 0.25)
        Behaviour(n=2, m=1, p=p).check()
        bad = Behaviour(n=2, m=1, p=p * 0.5)
        negativity, normalization = bad.checks()
        assert negativity.passed and normalization.defect > 0.4 and not normalization.passed
        with pytest.raises(InvalidModelError) as refused:
            bad.check()
        assert str(refused.value) == ("behaviour: normalization failed: defect 5.000e-01 exceeds "
                                      "tolerance 1.000e-10")
        # numpy's pairwise sum meets +inf and -inf in one cell: a NaN residual fails as well
        p = np.zeros(16)
        p[[0, 8]], p[[1, 9]] = 1.7e308, -1.7e308
        behaviour = Behaviour(n=4, m=1, p=p.reshape(4, 4, 1, 1))
        with np.errstate(all="ignore"), pytest.raises(InvalidModelError) as refused:
            behaviour.check()
        assert str(refused.value) == (
            "behaviour: negativity failed: defect 1.700e+308 exceeds tolerance 1.000e-09; "
            "normalization failed: defect nan exceeds tolerance 1.000e-10")

    def test_shape_error(self):
        with pytest.raises(DimensionMismatchError):
            Behaviour(n=2, m=2, p=np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            p = np.full((2, 2, 2, 2), 0.25)
            p[1, 0, 0, 1] = bad
            with pytest.raises(DomainError):
                Behaviour(n=2, m=2, p=p)


class TestFailedChecksNameTheirRecord:
    def test_imaginary_residue(self):
        channel = anti_hermitian_choi_channel(1e-3)
        assert cptp_report(channel).accepted
        with pytest.raises(InconsistentChannelError) as refused:
            behaviour_from_channel(channel)
        assert str(refused.value) == (
            "extracted behaviour: imaginary_residue failed: largest |Im p(ab|xy)| 1.250e-04 at "
            "(a, b)=(1, 2) (setting pair x=1, y=1, 1-based labels)")

    def test_nan_imaginary_residue(self):
        # entries of 1e308 overflow the extraction to a NaN residue, which must fail as well
        huge = ChannelFamily(n=2, m=1, supers=np.full((1, 1, 16, 16), 1e308))
        with np.errstate(all="ignore"), pytest.raises(InconsistentChannelError) as refused:
            behaviour_from_channel(huge)
        assert str(refused.value) == (
            "extracted behaviour: imaginary_residue failed: largest |Im p(ab|xy)| nan at "
            "(a, b)=(1, 2) (setting pair x=1, y=1, 1-based labels)")
