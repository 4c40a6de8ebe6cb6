import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uichan import linalg, models
from uichan.errors import DimensionMismatchError, DomainError, InvalidModelError
from uichan.models import (CommutingModel, PVMFamily, TensorModel, _fourier_unitaries,
                           diagonal_fourier_lift, embed_tensor_as_commuting, random_model,
                           random_pvm_family, random_tensor_model, validate_commuting)


#: finite entries whose products overflow to inf - inf, so defects come out NaN
OVERFLOWING = np.array([[1e200, 1e200], [1e200, -1e200]])


def computational_pvm(d, m):
    basis = np.eye(d)
    rows = tuple(tuple(np.outer(basis[a], basis[a]) for a in range(d)) for _ in range(m))
    return PVMFamily(d=d, m=m, n=d, projectors=rows)


class TestPVMFamily:
    def test_valid(self):
        fam = computational_pvm(2, 2)
        projector, completeness = fam.checks()
        assert (projector.name, completeness.name) == ("projector", "completeness")
        assert projector.defect == 0.0 and completeness.defect == 0.0
        fam.check()

    def test_random_families_valid(self):
        for seed in range(5):
            fam = random_pvm_family(3, 2, 3, seed=seed)
            fam.check()
        # degenerate case d < n: zero projectors are allowed
        random_pvm_family(2, 2, 3, seed=1).check()

    def test_shape_mismatch_is_hard_error(self):
        with pytest.raises(DimensionMismatchError):
            PVMFamily(d=2, m=1, n=2, projectors=((np.eye(2),),))

    @pytest.mark.parametrize("projectors", [
        ((np.eye(2), np.zeros((2, 2))),),                                    # 1 setting, m = 2
        ((np.eye(2), np.zeros((2, 2))),) * 3,                                # 3 settings
        ((np.eye(2), np.zeros((2, 2))), (np.eye(2),)),                       # ragged outcomes
        ((np.eye(3), np.zeros((3, 3))),) * 2,                                # d = 3, not 2
        ((np.eye(2), np.zeros((2, 2))), (np.eye(2), np.zeros((2, 3)))),     # one member 2 x 3
        np.zeros((2, 2, 2)),                                                 # no outcome axis
    ])
    def test_wrong_setting_count_or_member_shape(self, projectors):
        with pytest.raises(DimensionMismatchError):
            PVMFamily(d=2, m=2, n=2, projectors=projectors)

    def test_numerical_defect_is_soft(self):
        bad = PVMFamily(d=2, m=1, n=2,
                        projectors=((np.diag([1.0, 0.1]), np.diag([0.0, 0.9])),))
        assert bad.checks()[0].defect > 0.05
        with pytest.raises(InvalidModelError):
            bad.check()

    def test_nan_defect_fails_check(self):
        fam = PVMFamily(d=2, m=1, n=2, projectors=((np.eye(2), OVERFLOWING),))
        with np.errstate(all="ignore"):
            assert np.isnan(fam.checks()[0].defect) and not fam.checks()[0].passed
            with pytest.raises(InvalidModelError):
                fam.check()


class TestModels:
    def test_random_tensor_model_deterministic(self):
        a = random_tensor_model(2, 2, 2, 3, seed=5)
        b = random_tensor_model(2, 2, 2, 3, seed=5)
        assert np.array_equal(a.state, b.state)
        for x in range(2):
            assert np.array_equal(a.U[x], b.U[x])
            assert np.array_equal(a.V[x], b.V[x])

    def test_random_tensor_model_valid(self):
        for state in ("vector", "density"):
            tm = random_tensor_model(2, 2, 2, 2, state=state, seed=3)
            tm.check()
            assert tm.state_is_vector == (state == "vector")
            assert abs(np.trace(tm.density()) - 1.0) < 1e-12

    def test_block_conventions(self):
        tm = random_tensor_model(2, 1, 2, 3, seed=8)
        ub = tm.u_blocks(0)
        assert_allclose(ub[1, 0], tm.U[0][2:4, 0:2], atol=0)
        vb = tm.v_blocks(0)
        assert_allclose(vb[1, 0], tm.V[0][1::2, 0::2], atol=0)

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatchError):
            TensorModel(n=2, m=1, dA=2, dB=2, state=np.zeros(3), U=(np.eye(4),), V=(np.eye(4),))
        with pytest.raises(DimensionMismatchError):
            CommutingModel(n=2, m=1, d=2, state=np.zeros(2), U=(np.eye(3),), V=(np.eye(4),))

    def test_check_rejects_nonunitary(self):
        tm = random_tensor_model(2, 1, 2, 2, seed=2)
        U = np.array(tm.U[0])
        U[0, 0] += 0.1
        broken = TensorModel(n=2, m=1, dA=2, dB=2, state=tm.state, U=(U,), V=tm.V)
        with pytest.raises(InvalidModelError):
            broken.check()

    def test_nan_defect_fails_check(self):
        # the NaN sits in the last matrix, where the builtin max() would drop it
        tm = TensorModel(n=2, m=1, dA=1, dB=1, state=np.ones(1), U=(np.eye(2),), V=(OVERFLOWING,))
        cm = CommutingModel(n=2, m=1, d=1, state=np.ones(1), U=(np.eye(2),), V=(OVERFLOWING,))
        with np.errstate(all="ignore"):
            for model in (tm, cm):
                assert np.isnan(model.checks()[0].defect) and not model.checks()[0].passed
                with pytest.raises(InvalidModelError):
                    model.check()
            # d = 1: the scalar entries commute, so only the unitarity check fails
            assert [c.passed for c in cm.checks()] == [False, True, True]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        M = np.eye(4, dtype=complex)
        M[1, 2] = bad
        state = np.full(4, 0.5)
        with pytest.raises(DomainError):
            PVMFamily(d=4, m=1, n=1, projectors=((M,),))
        with pytest.raises(DomainError):
            TensorModel(n=2, m=1, dA=2, dB=2, state=state, U=(M,), V=(np.eye(4),))
        with pytest.raises(DomainError):
            CommutingModel(n=2, m=1, d=2, state=state[:2], U=(np.eye(4),), V=(M,))
        with pytest.raises(DomainError):
            TensorModel(n=2, m=1, dA=2, dB=2, state=M, U=(np.eye(4),), V=(np.eye(4),))


class TestFamilyArrays:
    def test_read_only_arrays_of_the_stated_shapes(self):
        tm = random_tensor_model(2, 3, 2, 3, seed=11)
        cm = embed_tensor_as_commuting(tm)
        fam = random_pvm_family(3, 2, 4, seed=12)
        for arr, shape in [(tm.U, (3, 4, 4)), (tm.V, (3, 6, 6)), (cm.U, (3, 12, 12)),
                           (cm.V, (3, 12, 12)), (fam.projectors, (2, 4, 3, 3))]:
            assert isinstance(arr, np.ndarray) and arr.dtype == complex and arr.shape == shape
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0
        assert len(tm.U) == 3 and tm.V[2].shape == (6, 6)
        assert fam.projectors[1][3].shape == (3, 3)
        assert tm.u_blocks().shape == (3, 2, 2, 2, 2) and tm.v_blocks().shape == (3, 2, 2, 3, 3)
        for x in range(3):
            assert np.array_equal(tm.u_blocks()[x], tm.u_blocks(x))
            assert np.array_equal(tm.v_blocks()[x], tm.v_blocks(x))
            assert np.array_equal(cm.v_blocks()[x], cm.v_blocks(x))

    def test_constructor_copies_caller_arrays(self):
        U = np.array([np.eye(4), np.eye(4)], dtype=complex)
        tm = TensorModel(n=2, m=2, dA=2, dB=2, state=np.full(4, 0.5), U=U, V=U)
        U[0, 0, 0] = 5.0
        assert tm.U[0, 0, 0] == 1.0 and tm.V[0, 0, 0] == 1.0

    @pytest.mark.parametrize("U, V", [
        ((np.eye(4),), (np.eye(4), np.eye(4))),                 # one U for m = 2
        ((np.eye(4),) * 3, (np.eye(4),) * 2),                   # three U
        ((np.eye(4),) * 2, (np.eye(4), np.eye(6))),             # one V of the wrong dim
        ((np.eye(4), np.ones((4, 3))), (np.eye(4),) * 2),       # a non-square member
        (np.eye(4), (np.eye(4),) * 2),                          # a matrix, not a stack
    ])
    def test_wrong_setting_count_or_member_shape(self, U, V):
        with pytest.raises(DimensionMismatchError):
            TensorModel(n=2, m=2, dA=2, dB=2, state=np.full(4, 0.5), U=U, V=V)
        with pytest.raises(DimensionMismatchError):
            CommutingModel(n=2, m=2, d=2, state=np.full(2, 0.5 ** 0.5), U=U, V=V)

    def test_unitarity_defect_covers_u_and_v_not_their_sum(self):
        # with dA = dB, U and V have one shape, so an elementwise U + V would go unnoticed
        tm = random_tensor_model(2, 2, 2, 2, seed=13)
        U = np.array(tm.U)
        U[1, 0, 0] += 0.01
        broken = TensorModel(n=2, m=2, dA=2, dB=2, state=tm.state, U=U, V=tm.V)
        per_matrix = [linalg.unitarity_defect(M) for M in (*broken.U, *broken.V)]
        assert broken.checks()[0].defect == max(per_matrix) > 0.005
        assert broken.checks()[0].where.endswith("at stored U (setting x=2, 1-based labels)")
        # the embedding inherits the records: U x I is unitary exactly when U is
        cm = embed_tensor_as_commuting(broken)
        assert cm.checks()[:2] == broken.checks() and not cm.checks()[0].passed


def entrywise_commutator_reference(model):
    """Worst ||[u_ij, v_kl]||_F and ||[u_ij^dag, v_kl]||_F, one entry pair at a time."""
    worst = 0.0
    for x in range(model.m):
        ub = model.u_blocks(x)
        for blocks in (ub, np.conj(np.swapaxes(ub, -1, -2))):
            for y in range(model.m):
                vb = model.v_blocks(y)
                for i, j, k, l in np.ndindex(model.n, model.n, model.n, model.n):
                    a, b = blocks[i, j], vb[k, l]
                    worst = max(worst, float(np.linalg.norm(a @ b - b @ a)))
    return worst


def measured_like_embedding(cm):
    """The embedding's report, checked against a fresh model on its arrays, which is measured.

    The embedding takes its commutator 0 from its construction; the fresh
    model, like any model read from a file, measures it.
    """
    fresh = CommutingModel(n=cm.n, m=cm.m, d=cm.d, state=cm.state, U=cm.U, V=cm.V)
    rep, measured = validate_commuting(cm), validate_commuting(fresh)
    assert rep.defect == 0.0 and measured.defect == 0.0 and rep.where is None
    assert (measured.name, measured.tolerance, measured.passed) == (rep.name, rep.tolerance, True)
    return rep


class TestValidateCommuting:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_entrywise_reference(self, n, d):
        rng = linalg.rng_from_seed(100 * n + d)
        cm = CommutingModel(n=n, m=2, d=d, state=linalg.haar_state_vector(rng, d),
                            U=tuple(linalg.haar_unitary_from(rng, n * d) for _ in range(2)),
                            V=tuple(linalg.haar_unitary_from(rng, n * d) for _ in range(2)))
        got = validate_commuting(cm).defect
        ref = entrywise_commutator_reference(cm)
        assert abs(got - ref) <= 1e-12 * ref
        if d > 1:
            assert ref > 0.05

    def test_embedded_acceptance_grid_commutes_exactly(self):
        grid = [(n, m, dA, dB) for n in (2, 3) for m in (1, 2) for dA in (2, 3) for dB in (2, 3)]
        for i, (n, m, dA, dB) in enumerate(grid):
            state = "vector" if i % 2 == 0 else "density"
            tm = random_tensor_model(n, m, dA, dB, state=state, seed=700 + i)
            assert measured_like_embedding(embed_tensor_as_commuting(tm)).defect == 0.0

    def test_report_cached_per_instance(self):
        cm = random_model("commuting", 2, 2, 2, 2, seed=3)
        rep = validate_commuting(cm)
        assert validate_commuting(cm) is rep
        assert validate_commuting(random_model("commuting", 2, 2, 2, 2, seed=3)) is not rep

    def test_unitarity_measured_once_per_matrix_in_verify(self, tmp_path, monkeypatch):
        from uichan.cli import main
        path, report = tmp_path / "cm.json", tmp_path / "report.json"
        m = 3
        assert main(["gen", "--kind", "commuting", "--n", "2", "--m", str(m), "--dA", "2",
                     "--dB", "3", "--seed", "5", "-o", str(path)]) == 0
        calls = []
        defect = linalg.unitarity_defect
        monkeypatch.setattr(linalg, "unitarity_defect", lambda M: calls.append(1) or defect(M))
        assert main(["verify", "-i", str(path), "-o", str(report)]) == 0
        assert len(calls) == 2 * m  # each stored U[x] and V[y], once

    def test_defects_cached_and_returned_fresh(self):
        cm = random_model("commuting", 2, 2, 2, 3, state="density", seed=4)
        first = cm.checks()
        with pytest.raises(dataclasses.FrozenInstanceError):  # a record cannot reach the cache
            first[0].defect = 1.0
        assert cm.checks() == first and first[0].defect < 1e-12
        assert cm.checks()[-1] is validate_commuting(cm)
        assert [c.name for c in first] == ["unitarity", "state", "commutation"]

    def test_checks_read_commutation_through_validate_commuting(self, monkeypatch):
        # a tracer that wraps validate_commuting must see the one measurement verify makes
        cm = random_model("commuting", 2, 2, 2, 2, seed=3)
        calls = []
        original = models.validate_commuting
        monkeypatch.setattr(models, "validate_commuting", lambda m: calls.append(m) or original(m))
        assert cm.checks()[-1] is original(cm) and calls == [cm]

    def test_identity_model(self):
        cm = CommutingModel(n=2, m=1, d=3, state=np.eye(3) / 3,
                            U=(np.eye(6),), V=(np.eye(6),))
        rep = validate_commuting(cm)
        assert rep.defect == 0.0
        assert cm.checks()[0].defect == 0.0
        assert rep.passed

    def test_embedded_tensor_commutes(self):
        tm = random_tensor_model(2, 2, 2, 3, seed=4)
        rep = measured_like_embedding(embed_tensor_as_commuting(tm))
        assert rep.defect <= 1e-12
        assert rep.passed
        # the stored zero does not excuse overflowing entries: their unitarity defect is NaN
        tm = TensorModel(n=2, m=1, dA=1, dB=1, state=np.ones(1), U=(np.eye(2),), V=(OVERFLOWING,))
        with np.errstate(all="ignore"):
            cm = embed_tensor_as_commuting(tm)
            rep = measured_like_embedding(cm)
            unitarity = cm.checks()[0]
        assert rep.passed and np.isnan(unitarity.defect) and unitarity.passed is False

    def test_unrelated_unitaries_rejected(self):
        rng = linalg.rng_from_seed(17)
        d = 4
        cm = CommutingModel(n=2, m=1, d=d, state=linalg.haar_state_vector(rng, d),
                            U=(linalg.haar_unitary_from(rng, 2 * d),),
                            V=(linalg.haar_unitary_from(rng, 2 * d),))
        rep = validate_commuting(cm)
        assert rep.defect > 0.05
        assert not rep.passed

    def test_check_rejects_haar_v_and_so_do_both_routes(self):
        from uichan.channels import channel_direct, moment_table
        cm = random_model("commuting", 2, 2, 2, 2, seed=19)
        cm.check()
        haar = linalg.haar_unitary_from(linalg.rng_from_seed(19), 2 * cm.d)
        bad = CommutingModel(n=2, m=2, d=cm.d, state=cm.state, U=cm.U, V=(haar, cm.V[1]))
        assert bad.checks()[0].passed  # unitary: only commutation fails
        for call in (CommutingModel.check, channel_direct, moment_table):
            with pytest.raises(InvalidModelError) as rejected:
                call(bad)
            assert str(rejected.value) == (
                "CommutingModel: commutation failed: worst ||[u_ij, v_kl]||_F 2.010e+00 at "
                "(i, j)=(1, 1), (k, l)=(2, 1) (setting pair x=2, y=1, 1-based labels)")


class TestEmbedding:
    def test_scalar_locals_embed_trivially(self):
        tm = random_tensor_model(2, 1, 1, 1, seed=6)
        cm = embed_tensor_as_commuting(tm)
        assert cm.d == 1
        assert_allclose(cm.U[0], tm.U[0], atol=0)
        # V changes layout (ancilla-minor -> ancilla-major) but keeps entries
        assert_allclose(cm.v_blocks(0), tm.v_blocks(0), atol=0)

    def test_swap_lift_commutes(self):
        swap = linalg.swap_matrix(2, 2)
        rng = linalg.rng_from_seed(9)
        tm = TensorModel(n=2, m=1, dA=2, dB=2, state=linalg.wishart_density(rng, 4),
                         U=(swap,), V=(swap,))
        rep = measured_like_embedding(embed_tensor_as_commuting(tm))
        assert rep.defect <= 1e-12

    def test_embedded_blocks(self):
        tm = random_tensor_model(2, 1, 2, 3, seed=10)
        cm = embed_tensor_as_commuting(tm)
        assert cm.d == 6
        ub, vb = tm.u_blocks(0), tm.v_blocks(0)
        for i in range(2):
            for j in range(2):
                assert_allclose(cm.u_blocks(0)[i, j], np.kron(ub[i, j], np.eye(3)), atol=0)
                assert_allclose(cm.v_blocks(0)[i, j], np.kron(np.eye(2), vb[i, j]), atol=0)
        assert np.array_equal(cm.state, tm.state)

    def test_equals_per_setting_products_bit_for_bit(self):
        # one product over all settings gives what one product per setting gives, signed zeros too
        for seed, (n, m, dA, dB) in enumerate([(2, 2, 2, 3), (3, 3, 2, 2), (1, 2, 3, 1),
                                               (4, 1, 1, 2), (2, 2, 3, 3)]):
            tm = random_tensor_model(n, m, dA, dB, seed=seed)
            cm = embed_tensor_as_commuting(tm)
            d = dA * dB
            for x in range(m):
                assert cm.U[x].tobytes() == np.kron(tm.U[x], np.eye(dB, dtype=complex)).tobytes()
                lifted = np.einsum("klab,cd->klcadb", tm.v_blocks(x), np.eye(dA))
                V = lifted.reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d)
                assert cm.V[x].tobytes() == V.tobytes()


class TestDiagonalFourierLift:
    def test_degenerate_pvm(self):
        # projectors {0, I}: every block is the identity
        fam = PVMFamily(d=2, m=1, n=2, projectors=((np.zeros((2, 2)), np.eye(2)),))
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        tm = diagonal_fourier_lift(fam, fam, state)
        assert_allclose(tm.U[0], np.eye(4), atol=1e-15)
        assert_allclose(tm.V[0], np.eye(4), atol=1e-15)

    def test_computational_qubit_blocks(self):
        fam = computational_pvm(2, 1)
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        tm = diagonal_fourier_lift(fam, fam, state)
        ub = tm.u_blocks(0)
        assert_allclose(ub[0, 0], np.diag([-1.0, 1.0]), atol=1e-15)  # -P1 + P2
        assert_allclose(ub[1, 1], np.eye(2), atol=0)
        assert_allclose(ub[0, 1], np.zeros((2, 2)), atol=0)
        vb = tm.v_blocks(0)
        assert_allclose(vb[0, 0], np.diag([-1.0, 1.0]), atol=1e-15)

    def test_blocks_unitary_for_random_pvms(self):
        for seed in range(4):
            alice = random_pvm_family(3, 2, 3, seed=seed)
            bob = random_pvm_family(2, 2, 3, seed=seed + 50)
            rng = linalg.rng_from_seed(seed)
            tm = diagonal_fourier_lift(alice, bob, linalg.haar_state_vector(rng, 6))
            tm.check()
            for x in range(2):
                ub = tm.u_blocks(x)
                for a in range(3):
                    assert np.linalg.norm(ub[a, a] @ ub[a, a].conj().T - np.eye(3)) <= 1e-12

    def test_blocks_are_per_outcome_sums_bit_for_bit(self):
        # u_{a'} summed outcome by outcome, as one loop per setting sums it; zeros off the diagonal
        for seed, (d, m, n) in enumerate([(2, 2, 2), (3, 3, 3), (2, 2, 3), (4, 1, 4)]):
            fam = random_pvm_family(d, m, n, seed=seed)
            state = linalg.haar_state_vector(linalg.rng_from_seed(seed), d * d)
            tm = diagonal_fourier_lift(fam, fam, state)
            for x in range(m):
                ub, vb = tm.u_blocks(x), tm.v_blocks(x)
                for ap in range(1, n + 1):
                    u = np.zeros((d, d), dtype=complex)
                    for a in range(1, n + 1):
                        u += np.exp(2j * np.pi * ((a * ap) % n) / n) * fam.projectors[x][a - 1]
                    assert ub[ap - 1, ap - 1].tobytes() == u.tobytes()
                    assert vb[ap - 1, ap - 1].tobytes() == u.tobytes()
                off = ~np.eye(n, dtype=bool)
                assert not np.any(ub[off]) and not np.any(vb[off])

    def test_fourier_unitaries_byte_equal_to_entrywise_formula(self):
        # phases as one scalar exp per entry (an exp over the whole table moves bits at n = 6)
        for n in range(1, 9):
            fam = random_pvm_family(3, 2, n, seed=n)
            us = _fourier_unitaries(fam.projectors, n)
            for x, ap in np.ndindex(2, n):
                u = np.zeros((3, 3), dtype=complex)
                for a in range(n):
                    u += np.exp(2j * np.pi * (((a + 1) * (ap + 1)) % n) / n) * fam.projectors[x, a]
                assert us[x, ap].tobytes() == u.tobytes()

    def test_mismatched_families(self):
        with pytest.raises(DimensionMismatchError):
            diagonal_fourier_lift(computational_pvm(2, 1), computational_pvm(3, 1), np.zeros(6))

    def test_non_pvm_rejected(self):
        # half-identities sum to I but are not projectors: u_1 = -I/2 + I/2 = 0
        half = PVMFamily(d=2, m=1, n=2, projectors=((np.eye(2) / 2, np.eye(2) / 2),))
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        for alice, bob in ((half, computational_pvm(2, 1)), (computational_pvm(2, 1), half)):
            with pytest.raises(InvalidModelError) as rejected:
                diagonal_fourier_lift(alice, bob, state)
            assert str(rejected.value) == (
                "Fourier combination of the projectors (not a PVM): unitarity failed: worst "
                "||u^dag u - I||_F 1.414e+00 at u_a' (a'=1, setting x=1, 1-based labels)")


class TestRandomModel:
    def test_kinds(self):
        tm = random_model("tensor", 2, 2, 2, 2, seed=1)
        assert isinstance(tm, TensorModel)
        cm = random_model("commuting", 2, 2, 2, 2, seed=1)
        assert isinstance(cm, CommutingModel)
        assert validate_commuting(cm).passed

    def test_unknown_kind(self):
        with pytest.raises(DimensionMismatchError):
            random_model("nope", 2, 2, 2, 2)


class TestOneFailurePath:
    def test_worst_is_located_only_when_asked(self):
        # a NaN counts as worst; the search for its first index runs when the text is read
        searched = []
        values = np.array([[1.0, np.nan], [np.nan, 2.0]])
        worst, locate = models._first_worst(values, lambda w, i, j: searched.append((i, j)) or
                                            f"{w} at ({i + 1}, {j + 1})")
        assert np.isnan(worst) and searched == []
        check = models.Check("probe", worst, 1.0, locate)
        assert not check.passed and searched == []
        assert check.where == "nan at (1, 2)" and searched == [(0, 1)]
        assert np.isnan(models._first_worst(values, least=True)[0])  # the least, too
        assert models._first_worst([3.0, -1.0], least=True) == (-1.0, None)

    def test_failure_text_and_require(self):
        located = models.Check("located", 2.0, 1.0, lambda: "worst entry at (1, 1)")
        bare = models.Check("bare", np.nan, 1e-10)
        assert located.failure == "located failed: worst entry at (1, 1)"
        assert bare.failure == "bare failed: defect nan exceeds tolerance 1.000e-10"
        models._require("thing", [models.Check("fine", 0.0, 1.0), models.Check("at", 1.0, 1.0)])
        with pytest.raises(DomainError) as refused:
            models._require("thing", [models.Check("fine", 0.0, 1.0), located, bare], DomainError)
        assert str(refused.value) == ("thing: located failed: worst entry at (1, 1); "
                                      "bare failed: defect nan exceeds tolerance 1.000e-10")

    def test_nan_defects_fail_a_commuting_model_and_both_are_named(self):
        # entries near 1e200 overflow U^dag U and every entry product to inf - inf = NaN
        rng = linalg.rng_from_seed(1)
        U, V = (1e200 * linalg.haar_unitary_from(rng, 4) for _ in range(2))
        cm = CommutingModel(n=2, m=1, d=2, state=np.array([1.0, 0.0]), U=(U,), V=(V,))
        with pytest.raises(InvalidModelError) as rejected:
            cm.check()
        assert str(rejected.value) == (
            "CommutingModel: unitarity failed: worst ||M^dag M - I||_F nan at stored U "
            "(setting x=1, 1-based labels); commutation failed: worst ||[u_ij, v_kl]||_F nan at "
            "(i, j)=(1, 1), (k, l)=(1, 1) (setting pair x=1, y=1, 1-based labels)")

    def test_nan_fourier_defect_fails_the_lift(self):
        # a 1e200 projector entry overflows u^dag u to NaN: the lift refuses, naming u_a'
        huge = PVMFamily(d=2, m=1, n=2, projectors=((1e200 * np.eye(2), np.eye(2)),))
        with pytest.raises(InvalidModelError) as rejected:
            diagonal_fourier_lift(huge, computational_pvm(2, 1), np.array([1.0, 0, 0, 0]))
        assert str(rejected.value) == (
            "Fourier combination of the projectors (not a PVM): unitarity failed: worst "
            "||u^dag u - I||_F nan at u_a' (a'=1, setting x=1, 1-based labels)")
