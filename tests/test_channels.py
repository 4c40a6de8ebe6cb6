import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from uichan import channels, linalg
from uichan.channels import (ChannelFamily, MomentTable, channel_direct,
                             channel_from_moments, choi, cptp_report, moment_table,
                             moments_from_channel)
from uichan.errors import DimensionMismatchError, DomainError, InvalidModelError
from uichan.models import (CommutingModel, TensorModel, embed_tensor_as_commuting,
                           random_model, random_tensor_model)

from oracles import coupling_unitary_by_kron, permute_registers, unitaries_from_pvm

#: the acceptance grid: (n, m, dA, dB)
GRID = [(n, m, dA, dB) for n in (2, 3) for m in (1, 2) for dA in (2, 3) for dB in (2, 3)]
#: the 89 shapes of the payload comparison set: n = 1-3 and m = 1-3 with nine (dA, dB),
#: plus n = 4 at m <= 2 with dA dB <= 4
PAYLOAD_SHAPES = [(n, m, dA, dB) for n in (1, 2, 3) for m in (1, 2, 3) for dA, dB in
                  ((1, 1), (2, 3), (3, 2), (1, 4), (4, 1), (2, 2), (4, 4), (3, 3), (2, 4))]
PAYLOAD_SHAPES += [(4, m, dA, dB) for m in (1, 2) for dA, dB in ((1, 1), (1, 4), (4, 1), (2, 2))]


def identity_model(n, dA, dB, seed=0):
    rng = linalg.rng_from_seed(seed)
    return TensorModel(n=n, m=1, dA=dA, dB=dB, state=linalg.wishart_density(rng, dA * dB),
                       U=(np.eye(n * dA),), V=(np.eye(dB * n),))


def swap_model(n, seed=0):
    rng = linalg.rng_from_seed(seed)
    swap = linalg.swap_matrix(n, n)
    rho_target = linalg.wishart_density(rng, n * n)
    return TensorModel(n=n, m=1, dA=n, dB=n, state=rho_target, U=(swap,), V=(swap,)), rho_target


def native_commuting_model(n, m, d, seed):
    """Haar-random U, V on (ancilla, H): W is defined even though the entries do not commute."""
    rng = linalg.rng_from_seed(seed)
    return CommutingModel(n=n, m=m, d=d, state=linalg.haar_state_vector(rng, d),
                          U=tuple(linalg.haar_unitary_from(rng, n * d) for _ in range(m)),
                          V=tuple(linalg.haar_unitary_from(rng, n * d) for _ in range(m)))


def family_max_diff(a: ChannelFamily, b: ChannelFamily) -> float:
    return float(np.max(np.abs(a.supers - b.supers)))


def delta_tensor(n):
    eye = np.eye(n)
    return np.einsum("ij,lk,pr,ts->ijlkprts", eye, eye, eye, eye)


class TestChannelDirect:
    def test_identity_couplings_give_identity_channel(self):
        for n, dA, dB in [(2, 2, 2), (3, 2, 3)]:
            fam = channel_direct(identity_model(n, dA, dB))
            assert_allclose(fam.supers[0][0], np.eye(n ** 4), atol=1e-12)

    def test_swap_constant_channel(self):
        # swap couplings a fixed target onto the ancilla pair: L(rho) = rho_target
        for n in (2, 3):
            model, rho_target = swap_model(n, seed=n)
            fam = channel_direct(model)
            rng = linalg.rng_from_seed(100 + n)
            for _ in range(10):
                rho_in = linalg.wishart_density(rng, n * n)
                assert np.max(np.abs(fam.apply_to(rho_in, 0, 0) - rho_target)) <= 1e-12

    def test_matches_moment_route(self):
        tm = random_tensor_model(2, 2, 2, 2, seed=20)
        assert family_max_diff(channel_direct(tm), channel_from_moments(moment_table(tm))) <= 1e-10

    def test_matches_per_unit_sandwich_oracle(self):
        # oracle: feed each matrix unit through the sandwich one by one
        tm = random_tensor_model(2, 1, 2, 3, seed=21)
        fam = channel_direct(tm)
        n, dA, dB = tm.n, tm.dA, tm.dB
        W = linalg.kron(tm.U[0], tm.V[0])
        sigma = tm.density()
        for row in range(n * n):
            for col in range(n * n):
                E = np.zeros((n * n, n * n), dtype=complex)
                E[row, col] = 1.0
                X = permute_registers(linalg.kron(E, sigma), (n, n, dA, dB), (0, 2, 3, 1))
                out = linalg.partial_trace(W.conj().T @ X @ W, (n, dA, dB, n), [0, 3])
                assert_allclose(fam.supers[0][0][:, row * n * n + col],
                                out.reshape(-1), atol=1e-13)

    def test_commuting_direct(self):
        cm = random_model("commuting", 2, 2, 2, 2, seed=22)
        fam = channel_direct(cm)
        assert cptp_report(fam).accepted

    def test_invalid_model_rejected(self):
        tm = random_tensor_model(2, 1, 2, 2, seed=23)
        U = np.array(tm.U[0])
        U[0, 0] += 0.2
        broken = TensorModel(n=2, m=1, dA=2, dB=2, state=tm.state, U=(U,), V=tm.V)
        with pytest.raises(InvalidModelError):
            channel_direct(broken)

    def test_noncommuting_model_rejected(self):
        rng = linalg.rng_from_seed(24)
        cm = CommutingModel(n=2, m=1, d=4, state=linalg.haar_state_vector(rng, 4),
                            U=(linalg.haar_unitary_from(rng, 8),),
                            V=(linalg.haar_unitary_from(rng, 8),))
        with pytest.raises(InvalidModelError):
            channel_direct(cm)

    def test_n_guard(self):
        tm = random_tensor_model(5, 1, 1, 1, seed=25)
        with pytest.raises(DomainError):
            channel_direct(tm)
        channel_direct(tm, max_n=5)  # override works


class TestKronFreeForms:
    # (n, m, dA, dB); commuting models have d = dA dB, up to 64
    SHAPES = [(1, 1, 1, 1), (1, 2, 2, 3), (2, 2, 2, 2), (2, 1, 2, 3), (2, 2, 1, 4), (2, 1, 4, 4),
              (2, 1, 8, 8), (4, 1, 2, 2), (4, 2, 1, 3)]

    @staticmethod
    def models(n, m, dA, dB, seed):
        tm = random_tensor_model(n, m, dA, dB, state="density", seed=seed)
        return [tm, embed_tensor_as_commuting(tm), native_commuting_model(n, m, dA * dB, seed)]

    @staticmethod
    def coupling_unitary(model, x, y):
        """W read off the identity-factor block of the stacked [sigma | I] contraction.

        With F = I the contraction is W itself: rows are its ancilla legs, the
        columns its mediating-system column legs around its row legs (tensor:
        H_B column, then (H_A, H_B) row, then H_A column; commuting: column,
        then row).
        """
        D = len(model.state)
        factors = np.hstack([model.density(), np.eye(D)])
        X = list(channels._factor_contracted(model, x, factors, D))[y][-1]
        n = model.n
        if isinstance(model, TensorModel):
            W = X.reshape((n,) * 4 + (model.dB, model.dA, model.dB, model.dA))
            W = W.transpose(0, 5, 6, 3, 1, 7, 4, 2)
        else:
            W = X.reshape((n,) * 4 + (model.d,) * 2).transpose(0, 5, 3, 1, 4, 2)
        return W.reshape(n * D * n, n * D * n)

    # at n = 3 the kron form's (3d)^2-wide product rounds some entries in BLAS edge kernels
    # of its own, and the contraction's sums run in an order of their own
    @pytest.mark.parametrize("n, m, dA, dB",
                             SHAPES + [(3, 2, 3, 2), (3, 1, 4, 4), (3, 1, 1, 1)])
    def test_identity_factor_columns_match_kron_form(self, n, m, dA, dB):
        for seed in range(5):
            for model in self.models(n, m, dA, dB, seed):
                for x, y in np.ndindex(m, m):
                    W = self.coupling_unitary(model, x, y)
                    ref = coupling_unitary_by_kron(model, x, y)
                    assert np.max(np.abs(W - ref)) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("kind", ["tensor", "commuting"])
    def test_vector_route_matches_density_route(self, kind):
        for i, (n, m, dA, dB) in enumerate(GRID):
            model = random_model(kind, n, m, dA, dB, state="vector", seed=900 + i)
            dense = dataclasses.replace(model, state=model.density())
            assert model.state_is_vector and not dense.state_is_vector
            assert family_max_diff(channel_direct(model), channel_direct(dense)) <= 1e-14

    @pytest.mark.parametrize("kind", ["tensor", "commuting"])
    def test_density_factor_pair_is_exact(self, kind):
        # sigma enters as (sigma, I), as given; a factor of its Hermitian part would drop
        # the anti-Hermitian part that the moment route keeps, and part from it by ~3e-11
        tm = random_tensor_model(2, 2, 2, 3, state="density", seed=920)
        rng = linalg.rng_from_seed(921)
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        skew = (A - linalg.dag(A)) / np.linalg.norm(A - linalg.dag(A))
        tm = dataclasses.replace(tm, state=tm.density() + 1e-10 * skew)
        model = tm if kind == "tensor" else embed_tensor_as_commuting(tm)
        assert 1e-10 < model.checks()[1].defect <= linalg.tol(6)
        assert family_max_diff(channel_direct(model),
                               channel_from_moments(moment_table(model))) <= 1e-14

    @pytest.mark.parametrize("kind", ["tensor", "commuting"])
    @pytest.mark.parametrize("state", ["vector", "density"])
    def test_routes_share_no_intermediate(self, kind, state, monkeypatch):
        model = random_model(kind, 2, 2, 2, 3, state=state, seed=910)
        direct, table = channel_direct(model), moment_table(model)

        def forbidden(*args, **kwargs):
            raise AssertionError("the other route's helper was called")

        with monkeypatch.context() as mp:
            mp.setattr(channels, "_gram", forbidden)
            mp.setattr(channels, "_psi_words", forbidden)
            assert np.array_equal(channel_direct(model).supers, direct.supers)
        with monkeypatch.context() as mp:
            mp.setattr(channels, "_factor_contracted", forbidden)
            assert np.array_equal(moment_table(model).tables, table.tables)

    @pytest.mark.parametrize("kind", ["tensor", "commuting"])
    @pytest.mark.parametrize("state", ["vector", "density"])
    def test_factor_goes_into_each_setting_once(self, kind, state, monkeypatch):
        # m = 3: the factor is contracted into U^x once per setting (3 calls of the helper,
        # each contracting once), and V^y is applied once per setting pair (9 yields)
        model = random_model(kind, 2, 3, 2, 3, state=state, seed=930)
        expected = channel_direct(model).supers
        calls, pairs = [], []
        contract = channels._factor_contracted

        def counting(model, x, F, r):
            calls.append(x)
            for X in contract(model, x, F, r):
                pairs.append(x)
                yield X

        monkeypatch.setattr(channels, "_factor_contracted", counting)
        assert np.array_equal(channel_direct(model).supers, expected)
        assert calls == [0, 1, 2] and pairs == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    @pytest.mark.parametrize("kind", ["tensor", "commuting"])
    def test_peak_stays_within_a_few_pair_products(self, kind):
        # one setting's contraction and one pair's products are held at a time: batching X
        # over the pairs would hold 9 of them
        n, m, dA, dB = 2, 3, 8, 8
        model = random_model(kind, n, m, dA, dB, state="density", seed=940)
        model.check()
        D = dA * dB
        pair_x_bytes = n ** 4 * D * 2 * D * 16  # X over env and both factors, complex
        tracemalloc.start()
        try:
            channel_direct(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * pair_x_bytes


class TestPsiFirstMoments:
    @pytest.mark.parametrize("kind", ["tensor", "commuting"])
    def test_vector_table_matches_gram_route_on_the_density_state(self, kind):
        # psi-first words on a vector state against the Gram route on psi psi^dag
        for i, shape in enumerate(PAYLOAD_SHAPES):
            model = random_model(kind, *shape, state="vector", seed=950 + i)
            dense = dataclasses.replace(model, state=model.density())
            diff = np.max(np.abs(moment_table(model).tables - moment_table(dense).tables))
            assert diff <= 1e-14, shape

    @pytest.mark.parametrize("kind", ["tensor", "commuting"])
    def test_words_neither_contract_factors_nor_form_w(self, kind, monkeypatch):
        # at n = 3, d = 64 the coupling unitary W is 576 x 576; the route stays below a
        # quarter of its size, and the direct route's helper is never called
        n, dA, dB = 3, 8, 8
        model = random_model(kind, n, 1, dA, dB, seed=960)
        model.check()
        expected = moment_table(model).tables

        def forbidden(*args, **kwargs):
            raise AssertionError("the direct route's helper was called")

        monkeypatch.setattr(channels, "_factor_contracted", forbidden)
        monkeypatch.setattr(channels, "_gram", forbidden)
        tracemalloc.start()
        try:
            tables = moment_table(model).tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(tables, expected)
        assert peak < (n * dA * dB * n) ** 2 * 16 / 4


class TestMomentTable:
    def test_identity_model_delta_tensor(self):
        tab = moment_table(identity_model(2, 2, 2))
        assert_allclose(tab.tables[0][0], delta_tensor(2), atol=1e-12)

    def test_n1_normalization(self):
        tm = random_tensor_model(1, 1, 3, 2, seed=26)
        tab = moment_table(tm)
        assert_allclose(tab.tables[0][0].reshape(()), 1.0, atol=1e-12)

    def test_contraction_invariants(self):
        for seed in range(3):
            tm = random_tensor_model(2, 2, 2, 3, seed=seed)
            defects = moment_table(tm).contraction_defects()
            assert max(defects.values()) <= 1e-10

    def test_conjugate_symmetry(self):
        tm = random_tensor_model(3, 1, 2, 2, seed=27)
        assert moment_table(tm).conjugate_symmetry().defect <= 1e-10

    def test_tensor_vs_embedded_tables_agree(self):
        tm = random_tensor_model(2, 2, 2, 3, seed=28)
        ta = moment_table(tm)
        tb = moment_table(embed_tensor_as_commuting(tm))
        for x in range(2):
            for y in range(2):
                assert np.max(np.abs(ta.tables[x][y] - tb.tables[x][y])) <= 1e-12


class TestMomentChannelRoundTrips:
    def test_identity_table_gives_identity_channel(self):
        tab = MomentTable(n=2, m=1, tables=((delta_tensor(2),),))
        fam = channel_from_moments(tab)
        assert_allclose(fam.supers[0][0], np.eye(16), atol=0)

    def test_swap_table_gives_constant_channel(self):
        model, rho_target = swap_model(2, seed=3)
        fam = channel_from_moments(moment_table(model))
        rng = linalg.rng_from_seed(31)
        for _ in range(5):
            rho_in = linalg.wishart_density(rng, 4)
            assert np.max(np.abs(fam.apply_to(rho_in, 0, 0) - rho_target)) <= 1e-12

    def test_table_channel_table(self):
        tm = random_tensor_model(2, 2, 2, 2, seed=32)
        tab = moment_table(tm)
        back = moments_from_channel(channel_from_moments(tab))
        for x in range(2):
            for y in range(2):
                assert np.max(np.abs(tab.tables[x][y] - back.tables[x][y])) <= 1e-10

    def test_channel_table_channel(self):
        tm = random_tensor_model(2, 1, 2, 3, seed=33)
        fam = channel_direct(tm)
        again = channel_from_moments(moments_from_channel(fam))
        assert family_max_diff(fam, again) <= 1e-10

    def test_asymmetric_table_rejected(self):
        T = delta_tensor(2).astype(complex)
        T[0, 1, 1, 0, 0, 0, 0, 0] = 0.5  # breaks conjugate symmetry
        with pytest.raises(DomainError) as refused:
            channel_from_moments(MomentTable(n=2, m=1, tables=((T,),)))
        assert str(refused.value) == (
            "moment table: conjugate_symmetry failed: worst |T[i,j,l,k,p,r,t,s] - "
            "conj(T[l,k,i,j,t,s,p,r])| 5.000e-01 at (i, j, l, k, p, r, t, s)=(1, 2, 2, 1, 1, 1, 1, "
            "1) (setting pair x=1, y=1, 1-based labels)")
        # the constructor refuses a NaN, so this table is built as moments_from_channel's view is
        T[1, 0, 0, 1, 1, 1, 1, 1] = np.nan
        nan = channels._unchecked(MomentTable, n=2, m=1, tables=T[None, None])
        with pytest.raises(DomainError) as refused:
            channel_from_moments(nan)
        assert str(refused.value).endswith("| nan at (i, j, l, k, p, r, t, s)=(1, 2, 2, 1, 2, 2, "
                                           "2, 2) (setting pair x=1, y=1, 1-based labels)")

    def test_recovered_moments_match_state_expectations(self):
        # diagonal moments of a lifted strategy equal <psi| u_j u_k^dag x v_r v_s^dag |psi>
        from uichan.bell import chsh_optimal_strategy
        from uichan.models import diagonal_fourier_lift
        alice, bob, psi = chsh_optimal_strategy()
        lift = diagonal_fourier_lift(alice, bob, psi)
        tab = moments_from_channel(channel_direct(lift))
        us, vs = unitaries_from_pvm(alice), unitaries_from_pvm(bob)
        for x in range(2):
            for y in range(2):
                for j in range(2):
                    for k in range(2):
                        for r in range(2):
                            for s in range(2):
                                op = linalg.kron(us[x][j] @ us[x][k].conj().T,
                                                 vs[y][r] @ vs[y][s].conj().T)
                                expected = np.conj(psi) @ op @ psi
                                got = tab.tables[x][y][j, j, k, k, r, r, s, s]
                                assert abs(expected - got) <= 1e-10


class TestChoiAndAudit:
    def test_identity_choi(self):
        fam = channel_direct(identity_model(2, 2, 2))
        J = choi(fam)[0][0]
        # J = sum_ab E_ab x E_ab: rank one with eigenvalue n^2 = 4
        w = np.linalg.eigvalsh((J + J.conj().T) / 2)
        assert_allclose(w[-1], 4.0, atol=1e-12)
        assert np.max(np.abs(w[:-1])) <= 1e-12
        rep = cptp_report(fam)
        assert rep.min_choi_eigenvalue >= -1e-12
        assert rep.trace_defect <= 1e-12

    def test_swap_choi_is_identity_tensor_target(self):
        model, rho_target = swap_model(2, seed=7)
        J = choi(channel_direct(model))[0][0]
        assert_allclose(J, linalg.kron(np.eye(4), rho_target), atol=1e-12)

    def test_audit_equals_per_member_loop(self):
        # one batched eigvalsh and trace give bit for bit what one call per member gives
        for seed, (n, m) in enumerate([(1, 2), (2, 3), (3, 2), (4, 1)]):
            kind = "commuting" if seed % 2 else "tensor"
            fam = channel_direct(random_model(kind, n, m, 2, 2, state="density", seed=seed))
            n2 = n * n
            low, tp = np.inf, 0.0
            for x, y in np.ndindex(m, m):
                S = fam.supers[x, y]
                J = S.reshape(n2, n2, n2, n2).transpose(2, 0, 3, 1).reshape(n2 * n2, n2 * n2)
                low = min(low, float(np.linalg.eigvalsh((J + J.conj().T) / 2)[0]))
                traces = S.reshape(n2, n2, n2 * n2).trace(axis1=0, axis2=1).reshape(n2, n2)
                tp = max(tp, float(np.max(np.abs(traces - np.eye(n2)))))
            rep = cptp_report(fam)
            assert (rep.min_choi_eigenvalue, rep.trace_defect) == (low, tp)

    def test_non_cp_member_is_named(self):
        # negating one member of a valid family makes it neither CP nor TP; both records name it
        fam = channel_direct(random_model("tensor", 2, 2, 2, 2, seed=5))
        supers = np.array(fam.supers)
        supers[0, 1] *= -1
        rep = cptp_report(ChannelFamily(n=2, m=2, supers=supers))
        assert not rep.accepted and not rep.choi_psd.passed and not rep.trace_preserving.passed
        assert rep.choi_psd.defect == -rep.min_choi_eigenvalue > 0.1
        assert rep.choi_psd.tolerance == channels.CP_TOL
        assert rep.choi_psd.where == (f"least Choi eigenvalue {rep.min_choi_eigenvalue:.3e} "
                                      "(setting pair x=1, y=2, 1-based labels)")
        assert abs(rep.trace_preserving.defect - 2.0) <= 1e-12
        assert rep.trace_preserving.where.endswith("(setting pair x=1, y=2, 1-based labels)")
        # the valid family passes, and its records still name its worst members
        rep = cptp_report(fam)
        assert rep.accepted and rep.choi_psd.where.startswith("least Choi eigenvalue ")

    def test_trace_leak_names_its_input_entry(self):
        # Tr L(E_ab) = sum_u S[(u,u),(a,b)]: an entry at row (u, u) = (1, 1) and column
        # (a, b) = (1, 3), 1-based, of the (2, 1) member makes Tr L(E_13) = 0.25
        supers = np.tile(np.eye(16), (2, 2, 1, 1))  # the n = 2, m = 2 identity family
        supers[1, 0, 0, 2] = 0.25
        rep = cptp_report(ChannelFamily(n=2, m=2, supers=supers))
        assert rep.trace_preserving.where == (
            "worst |Tr L(E_ab) - delta_ab| 2.500e-01 at (a, b)=(1, 3) "
            "(setting pair x=2, y=1, 1-based labels)")

    def test_random_models_pass_audit(self):
        for seed in range(8):
            kind = "tensor" if seed % 2 == 0 else "commuting"
            model = random_model(kind, 2, 2, 2, 2, state="density" if seed % 3 else "vector",
                                 seed=seed)
            rep = cptp_report(channel_direct(model))
            assert rep.min_choi_eigenvalue >= -1e-9
            assert rep.trace_defect <= 1e-10


class TestApply:
    def test_identity_family(self):
        fam = channel_direct(identity_model(2, 2, 2, seed=41))
        rng = linalg.rng_from_seed(42)
        rho = linalg.wishart_density(rng, 4)
        assert_allclose(fam.apply_to(rho, 0, 0), rho, atol=1e-12)

    def test_swap_family_constant(self):
        model, rho_target = swap_model(2, seed=43)
        fam = channel_direct(model)
        rng = linalg.rng_from_seed(44)
        assert_allclose(fam.apply_to(linalg.wishart_density(rng, 4), 0, 0), rho_target, atol=1e-12)

    def test_maximally_mixed_outputs_unit_trace(self):
        tm = random_tensor_model(2, 2, 2, 2, seed=45)
        fam = channel_direct(tm)
        for x, y in np.ndindex(2, 2):
            assert abs(np.trace(fam.apply_to(np.eye(4) / 4, x, y)) - 1.0) <= 1e-12

    def test_rejects_non_state(self):
        fam = channel_direct(identity_model(2, 2, 2))
        with pytest.raises(DomainError):
            fam.apply_to(np.diag([1.0, 1.0, -0.5, -0.5]), 0, 0)
        with pytest.raises(DomainError):
            fam.apply_to(np.eye(4) / 2, 0, 0)  # trace 2
        with pytest.raises(DomainError):
            fam.apply_to(np.full((4, 4), np.nan), 0, 0)
        with pytest.raises(DimensionMismatchError):
            fam.apply_to(np.eye(3) / 3, 0, 0)

    @pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (1, 0), (0, 1), (-2, 5)])
    def test_rejects_setting_out_of_range(self, x, y):
        # m = 1: a negative index must not wrap around to the last member
        fam = channel_direct(identity_model(2, 2, 2))
        with pytest.raises(DimensionMismatchError):
            fam.apply_to(np.eye(4) / 4, x, y)


class TestFamilyArrays:
    def test_one_read_only_array_each(self):
        tm = random_tensor_model(2, 2, 2, 2, seed=50)
        fam, tab = channel_direct(tm), moment_table(tm)
        assert fam.supers.shape == (2, 2, 16, 16) and tab.tables.shape == (2, 2) + (2,) * 8
        for arr in (fam.supers, tab.tables, moments_from_channel(fam).tables):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0, 0, 0] = 1.0
        assert len(fam.supers) == 2 and fam.supers[1][0].shape == (16, 16)

    def test_moments_from_channel_is_a_view(self):
        fam = channel_direct(random_tensor_model(2, 2, 2, 3, seed=51))
        assert np.shares_memory(fam.supers, moments_from_channel(fam).tables)

    def test_constructors_copy_caller_arrays(self):
        S = np.eye(16, dtype=complex)[None, None]
        fam = ChannelFamily(n=2, m=1, supers=S)
        S[0, 0, 0, 0] = 5.0
        assert fam.supers[0, 0, 0, 0] == 1.0
        assert fam.supers.base is not S and fam.supers.flags.owndata

    @pytest.mark.parametrize("grid", [
        ((np.eye(16),),) * 2,                            # 2 x 1, not m x m
        ((np.eye(16), np.eye(16)), (np.eye(16),)),       # ragged row
        ((np.eye(16),), (np.eye(16),), (np.eye(16),)),   # 3 x 1
        ((np.eye(16), np.eye(16)), (np.eye(16), np.eye(9))),
        ((np.eye(9), np.eye(9)), (np.eye(9), np.eye(9))),
        ((np.ones(16), np.ones(16)), (np.ones(16), np.ones(16))),
    ])
    def test_channel_family_rejects_bad_grid(self, grid):
        with pytest.raises(DimensionMismatchError):
            ChannelFamily(n=2, m=2, supers=grid)

    @pytest.mark.parametrize("grid", [
        ((delta_tensor(2),),) * 2,
        ((delta_tensor(2), delta_tensor(2)), (delta_tensor(2),)),
        ((delta_tensor(2), delta_tensor(2)), (delta_tensor(2), delta_tensor(3))),
        ((np.zeros((2,) * 7),) * 2,) * 2,
    ])
    def test_moment_table_rejects_bad_grid(self, grid):
        with pytest.raises(DimensionMismatchError):
            MomentTable(n=2, m=2, tables=grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        S = np.eye(16, dtype=complex)[None, None].copy()
        S[0, 0, 3, 5] = bad
        with pytest.raises(DomainError):
            ChannelFamily(n=2, m=1, supers=S)
        T = delta_tensor(2).astype(complex)[None, None].copy()
        T[0, 0, 1, 0, 1, 0, 0, 0, 0, 0] = complex(0.0, bad)
        with pytest.raises(DomainError):
            MomentTable(n=2, m=1, tables=T)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 2), dA=st.integers(1, 3), dB=st.integers(1, 3),
           kind=st.sampled_from(["tensor", "commuting"]),
           state=st.sampled_from(["vector", "density"]), seed=st.integers(0, 2 ** 16))
    def test_routes_agree_audit_passes_and_view_round_trips(self, n, m, dA, dB, kind, state,
                                                            seed):
        model = random_model(kind, n, m, dA, dB, state=state, seed=seed)
        fam = channel_direct(model)
        assert family_max_diff(fam, channel_from_moments(moment_table(model))) <= 1e-10
        if kind == "tensor":  # the domain holds the acceptance grid, n, dA, dB in {2, 3}
            assert family_max_diff(fam, channel_direct(embed_tensor_as_commuting(model))) <= 1e-12
        assert cptp_report(fam).accepted
        assert np.array_equal(channel_from_moments(moments_from_channel(fam)).supers, fam.supers)


class TestEmbeddingInvariance:
    def test_channels_agree(self):
        for seed in range(5):
            tm = random_tensor_model(2, 2, 2, 3 if seed % 2 else 2, seed=seed)
            assert family_max_diff(channel_direct(tm),
                                   channel_direct(embed_tensor_as_commuting(tm))) <= 1e-12


def test_no_public_callable_takes_a_tolerance():
    # every pass/fail bound is a module constant next to its check; no call can move one
    import uichan
    from uichan.bell import Behaviour
    from uichan.models import PVMFamily
    callables = [obj for obj in map(uichan.__dict__.get, uichan.__all__)
                 if inspect.isfunction(obj) or dataclasses.is_dataclass(obj)]
    callables += [Behaviour.check, PVMFamily.check, TensorModel.check, CommutingModel.check]
    for fn in callables:
        # SeesawConfig.rel_tol is the see-saw's stopping rule, set by ``uichan seesaw --rel-tol``
        params = [p for p in inspect.signature(fn).parameters
                  if (p.endswith("_tol") or p.startswith("tol_")) and p != "rel_tol"]
        assert params == [], fn.__qualname__
    assert list(inspect.signature(channel_from_moments).parameters) == ["table"]
    assert [f.name for f in dataclasses.fields(channels.CPTPReport)] == [
        "min_choi_eigenvalue", "trace_defect", "choi_psd", "trace_preserving"]
