"""Finite-dimensional tensor and commuting models, and constructions between them.

A *tensor model* couples two ancillas of dimension n to local systems
H_A (dim dA) and H_B (dim dB) through per-setting unitaries; a *commuting
model* couples them to one shared system H (dim d) through unitaries whose
operator entries mutually commute.  Register orders are fixed once:

* tensor models:     (A', H_A, H_B, B')   with U[x] on (A', H_A) and
                                          V[y] on (H_B, B');
* commuting models:  (A', H, B')          with U[x] on (A', H) and
                                          V[y] on (H, B').

U[x] is always stored ancilla-major (n x n blocks of local operators).
V[y] is stored on its physical legs: ancilla-minor for tensor models
(local index major), ancilla-major for commuting models.  ``u_blocks`` /
``v_blocks`` hide the difference and always return the operator entries
indexed by the two ancilla indices first.

States may be unit vectors or density matrices throughout; validation is
two-tier (hard errors for shape mismatches, soft reports for numerical
defects).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, DomainError, InvalidModelError
from .linalg import dag


def _frozen(a: np.ndarray, name: str) -> np.ndarray:
    out = np.array(a, dtype=complex)
    if not np.isfinite(out).all():
        raise DomainError(f"{name} has non-finite entries")
    out.setflags(write=False)
    return out


def _worst(values) -> float:
    """Largest of the defects; NaN if any is NaN (the builtin max may drop it)."""
    return float(np.max(list(values)))


def _worst_unitarity(mats) -> float:
    return _worst(linalg.unitarity_defect(M) for M in mats)


def _require_within(what: str, defects: dict[str, float], t: float) -> None:
    """Raise unless every defect is at most t; a NaN defect fails."""
    if not all(v <= t for v in defects.values()):
        raise InvalidModelError(f"{what} defects {defects} exceed tolerance {t:.3e}")


def _freeze_state(state: np.ndarray, dim: int, name: str) -> np.ndarray:
    s = np.asarray(state, dtype=complex)
    if s.ndim == 1:
        if s.shape[0] != dim:
            raise DimensionMismatchError(f"{name} vector has length {s.shape[0]}, expected {dim}")
    elif s.ndim == 2:
        if s.shape != (dim, dim):
            raise DimensionMismatchError(f"{name} density matrix has shape {s.shape}, expected {(dim, dim)}")
    else:
        raise DimensionMismatchError(f"{name} must be a vector or a square matrix")
    return _frozen(s, name)


def _state_defect(state: np.ndarray) -> float:
    """Distance of a state from the valid set (unit norm / PSD unit trace)."""
    if state.ndim == 1:
        return abs(float(np.linalg.norm(state)) - 1.0)
    herm = linalg.hermiticity_defect(state)
    w = np.linalg.eigvalsh((state + dag(state)) / 2)
    return _worst([herm, abs(float(np.real(np.trace(state))) - 1.0), 0.0, -float(w[0])])


@dataclass(frozen=True)
class PVMFamily:
    """m projective measurements with n outcomes on a d-dimensional system.

    ``projectors[x][a]`` is the projector for setting x and outcome a
    (0-based indices; outcome a corresponds to label a+1).
    """

    d: int
    m: int
    n: int
    projectors: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        if self.d < 1 or self.m < 1 or self.n < 1:
            raise DimensionMismatchError("d, m, n must be positive")
        if len(self.projectors) != self.m or any(len(row) != self.n for row in self.projectors):
            raise DimensionMismatchError("projector table must be m settings of n outcomes")
        rows = []
        for row in self.projectors:
            mats = []
            for P in row:
                A = linalg.as_matrix(P, "projector")
                if A.shape[0] != self.d:
                    raise DimensionMismatchError(f"projector has dim {A.shape[0]}, expected {self.d}")
                mats.append(_frozen(A, "projector"))
            rows.append(tuple(mats))
        object.__setattr__(self, "projectors", tuple(rows))

    def defects(self) -> dict[str, float]:
        """Worst projector defect ||P^2 - P||_F, ||P - P^dag||_F and completeness defect."""
        proj = []
        comp = []
        for row in self.projectors:
            total = np.zeros((self.d, self.d), dtype=complex)
            for P in row:
                proj += [float(np.linalg.norm(P @ P - P)), linalg.hermiticity_defect(P)]
                total = total + P
            comp.append(float(np.linalg.norm(total - np.eye(self.d))))
        return {"projector": _worst(proj), "completeness": _worst(comp)}

    def check(self, tol_abs: float | None = None) -> None:
        t = linalg.tol(self.d) if tol_abs is None else tol_abs
        _require_within("PVM family", self.defects(), t)


class _Model:
    """State handling and defects shared by tensor and commuting models."""

    def _freeze(self, state_dim: int, u_dim: int, v_dim: int) -> None:
        """Replace state, U and V by checked read-only complex copies."""
        object.__setattr__(self, "state", _freeze_state(self.state, state_dim, "state"))
        for name, dim in (("U", u_dim), ("V", v_dim)):
            mats = getattr(self, name)
            if len(mats) != self.m:
                raise DimensionMismatchError(f"{name} must hold {self.m} unitaries")
            frozen = []
            for M in mats:
                A = linalg.as_matrix(M, name)
                if A.shape[0] != dim:
                    raise DimensionMismatchError(f"{name} has dim {A.shape[0]}, expected {dim}")
                frozen.append(_frozen(A, name))
            object.__setattr__(self, name, tuple(frozen))

    @property
    def state_is_vector(self) -> bool:
        return self.state.ndim == 1

    def density(self) -> np.ndarray:
        if self.state_is_vector:
            return np.outer(self.state, np.conj(self.state))
        return np.asarray(self.state)

    def defects(self) -> dict[str, float]:
        return {"unitarity": _worst_unitarity(self.U + self.V), "state": _state_defect(self.state)}


@dataclass(frozen=True)
class TensorModel(_Model):
    """State on H_A x H_B plus per-setting coupling unitaries U[x], V[y]."""

    n: int
    m: int
    dA: int
    dB: int
    state: np.ndarray
    U: tuple[np.ndarray, ...]
    V: tuple[np.ndarray, ...]

    def __post_init__(self):
        if min(self.n, self.m, self.dA, self.dB) < 1:
            raise DimensionMismatchError("n, m, dA, dB must be positive")
        self._freeze(self.dA * self.dB, self.n * self.dA, self.dB * self.n)

    def u_blocks(self, x: int) -> np.ndarray:
        """Operator entries of U[x] as an (n, n, dA, dA) array (ancilla-major storage)."""
        return self.U[x].reshape(self.n, self.dA, self.n, self.dA).transpose(0, 2, 1, 3)

    def v_blocks(self, y: int) -> np.ndarray:
        """Operator entries of V[y] as an (n, n, dB, dB) array (ancilla-minor storage)."""
        return self.V[y].reshape(self.dB, self.n, self.dB, self.n).transpose(1, 3, 0, 2)

    def check(self, tol_abs: float | None = None) -> None:
        t = linalg.tol(max(self.n * self.dA, self.dB * self.n)) if tol_abs is None else tol_abs
        _require_within("tensor model", self.defects(), t)


@dataclass(frozen=True)
class CommutingModel(_Model):
    """State on a single H plus coupling unitaries with commuting operator entries."""

    n: int
    m: int
    d: int
    state: np.ndarray
    U: tuple[np.ndarray, ...]
    V: tuple[np.ndarray, ...]

    def __post_init__(self):
        if min(self.n, self.m, self.d) < 1:
            raise DimensionMismatchError("n, m, d must be positive")
        self._freeze(self.d, self.n * self.d, self.n * self.d)

    def _blocks(self, M: np.ndarray) -> np.ndarray:
        return M.reshape(self.n, self.d, self.n, self.d).transpose(0, 2, 1, 3)

    def u_blocks(self, x: int) -> np.ndarray:
        return self._blocks(self.U[x])

    def v_blocks(self, y: int) -> np.ndarray:
        return self._blocks(self.V[y])

    def check(self, tol_abs: float | None = None) -> None:
        t = linalg.tol(self.n * self.d) if tol_abs is None else tol_abs
        _require_within("commuting model", self.defects(), t)

    @cached_property
    def commutation(self) -> CommutationReport:
        """Entrywise commutation report; see ``validate_commuting``."""
        worst = _worst_commutator(self)
        uni = _worst_unitarity(self.U + self.V)
        t = linalg.tol(self.n * self.d)
        return CommutationReport(
            max_commutator=worst,
            max_unitarity_defect=uni,
            tolerance=t,
            accepted=bool(worst <= t and uni <= t),
        )


@dataclass(frozen=True)
class CommutationReport:
    """Worst-case entrywise defects of a commuting model."""

    max_commutator: float
    max_unitarity_defect: float
    tolerance: float
    accepted: bool


def _row_and_column(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operator entries stacked as a (d, n^2 d) row and an (n^2 d, d) column of blocks.

    Both come back with real and imaginary parts side by side, as the
    real arrays [re | im] and [re ; im].
    """
    n, _, d, _ = blocks.shape
    column = blocks.reshape(n * n * d, d)
    row = blocks.transpose(2, 0, 1, 3).reshape(d, n * n * d)
    return np.hstack([row.real, row.imag]), np.vstack([column.real, column.imag])


def _entry_products(column: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of every block product (column block) @ (row block).

    One real product yields Ar@Br, Ar@Bi, Ai@Br and Ai@Bi at once; each
    complex entry is then Ar@Br - Ai@Bi + i(Ar@Bi + Ai@Br).  Built this
    way a@b and b@a round identically whenever each entry of the product
    has a single nonzero term, as for the entries of an embedded tensor
    model, so those commutators come out exactly zero.
    """
    h, w = column.shape[0] // 2, row.shape[1] // 2
    P = column @ row
    return P[:h, :w] - P[h:, w:], P[:h, w:] + P[h:, :w]


def _worst_commutator(model: CommutingModel) -> float:
    """Largest ||[u_ij, v_kl]||_F and ||[u_ij^dag, v_kl]||_F over all settings and entries."""
    n2, d = model.n ** 2, model.d
    swap = (2, 1, 0, 3)
    stacked_v = [_row_and_column(model.v_blocks(y)) for y in range(model.m)]
    worst = []
    for x in range(model.m):
        ub = model.u_blocks(x)
        for blocks in (ub, np.conj(np.swapaxes(ub, -1, -2))):
            u_row, u_col = _row_and_column(blocks)
            for v_row, v_col in stacked_v:
                uv_re, uv_im = _entry_products(u_col, v_row)  # block (ij, kl) = u_ij v_kl
                vu_re, vu_im = _entry_products(v_col, u_row)  # block (kl, ij) = v_kl u_ij
                c_re = uv_re.reshape(n2, d, n2, d) - vu_re.reshape(n2, d, n2, d).transpose(swap)
                c_im = uv_im.reshape(n2, d, n2, d) - vu_im.reshape(n2, d, n2, d).transpose(swap)
                worst.append(np.max(np.sum(c_re ** 2 + c_im ** 2, axis=(1, 3))))
    return float(np.sqrt(np.max(worst)))


def validate_commuting(model: CommutingModel) -> CommutationReport:
    """Measure how far the operator entries of U[x] and V[y] are from commuting.

    Reports the worst Frobenius norm over all pairs of entries of
    [u_ij, v_kl] and [u_ij^dag, v_kl], plus the worst unitarity defect of
    the stored matrices.  The model is accepted iff all defects are within
    tolerance.

    Per (x, y) every product u_ij v_kl comes out of one BLAS matrix product
    of stacked entry blocks, and every v_kl u_ij out of a second, each
    formed from real products (see ``_entry_products``).  The report is
    computed once per model instance and cached on it (``commutation``).
    """
    return model.commutation


def embed_tensor_as_commuting(model: TensorModel) -> CommutingModel:
    """Realize a tensor model as a commuting model on H = H_A x H_B.

    U[x] is extended by the identity on H_B and V[y] by the identity on
    H_A, so the operator entries land in commuting subalgebras; the state
    is unchanged and the induced channel family is preserved exactly.
    """
    n, dA, dB = model.n, model.dA, model.dB
    d = dA * dB
    eyeA = np.eye(dA)
    U_new = tuple(linalg.kron(U, np.eye(dB)) for U in model.U)
    V_new = []
    for y in range(model.m):
        vb = model.v_blocks(y)
        lifted = np.einsum("klab,cd->klcadb", vb, eyeA)  # I_dA x v_kl, row-major (dA,dB)
        V_new.append(lifted.reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d))
    return CommutingModel(n=n, m=model.m, d=d, state=model.state, U=U_new, V=tuple(V_new))


def _fourier_unitaries(projectors: tuple[np.ndarray, ...], n: int) -> list[np.ndarray]:
    """u_{a'} = sum_a exp(2 pi i a a'/n) P_a for labels a, a' = 1..n.

    Phases are evaluated at (a * a') mod n so that u_n is exactly the
    completeness sum of the projectors.  Raises if any u_{a'} is not unitary
    within tol(d), which means the projectors do not form a PVM.
    """
    d = projectors[0].shape[0]
    out = []
    for ap in range(1, n + 1):
        u = np.zeros((d, d), dtype=complex)
        for a in range(1, n + 1):
            u += np.exp(2j * np.pi * ((a * ap) % n) / n) * projectors[a - 1]
        if not linalg.unitarity_defect(u) <= linalg.tol(d):
            raise InvalidModelError("Fourier combination of the projectors is not unitary; "
                                    "the PVM is invalid")
        out.append(u)
    return out


def diagonal_fourier_lift(alice: PVMFamily, bob: PVMFamily, state: np.ndarray) -> TensorModel:
    """Turn a PVM strategy into a tensor model with diagonal coupling unitaries.

    Per setting the coupling unitary is block-diagonal in the ancilla index
    with blocks u_{a'} = sum_a exp(2 pi i a a'/n) P_{a|x}; the ancilla
    dimension equals the outcome count.  The induced channel family then
    carries the strategy's behaviour in its diagonal moments.
    """
    if alice.n != bob.n or alice.m != bob.m:
        raise DimensionMismatchError(
            f"mismatched PVM families: ({alice.m},{alice.n}) vs ({bob.m},{bob.n})"
        )
    n, m = alice.n, alice.m
    dA, dB = alice.d, bob.d
    U_list, V_list = [], []
    for x in range(m):
        U = np.zeros((n * dA, n * dA), dtype=complex)
        for ap, u in enumerate(_fourier_unitaries(alice.projectors[x], n)):
            U[ap * dA:(ap + 1) * dA, ap * dA:(ap + 1) * dA] = u
        U_list.append(U)
    for y in range(m):
        V = np.zeros((dB * n, dB * n), dtype=complex)
        for bp, v in enumerate(_fourier_unitaries(bob.projectors[y], n)):
            V[bp::n, bp::n] = v
        V_list.append(V)
    return TensorModel(n=n, m=m, dA=dA, dB=dB, state=state, U=tuple(U_list), V=tuple(V_list))


def random_pvm_family(d: int, m: int, n: int, seed: int | None = None,
                      rng: np.random.Generator | None = None) -> PVMFamily:
    """Random projective measurements: Haar eigenbases with outcomes assigned round-robin.

    For d < n the trailing outcomes receive zero projectors, which is a
    legitimate degenerate PVM.
    """
    if rng is None:
        rng = linalg.rng_from_seed(0 if seed is None else seed)
    rows = []
    for _ in range(m):
        Q = linalg.haar_unitary_from(rng, d)
        row = []
        for a in range(n):
            cols = Q[:, a::n]
            row.append(cols @ dag(cols))
        rows.append(tuple(row))
    return PVMFamily(d=d, m=m, n=n, projectors=tuple(rows))


def random_tensor_model(n: int, m: int, dA: int, dB: int, state: str = "vector",
                        seed: int = 0) -> TensorModel:
    """Haar-random tensor model; deterministic for a fixed seed."""
    rng = linalg.rng_from_seed(seed)
    U = tuple(linalg.haar_unitary_from(rng, n * dA) for _ in range(m))
    V = tuple(linalg.haar_unitary_from(rng, dB * n) for _ in range(m))
    if state == "vector":
        st = linalg.haar_state_vector(rng, dA * dB)
    elif state == "density":
        st = linalg.wishart_density(rng, dA * dB)
    else:
        raise DimensionMismatchError(f"unknown state kind {state!r}")
    return TensorModel(n=n, m=m, dA=dA, dB=dB, state=st, U=U, V=V)


def random_model(kind: str, n: int, m: int, dA: int, dB: int, state: str = "vector",
                 seed: int = 0) -> TensorModel | CommutingModel:
    """Random model of the requested kind; commuting models arise by embedding."""
    tm = random_tensor_model(n, m, dA, dB, state=state, seed=seed)
    if kind == "tensor":
        return tm
    if kind == "commuting":
        return embed_tensor_as_commuting(tm)
    raise DimensionMismatchError(f"unknown model kind {kind!r}")
