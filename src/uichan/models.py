"""Finite-dimensional tensor and commuting models, and constructions between them.

A *tensor model* couples two ancillas of dimension n to local systems
H_A (dim dA) and H_B (dim dB) through per-setting unitaries; a *commuting
model* couples them to one shared system H (dim d) through unitaries whose
operator entries mutually commute.  Register orders are fixed once:

* tensor models:     (A', H_A, H_B, B')   with U[x] on (A', H_A) and
                                          V[y] on (H_B, B');
* commuting models:  (A', H, B')          with U[x] on (A', H) and
                                          V[y] on (H, B').

U and V are each one read-only (m, D, D) array whose leading axis is the
setting, and a PVM family is one (m, n, d, d) array of projectors.
U[x] is always stored ancilla-major (n x n blocks of local operators).
V[y] is stored on its physical legs: ancilla-minor for tensor models
(local index major), ancilla-major for commuting models.  ``u_blocks`` /
``v_blocks`` hide the difference and always return the operator entries
indexed by the two ancilla indices first.

States may be unit vectors or density matrices throughout; validation is
two-tier (hard errors for shape mismatches, ``Check`` records for numerical
defects).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, DomainError, InvalidModelError
from .linalg import dag


def _first_worst(values, words=None, least: bool = False):
    """The largest (or least) entry, a NaN counting as worst, and a ``Check.locate`` for it.

    The locate searches for the first entry that holds it and words it as
    ``words(worst, *index)``, only when called; without ``words`` it is None.
    """
    values = np.asarray(values)
    extreme, arg = (np.min, np.argmin) if least else (np.max, np.argmax)
    worst = float(extreme(values))
    return worst, words and (lambda: words(worst, *np.unravel_index(arg(values), values.shape)))


def _setting_pair(x: int, y: int) -> str:
    return f"(setting pair x={x + 1}, y={y + 1}, 1-based labels)"


def _unitarity_defects(stack: np.ndarray) -> np.ndarray:
    """Unitarity defect of each matrix of a (k, D, D) stack."""
    return np.array([linalg.unitarity_defect(M) for M in stack])


@dataclass(frozen=True)
class Check:
    """The verdict of one pass/fail check: its worst defect against its tolerance.

    A check passes iff ``defect <= tolerance``, so a NaN defect fails.
    ``where`` is the owner's one-line text naming the worst entry: its
    measure, its value and its location, with 1-based labels.  ``locate``
    words it each time ``where`` is read, so a passing check nobody asks
    about is not searched; without it ``where`` is None.  ``failure`` is the one text
    of a failed check, which ``verify``'s stderr and ``_require`` print.
    """

    name: str
    defect: float
    tolerance: float
    locate: Callable[[], str] | None = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return bool(self.defect <= self.tolerance)

    @property
    def where(self) -> str | None:
        return self.locate and self.locate()

    @property
    def failure(self) -> str:
        """``<name> failed: <where>``; without a where, the defect against the tolerance."""
        where = self.where or f"defect {self.defect:.3e} exceeds tolerance {self.tolerance:.3e}"
        return f"{self.name} failed: {where}"


def _require(what: str, checks, error=InvalidModelError) -> None:
    """Raise ``error`` unless every check passes: one line, ``what`` and then each failure."""
    failures = [c.failure for c in checks if not c.passed]
    if failures:
        raise error(f"{what}: " + "; ".join(failures))


def _freeze_state(state: np.ndarray, dim: int, name: str) -> np.ndarray:
    s = np.asarray(state, dtype=complex)
    if s.ndim not in (1, 2):
        raise DimensionMismatchError(f"{name} must be a vector or a square matrix")
    return linalg.frozen(s, (), (dim,) * s.ndim, name)


@np.errstate(over="ignore", invalid="ignore")  # huge entries: an inf or NaN defect, failing
def _state_defect(state: np.ndarray) -> float:
    """Distance of a state from the valid set (unit norm / PSD unit trace)."""
    if state.ndim == 1:
        return abs(float(np.linalg.norm(state)) - 1.0)
    herm = linalg.hermiticity_defect(state)
    w = np.linalg.eigvalsh(linalg._hermitian_part(state))
    return _first_worst([herm, abs(float(np.real(np.trace(state))) - 1.0), 0.0, -float(w[0])])[0]


def _checked_state(state: np.ndarray, dim: int, name: str) -> np.ndarray:
    """The one check of a state given outside a model: frozen, within tol(dim) or DomainError."""
    s = _freeze_state(state, dim, name)
    _require(name, [Check("state", _state_defect(s), linalg.tol(dim))], DomainError)
    return s


@dataclass(frozen=True)
class PVMFamily:
    """m projective measurements with n outcomes on a d-dimensional system.

    ``projectors`` is one read-only ``(m, n, d, d)`` array: ``projectors[x, a]``
    (equally ``projectors[x][a]``) is the projector for setting x and outcome a
    (0-based indices; outcome a corresponds to label a+1).
    """

    d: int
    m: int
    n: int
    projectors: np.ndarray

    def __post_init__(self):
        if self.d < 1 or self.m < 1 or self.n < 1:
            raise DimensionMismatchError("d, m, n must be positive")
        object.__setattr__(self, "projectors", linalg.frozen(
            self.projectors, (self.m, self.n), (self.d, self.d), "projector"))

    @np.errstate(over="ignore", invalid="ignore")  # huge entries: inf or NaN defects, failing
    def checks(self) -> tuple[Check, Check]:
        """Worst projector defect ||P^2 - P||_F, ||P - P^dag||_F and completeness defect."""
        P, t = self.projectors, linalg.tol(self.d)
        idempotency = np.linalg.norm(P @ P - P, axis=(-2, -1))
        hermiticity = np.linalg.norm(P - np.conj(np.swapaxes(P, -1, -2)), axis=(-2, -1))
        completeness = np.linalg.norm(P.sum(axis=1) - np.eye(self.d), axis=(-2, -1))
        return (Check("projector", _first_worst(np.append(idempotency, hermiticity))[0], t),
                Check("completeness", _first_worst(completeness)[0], t))

    def check(self) -> None:
        _require("PVM family", self.checks())


class _Model:
    """State handling and defects shared by tensor and commuting models."""

    def _freeze(self, state_dim: int, u_dim: int, v_dim: int) -> None:
        """Replace state, U and V by checked read-only complex copies; U, V as (m, D, D) stacks."""
        object.__setattr__(self, "state", _freeze_state(self.state, state_dim, "state"))
        for name, dim in (("U", u_dim), ("V", v_dim)):
            stack = linalg.frozen(getattr(self, name), (self.m,), (dim, dim), name)
            object.__setattr__(self, name, stack)

    @property
    def state_is_vector(self) -> bool:
        return self.state.ndim == 1

    def density(self) -> np.ndarray:
        if self.state_is_vector:
            return np.outer(self.state, np.conj(self.state))
        return np.asarray(self.state)

    @cached_property
    def _unitarity_by_matrix(self) -> np.ndarray:
        """(2, m) array of unitarity defects: ``[0, x]`` of the stored U[x], ``[1, y]`` of V[y]."""
        return np.array([_unitarity_defects(self.U), _unitarity_defects(self.V)])

    @cached_property
    def _checks(self) -> tuple[Check, Check]:
        """The unitarity check, naming the worst stored matrix, and the state check."""
        worst, where = _first_worst(self._unitarity_by_matrix, lambda worst, of_v, s: (
            f"worst ||M^dag M - I||_F {worst:.3e} at stored {'UV'[of_v]} "
            f"(setting {'xy'[of_v]}={s + 1}, 1-based labels)"))
        return (Check("unitarity", worst, self.tolerance, where),
                Check("state", _state_defect(self.state), self.tolerance))

    def checks(self) -> tuple[Check, ...]:
        """The unitarity check of the stored U and V, and the state check; measured once."""
        return self._checks

    @property
    def tolerance(self) -> float:
        """``tol`` of the largest stored coupling unitary; every model check uses it."""
        return linalg.tol(max(self.U.shape[-1], self.V.shape[-1]))

    def check(self) -> None:
        _require(type(self).__name__, self._checks)


@dataclass(frozen=True)
class TensorModel(_Model):
    """State on H_A x H_B plus per-setting coupling unitaries U[x], V[y]."""

    n: int
    m: int
    dA: int
    dB: int
    state: np.ndarray
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if min(self.n, self.m, self.dA, self.dB) < 1:
            raise DimensionMismatchError("n, m, dA, dB must be positive")
        self._freeze(self.dA * self.dB, self.n * self.dA, self.dB * self.n)

    def u_blocks(self, x=slice(None)) -> np.ndarray:
        """Operator entries of U[x] as an (n, n, dA, dA) array (ancilla-major storage).

        Without x, those of every setting as one (m, n, n, dA, dA) array.
        """
        U = self.U[x]
        return U.reshape(U.shape[:-2] + (self.n, self.dA, self.n, self.dA)).swapaxes(-3, -2)

    def v_blocks(self, y=slice(None)) -> np.ndarray:
        """Operator entries of V[y] as an (n, n, dB, dB) array (ancilla-minor storage).

        Without y, those of every setting as one (m, n, n, dB, dB) array.
        """
        V = self.V[y]
        V = V.reshape(V.shape[:-2] + (self.dB, self.n, self.dB, self.n))
        return np.moveaxis(V, (-3, -1), (-4, -3))


@dataclass(frozen=True)
class CommutingModel(_Model):
    """State on a single H plus coupling unitaries with commuting operator entries."""

    n: int
    m: int
    d: int
    state: np.ndarray
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if min(self.n, self.m, self.d) < 1:
            raise DimensionMismatchError("n, m, d must be positive")
        self._freeze(self.d, self.n * self.d, self.n * self.d)

    def _blocks(self, M: np.ndarray) -> np.ndarray:
        return M.reshape(M.shape[:-2] + (self.n, self.d, self.n, self.d)).swapaxes(-3, -2)

    def u_blocks(self, x=slice(None)) -> np.ndarray:
        """Operator entries of U[x] as (n, n, d, d); without x, (m, n, n, d, d) for all settings."""
        return self._blocks(self.U[x])

    def v_blocks(self, y=slice(None)) -> np.ndarray:
        """Operator entries of V[y] as (n, n, d, d); without y, (m, n, n, d, d) for all settings."""
        return self._blocks(self.V[y])

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # huge entries: inf or NaN norms, failing
    def _commutator_norms(self) -> np.ndarray:
        """(m, 2, m, n^2, n^2) array of every entry commutator norm, measured once.

        ``[x, dagger, y, i n + j, k n + l]`` is ||[u_ij, v_kl]||_F, or
        ||[u_ij^dag, v_kl]||_F when ``dagger``, for U[x] and V[y].  The two
        products of a block land in buffers made once; the commutator, its
        square and its sum are formed in the first one.
        """
        m, n2, d = self.m, self.n ** 2, self.d
        h = n2 * d
        stacked_v = [_row_and_column(self.v_blocks(y)) for y in range(m)]
        uv, vu = np.empty((2, 2 * h, 2 * h))
        # [re | im] top halves as (ij, row, re/im, kl, column); vu's holds kl and ij swapped
        commutator = uv[:h].reshape(n2, d, 2, n2, d)
        vu_swapped = vu[:h].reshape(n2, d, 2, n2, d).transpose(3, 1, 2, 0, 4)
        norms = np.empty((m, 2, m, n2, n2))
        for x in range(m):
            ub = self.u_blocks(x)
            for dagger, blocks in enumerate((ub, np.conj(np.swapaxes(ub, -1, -2)))):
                u_row, u_col = _row_and_column(blocks)
                for y, (v_row, v_col) in enumerate(stacked_v):
                    _entry_products(u_col, v_row, uv)  # block (ij, kl) = u_ij v_kl
                    _entry_products(v_col, u_row, vu)  # block (kl, ij) = v_kl u_ij
                    np.subtract(commutator, vu_swapped, out=commutator)
                    np.square(commutator, out=commutator)
                    np.sum(commutator, axis=(1, 2, 4), out=norms[x, dagger, y])
        return np.sqrt(norms)

    @cached_property
    def commutation(self) -> Check:
        """The worst entry commutator, read through ``validate_commuting``.

        Everything is measured but the commutator of an embedded tensor model, 0 by construction.
        """
        n = self.n
        worst, where = _first_worst(self._commutator_norms, lambda worst, x, dagger, y, ij, kl: (
            f"worst ||[{'u_ij^dag' if dagger else 'u_ij'}, v_kl]||_F {worst:.3e} at (i, j)="
            f"({ij // n + 1}, {ij % n + 1}), (k, l)=({kl // n + 1}, {kl % n + 1}) "
            f"{_setting_pair(x, y)}"))
        return Check("commutation", worst, self.tolerance, where)

    def checks(self) -> tuple[Check, ...]:
        """The unitarity and state checks of every model, then the commutation check."""
        return self._checks + (validate_commuting(self),)

    def check(self) -> None:
        _require(type(self).__name__, self._checks + (self.commutation,))


def _row_and_column(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operator entries stacked as a (d, n^2 d) row and an (n^2 d, d) column of blocks.

    Both come back with real and imaginary parts side by side, as the
    real arrays [re | im] and [re ; im].
    """
    n, _, d, _ = blocks.shape
    column = blocks.reshape(n * n * d, d)
    row = blocks.transpose(2, 0, 1, 3).reshape(d, n * n * d)
    return np.hstack([row.real, row.imag]), np.vstack([column.real, column.imag])


def _entry_products(column: np.ndarray, row: np.ndarray, out: np.ndarray) -> None:
    """Every block product (column block) @ (row block), written into the top half of ``out``.

    One real product yields Ar@Br, Ar@Bi, Ai@Br and Ai@Bi at once, in the
    quadrants of ``out``; each complex entry is then Ar@Br - Ai@Bi +
    i(Ar@Bi + Ai@Br), with the real parts left in the top left quadrant and
    the imaginary parts in the top right.  Built this way a@b and b@a round
    identically whenever each entry of the product has a single nonzero
    term, as for the entries of an embedded tensor model, so those
    commutators come out exactly zero.
    """
    h, w = column.shape[0] // 2, row.shape[1] // 2
    np.matmul(column, row, out=out)
    np.subtract(out[:h, :w], out[h:, w:], out=out[:h, :w])
    np.add(out[:h, w:], out[h:, :w], out=out[:h, w:])


def validate_commuting(model: CommutingModel) -> Check:
    """The commutation check of a commuting model (``model.commutation``), kept for tracers.

    ``CommutingModel.checks`` reads the record through this function, so
    that a tracer wrapping it (the benchmark's does) times the measurement.
    """
    return model.commutation


def embed_tensor_as_commuting(model: TensorModel) -> CommutingModel:
    """Realize a tensor model as a commuting model on H = H_A x H_B.

    U[x] is extended by the identity on H_B and V[y] by the identity on
    H_A, so the operator entries land in commuting subalgebras; the state
    is unchanged and the induced channel family is preserved exactly.

    The entries commute by construction, so the returned model carries a
    worst commutator of exactly 0 instead of measuring it.  It also carries
    the source model's unitarity and state records: U x I and I x V are
    unitary exactly when U and V are, and the state is the same, so the
    embedding of a non-unitary or overflowing model is still rejected, and
    that of a model its own checks accept is not.
    """
    n, m, dA, dB = model.n, model.m, model.dA, model.dB
    d = dA * dB
    U = (model.U[:, :, None, :, None] * np.eye(dB)[:, None, :]).reshape(m, n * d, n * d)
    # V[y] on (H_B, B') becomes I_dA x v_kl blocks, ancilla-major on (B', H_A, H_B)
    V = np.einsum("ybkcl,ae->ykablec", model.V.reshape(m, dB, n, dB, n), np.eye(dA))
    embedded = CommutingModel(n=n, m=m, d=d, state=model.state, U=U, V=V.reshape(U.shape))
    object.__setattr__(embedded, "_checks", model._checks)
    object.__setattr__(embedded, "commutation", Check("commutation", 0.0, embedded.tolerance))
    return embedded


def _fourier_phases(n: int, sign: int) -> np.ndarray:
    """Table exp(sign 2 pi i ((a a') mod n)/n) over labels a, a' = 1..n; it is symmetric.

    Phases are evaluated at (a a') mod n so that row and column n are
    exactly one.  Each entry is a separate scalar ``np.exp``: an exp over
    the whole table rounds some entries differently (n = 6).
    """
    return np.array([[np.exp(sign * 2j * np.pi * ((a * ap) % n) / n) for ap in range(1, n + 1)]
                     for a in range(1, n + 1)])


def _fourier_unitaries(projectors: np.ndarray, n: int) -> np.ndarray:
    """u[x, a'-1] = sum_a exp(2 pi i a a'/n) P[x, a-1] for labels a, a' = 1..n.

    Takes an (m, n, d, d) projector stack and returns the (m, n, d, d) stack of
    unitaries, summed outcome by outcome; u_n is exactly the completeness sum
    of the projectors.  Raises if any u is not unitary within tol(d), which
    means the projectors do not form a PVM.
    """
    d = projectors.shape[-1]
    phases = _fourier_phases(n, 1)
    u = np.zeros(projectors.shape, dtype=complex)
    for a in range(n):
        u += phases[:, a, None, None] * projectors[:, None, a]
    worst, where = _first_worst(_unitarity_defects(u.reshape(-1, d, d)), lambda worst, k: (
        f"worst ||u^dag u - I||_F {worst:.3e} at u_a' (a'={k % n + 1}, setting x={k // n + 1}, "
        "1-based labels)"))
    _require("Fourier combination of the projectors (not a PVM)",
             [Check("unitarity", worst, linalg.tol(d), where)])
    return u


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
    k = np.arange(n)
    U = np.zeros((m, n, dA, n, dA), dtype=complex)  # ancilla-major: (x, a', H_A, a', H_A)
    U[:, k, :, k] = _fourier_unitaries(alice.projectors, n).swapaxes(0, 1)
    V = np.zeros((m, dB, n, dB, n), dtype=complex)  # ancilla-minor: (y, H_B, b', H_B, b')
    V[:, :, k, :, k] = _fourier_unitaries(bob.projectors, n).swapaxes(0, 1)
    return TensorModel(n=n, m=m, dA=dA, dB=dB, state=state,
                       U=U.reshape(m, n * dA, n * dA), V=V.reshape(m, dB * n, dB * n))


def random_pvm_family(d: int, m: int, n: int, seed: int | None = None,
                      rng: np.random.Generator | None = None) -> PVMFamily:
    """Random projective measurements: Haar eigenbases with outcomes assigned round-robin.

    For d < n the trailing outcomes receive zero projectors, which is a
    legitimate degenerate PVM.
    """
    if rng is None:
        rng = linalg.rng_from_seed(0 if seed is None else seed)
    projectors = np.empty((m, n, d, d), dtype=complex)
    for x in range(m):
        Q = linalg.haar_unitary_from(rng, d)
        for a in range(n):
            cols = Q[:, a::n]
            projectors[x, a] = cols @ dag(cols)
    return PVMFamily(d=d, m=m, n=n, projectors=projectors)


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
