"""Induced channel families on the ancilla pair, computed two independent ways.

A model induces, per setting pair (x, y), a channel on the n^2-dimensional
ancilla pair A'B'.  This module computes that family

* directly, by conjugating the aligned input with the coupling unitaries
  and tracing out the mediating system:
  ``L(rho) = Tr_env[ W^dag align(rho x sigma) W ]`` with
  ``W = (U^x x I)(I x V^y)``; and
* from the moment table of the operator entries,
  ``T[i,j,l,k,p,r,t,s] = phi(u^x_ij (u^x_lk)* x v^y_pr (v^y_ts)*)``,
  via ``L(rho)[(k,s),(j,r)] = sum_{i,l,p,t} T[i,j,l,k,p,r,t,s] rho[(l,t),(i,p)]``.

Agreement of the two routes is the toolkit's central cross-check.

Vectorization is row-major and frozen: a matrix entry at row (k, s) and
column (j, r) of the composite ancilla space sits at flat vector index
``((k*n + s)*n^2 + (j*n + r))``; superoperators act on these flat vectors.
Each family is one read-only complex array whose two leading axes are the
setting pair: superoperators ``(m, m, n^4, n^4)`` and moment tables
``(m, m, n, n, n, n, n, n, n, n)``.  They hold the same numbers under a
fixed axis permutation, so ``moments_from_channel`` returns a view.  Both are
dense, so the ancilla dimension is guarded at n <= 4 by default (override
via ``max_n``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, DomainError, InvalidModelError
from .linalg import dag
from .models import CommutingModel, TensorModel

DEFAULT_MAX_N = 4

#: axis permutation sending moment-table axes (x,y,i,j,l,k,p,r,t,s) to
#: superoperator axes (x,y,k,s,j,r,l,t,i,p), and its inverse.
_T_TO_S = (0, 1, 5, 9, 3, 7, 4, 8, 2, 6)
_S_TO_T = (0, 1, 8, 4, 6, 2, 9, 5, 7, 3)


def _guard_n(n: int, max_n: int) -> None:
    if n > max_n:
        raise DomainError(
            f"ancilla dimension n={n} exceeds the dense-storage guard (max_n={max_n}); "
            "pass max_n explicitly (or set UICHAN_MAX_N for the CLI) to override"
        )


@dataclass(frozen=True)
class ChannelFamily:
    """Superoperators on row-major vectorized ancilla-pair states.

    ``supers[x, y]`` (equally ``supers[x][y]``) is the n^4 x n^4 matrix of
    the (x, y) member.
    """

    n: int
    m: int
    supers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "supers", linalg.frozen(
            self.supers, (self.m, self.m), (self.n ** 4,) * 2, "superoperator"))

    def apply_to(self, rho: np.ndarray, x: int, y: int) -> np.ndarray:
        """Output state of the (x, y) channel on one input density matrix.

        The settings must lie in 0..m-1; the input must be Hermitian, positive
        semidefinite and of unit trace within tolerance.
        """
        if not (0 <= x < self.m and 0 <= y < self.m):
            raise DimensionMismatchError(f"setting pair ({x}, {y}) out of range for m={self.m}")
        n2 = self.n ** 2
        A = linalg.as_matrix(rho, "rho")
        if A.shape[0] != n2:
            raise DimensionMismatchError(f"input state has dim {A.shape[0]}, expected {n2}")
        t = linalg.tol(n2)
        scale = max(1.0, float(np.linalg.norm(A)))
        if not linalg.hermiticity_defect(A) <= t * scale:
            raise DomainError("input is not hermitian within tolerance")
        w = np.linalg.eigvalsh((A + dag(A)) / 2)
        if not (w[0] >= -1e-9 * scale and abs(float(np.real(np.trace(A))) - 1.0) <= t):
            raise DomainError("input is not a unit-trace PSD state within tolerance")
        return (self.supers[x, y] @ A.reshape(-1)).reshape(n2, n2)


@dataclass(frozen=True)
class MomentTable:
    """Operator-entry moments; ``tables[x, y]`` is an 8-index tensor, each index of size n."""

    n: int
    m: int
    tables: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tables", linalg.frozen(
            self.tables, (self.m, self.m), (self.n,) * 8, "moment tensor"))

    def conjugate_symmetry_defect(self) -> float:
        """Worst |T[i,j,l,k,p,r,t,s] - conj(T[l,k,i,j,t,s,p,r])| over the family."""
        T = self.tables
        return float(np.max(np.abs(T - np.conj(T.transpose(0, 1, 4, 5, 2, 3, 8, 9, 6, 7)))))

    def contraction_defects(self) -> dict[str, float]:
        """Unitarity-contraction residuals.

        Summing the moment tensor over a matched column-index pair on either
        leg must reproduce a Kronecker delta times the single-leg moments;
        summing over both legs must give delta * delta.
        """
        n, T = self.n, self.tables
        eye = np.eye(n)
        left = np.einsum("...ijljprts->...ilprts", T)
        phi_v = np.einsum("...iiprts->...prts", left) / n
        right = np.einsum("...ijlkprtr->...ijlkpt", T)
        phi_u = np.einsum("...ijlkpp->...ijlk", right) / n
        both = np.einsum("...ijljprtr->...ilpt", T)
        return {
            "u_leg": float(np.max(np.abs(left - np.einsum("il,...prts->...ilprts", eye, phi_v)))),
            "v_leg": float(np.max(np.abs(right - np.einsum("...ijlk,pt->...ijlkpt", phi_u, eye)))),
            "both_legs": float(np.max(np.abs(both - np.einsum("il,pt->ilpt", eye, eye)))),
        }


def _dims_and_tensor(model: TensorModel | CommutingModel):
    """Full-space register dimensions and the (possibly densified) mediating state."""
    if isinstance(model, TensorModel):
        return (model.n, model.dA, model.dB, model.n), model.density()
    return (model.n, model.d, model.n), model.density()


def _check_model(model: TensorModel | CommutingModel) -> None:
    model.check()
    if isinstance(model, CommutingModel):
        report = model.commutation
        if not report.accepted:
            raise InvalidModelError(
                f"commuting model rejected: max commutator {report.max_commutator:.3e}, "
                f"max unitarity defect {report.max_unitarity_defect:.3e} "
                f"(tolerance {report.tolerance:.3e})"
            )


def coupling_unitary(model: TensorModel | CommutingModel, x: int, y: int) -> np.ndarray:
    """W = (U^x x I)(I x V^y) on the full register order of the model."""
    if isinstance(model, TensorModel):
        return linalg.kron(model.U[x], model.V[y])
    n, d = model.n, model.d
    # swap the stored (B', H) legs to the physical (H, B') order
    v_phys = model.V[y].reshape(n, d, n, d).transpose(1, 0, 3, 2).reshape(n * d, n * d)
    return linalg.kron(model.U[x], np.eye(n)) @ linalg.kron(np.eye(n), v_phys)


def channel_direct(model: TensorModel | CommutingModel, max_n: int = DEFAULT_MAX_N) -> ChannelFamily:
    """Channel family by direct conjugation and partial trace.

    Schroedinger form L(rho) = Tr_env[W^dag align(rho x sigma) W]; each
    superoperator column is the response to one matrix-unit input (the
    per-unit sandwiches are evaluated in a single tensor contraction).
    """
    _check_model(model)
    n, m = model.n, model.m
    _guard_n(n, max_n)
    dims, sigma = _dims_and_tensor(model)
    n4 = n ** 4
    supers = np.empty((m, m, n4, n4), dtype=complex)
    for x in range(m):
        for y in range(m):
            W = coupling_unitary(model, x, y)
            if isinstance(model, TensorModel):
                W8 = W.reshape(dims + dims)
                sig4 = sigma.reshape(model.dA, model.dB, model.dA, model.dB)
                S = np.einsum("gabdopqr,abAB,GABDOpqR->orORgdGD",
                              np.conj(W8), sig4, W8, optimize=True)
            else:
                W6 = W.reshape(dims + dims)
                S = np.einsum("gedopr,eE,GEDOpR->orORgdGD",
                              np.conj(W6), sigma, W6, optimize=True)
            supers[x, y] = S.reshape(n4, n4)
    return ChannelFamily(n=n, m=m, supers=supers)


def _gram(blocks: np.ndarray) -> list[np.ndarray]:
    """Gram product G[i,j,l,k,a,c] = sum_b B[i,j,a,b] conj(B[l,k,c,b]) of each setting's blocks B.

    ``blocks`` is an (m, n, n, d, d) stack of operator entries; one G per setting.
    """
    return [np.einsum("ijab,lkcb->ijlkac", b, np.conj(b)) for b in blocks]


def moment_table(model: TensorModel | CommutingModel, max_n: int = DEFAULT_MAX_N) -> MomentTable:
    """Moments of entry products of the coupling unitaries against the model state.

    For tensor models the two legs form a genuine tensor product across
    H_A / H_B before the state is applied; for commuting models they
    multiply inside the one algebra.  Each party's Gram products are formed
    once per setting.
    """
    _check_model(model)
    n, m = model.n, model.m
    _guard_n(n, max_n)
    # each kind keeps its own operand order: einsum's path, and so the bits, follow it
    if isinstance(model, TensorModel):
        sig4 = model.density().reshape(model.dA, model.dB, model.dA, model.dB)

        def contract(GA, GB):
            return np.einsum("ijlkAa,prtsBb,abAB->ijlkprts", GA, GB, sig4, optimize=True)
    else:
        sigma = model.density()

        def contract(GA, GB):
            return np.einsum("ef,ijlkfg,prtsge->ijlkprts", sigma, GA, GB, optimize=True)
    GU, GV = _gram(model.u_blocks()), _gram(model.v_blocks())
    tables = np.empty((m, m) + (n,) * 8, dtype=complex)
    for x, y in np.ndindex(m, m):
        tables[x, y] = contract(GU[x], GV[y])
    return MomentTable(n=n, m=m, tables=tables)


def channel_from_moments(table: MomentTable, max_n: int = DEFAULT_MAX_N,
                         symmetry_tol: float = 1e-6) -> ChannelFamily:
    """Assemble the channel family from a moment table.

    The moment tensor is, up to index bookkeeping, the superoperator itself:
    L(rho)[(k,s),(j,r)] = sum_{i,l,p,t} T[i,j,l,k,p,r,t,s] rho[(l,t),(i,p)].
    Grossly conjugate-asymmetric tables are rejected.
    """
    n, m = table.n, table.m
    _guard_n(n, max_n)
    defect = table.conjugate_symmetry_defect()
    if not defect <= symmetry_tol:
        raise DomainError(
            f"moment table conjugate-symmetry defect {defect:.3e} exceeds {symmetry_tol:.1e}"
        )
    supers = table.tables.transpose(_T_TO_S).reshape(m, m, n ** 4, n ** 4)
    return ChannelFamily(n=n, m=m, supers=supers)


def moments_from_channel(channel: ChannelFamily) -> MomentTable:
    """Read the moment table back off the superoperators, as a view of them.

    T[i,j,l,k,p,r,t,s] is the entry of L(E_li x E_tp) at output row (k, s),
    column (j, r).  The table shares memory with the (read-only) channel.
    """
    n, m = channel.n, channel.m
    table = object.__new__(MomentTable)  # skip the constructor's copy
    for name, value in (("n", n), ("m", m),
                        ("tables", channel.supers.reshape((m, m) + (n,) * 8).transpose(_S_TO_T))):
        object.__setattr__(table, name, value)
    return table


def choi(channel: ChannelFamily) -> np.ndarray:
    """Choi matrices J = sum_ab E_ab x L(E_ab) over the composite input index, (m, m, n^4, n^4)."""
    m, n2 = channel.m, channel.n ** 2
    S = channel.supers.reshape(m, m, n2, n2, n2, n2)  # (x, y, out_row, out_col, in_row, in_col)
    return S.transpose(0, 1, 4, 2, 5, 3).reshape(m, m, n2 * n2, n2 * n2)


@dataclass(frozen=True)
class CPTPReport:
    """Complete-positivity and trace-preservation audit of a channel family."""

    min_choi_eigenvalue: float
    trace_defect: float
    cp_tol: float = 1e-9
    tp_tol: float = 1e-10

    @property
    def completely_positive(self) -> bool:
        return self.min_choi_eigenvalue >= -self.cp_tol

    @property
    def trace_preserving(self) -> bool:
        return self.trace_defect <= self.tp_tol

    @property
    def accepted(self) -> bool:
        return self.completely_positive and self.trace_preserving


def cptp_report(channel: ChannelFamily) -> CPTPReport:
    """Audit every member: min Choi eigenvalue and max_ab |Tr L(E_ab) - delta_ab|."""
    m, n2 = channel.m, channel.n ** 2
    J = choi(channel)
    w = np.linalg.eigvalsh((J + np.conj(np.swapaxes(J, -1, -2))) / 2)
    # Tr L(E_ab) = sum_u S[(u,u),(a,b)]
    traces = channel.supers.reshape(m, m, n2, n2, n2 * n2).trace(axis1=2, axis2=3)
    return CPTPReport(min_choi_eigenvalue=float(np.min(w[..., 0])),
                      trace_defect=float(np.max(np.abs(traces.reshape(m, m, n2, n2) - np.eye(n2)))))
