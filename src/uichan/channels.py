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
Superoperators and moment tables are stored dense, so the ancilla dimension
is guarded at n <= 4 by default (override via ``max_n``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, DomainError, InvalidModelError
from .linalg import dag
from .models import CommutingModel, TensorModel

DEFAULT_MAX_N = 4

#: axis permutation sending moment-table axes (i,j,l,k,p,r,t,s) to
#: superoperator axes (k,s,j,r,l,t,i,p), and its inverse.
_T_TO_S = (3, 7, 1, 5, 2, 6, 0, 4)
_S_TO_T = (6, 2, 4, 0, 7, 3, 5, 1)


def _guard_n(n: int, max_n: int) -> None:
    if n > max_n:
        raise DomainError(
            f"ancilla dimension n={n} exceeds the dense-storage guard (max_n={max_n}); "
            "pass max_n explicitly (or set UICHAN_MAX_N for the CLI) to override"
        )


@dataclass(frozen=True)
class ChannelFamily:
    """Per-(x, y) superoperators on row-major vectorized ancilla-pair states."""

    n: int
    m: int
    supers: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        n4 = self.n ** 4
        if len(self.supers) != self.m or any(len(row) != self.m for row in self.supers):
            raise DimensionMismatchError("supers must be an m x m grid")
        rows = []
        for row in self.supers:
            mats = []
            for S in row:
                A = linalg.as_matrix(S, "superoperator")
                if A.shape[0] != n4:
                    raise DimensionMismatchError(f"superoperator has dim {A.shape[0]}, expected {n4}")
                A = np.array(A)
                A.setflags(write=False)
                mats.append(A)
            rows.append(tuple(mats))
        object.__setattr__(self, "supers", tuple(rows))

    def apply_to(self, rho: np.ndarray, x: int, y: int) -> np.ndarray:
        """Output state of the (x, y) channel on one input density matrix."""
        n2 = self.n ** 2
        A = linalg.as_matrix(rho, "rho")
        if A.shape[0] != n2:
            raise DimensionMismatchError(f"input state has dim {A.shape[0]}, expected {n2}")
        return (self.supers[x][y] @ A.reshape(-1)).reshape(n2, n2)


@dataclass(frozen=True)
class MomentTable:
    """Per-(x, y) 8-index tensors of operator-entry moments, each index of size n."""

    n: int
    m: int
    tables: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        shape = (self.n,) * 8
        if len(self.tables) != self.m or any(len(row) != self.m for row in self.tables):
            raise DimensionMismatchError("tables must be an m x m grid")
        rows = []
        for row in self.tables:
            mats = []
            for T in row:
                A = np.asarray(T, dtype=complex)
                if A.shape != shape:
                    raise DimensionMismatchError(f"moment tensor has shape {A.shape}, expected {shape}")
                A = np.array(A)
                A.setflags(write=False)
                mats.append(A)
            rows.append(tuple(mats))
        object.__setattr__(self, "tables", tuple(rows))

    def conjugate_symmetry_defect(self) -> float:
        """Worst |T[i,j,l,k,p,r,t,s] - conj(T[l,k,i,j,t,s,p,r])| over the family."""
        worst = 0.0
        for row in self.tables:
            for T in row:
                worst = max(worst, float(np.max(np.abs(T - np.conj(T.transpose(2, 3, 0, 1, 6, 7, 4, 5))))))
        return worst

    def contraction_defects(self) -> dict[str, float]:
        """Unitarity-contraction residuals.

        Summing the moment tensor over a matched column-index pair on either
        leg must reproduce a Kronecker delta times the single-leg moments;
        summing over both legs must give delta * delta.
        """
        n = self.n
        eye = np.eye(n)
        d_u = d_v = d_uv = 0.0
        for row in self.tables:
            for T in row:
                left = np.einsum("ijljprts->ilprts", T)
                phi_v = np.einsum("iiprts->prts", left) / n
                d_u = max(d_u, float(np.max(np.abs(left - np.einsum("il,prts->ilprts", eye, phi_v)))))
                right = np.einsum("ijlkprtr->ijlkpt", T)
                phi_u = np.einsum("ijlkpp->ijlk", right) / n
                d_v = max(d_v, float(np.max(np.abs(right - np.einsum("ijlk,pt->ijlkpt", phi_u, eye)))))
                both = np.einsum("ijljprtr->ilpt", T)
                d_uv = max(d_uv, float(np.max(np.abs(both - np.einsum("il,pt->ilpt", eye, eye)))))
        return {"u_leg": d_u, "v_leg": d_v, "both_legs": d_uv}


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
    v_phys = linalg.permute_registers(model.V[y], (n, d), (1, 0))  # (H, B') legs
    return linalg.kron(model.U[x], np.eye(n)) @ linalg.kron(np.eye(n), v_phys)


def channel_direct(model: TensorModel | CommutingModel, max_n: int = DEFAULT_MAX_N) -> ChannelFamily:
    """Channel family by direct conjugation and partial trace.

    Schroedinger form L(rho) = Tr_env[W^dag align(rho x sigma) W]; each
    superoperator column is the response to one matrix-unit input (the
    per-unit sandwiches are evaluated in a single tensor contraction).
    """
    _check_model(model)
    n = model.n
    _guard_n(n, max_n)
    dims, sigma = _dims_and_tensor(model)
    n4 = n ** 4
    grid = []
    for x in range(model.m):
        row = []
        for y in range(model.m):
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
            row.append(S.reshape(n4, n4))
        grid.append(tuple(row))
    return ChannelFamily(n=n, m=model.m, supers=tuple(grid))


def moment_table(model: TensorModel | CommutingModel, max_n: int = DEFAULT_MAX_N) -> MomentTable:
    """Moments of entry products of the coupling unitaries against the model state.

    For tensor models the two legs form a genuine tensor product across
    H_A / H_B before the state is applied; for commuting models they
    multiply inside the one algebra.
    """
    _check_model(model)
    n = model.n
    _guard_n(n, max_n)
    grid = []
    if isinstance(model, TensorModel):
        sig4 = model.density().reshape(model.dA, model.dB, model.dA, model.dB)
        for x in range(model.m):
            ub = model.u_blocks(x)
            PA = np.einsum("ijab,lkcb->ijlkac", ub, np.conj(ub))
            row = []
            for y in range(model.m):
                vb = model.v_blocks(y)
                PB = np.einsum("prab,tscb->prtsac", vb, np.conj(vb))
                T = np.einsum("ijlkAa,prtsBb,abAB->ijlkprts", PA, PB, sig4, optimize=True)
                row.append(T)
            grid.append(tuple(row))
    else:
        sigma = model.density()
        for x in range(model.m):
            ub = model.u_blocks(x)
            MA = np.einsum("ijab,lkcb->ijlkac", ub, np.conj(ub))
            row = []
            for y in range(model.m):
                vb = model.v_blocks(y)
                MB = np.einsum("prab,tscb->prtsac", vb, np.conj(vb))
                T = np.einsum("ef,ijlkfg,prtsge->ijlkprts", sigma, MA, MB, optimize=True)
                row.append(T)
            grid.append(tuple(row))
    return MomentTable(n=n, m=model.m, tables=tuple(grid))


def channel_from_moments(table: MomentTable, max_n: int = DEFAULT_MAX_N,
                         symmetry_tol: float = 1e-6) -> ChannelFamily:
    """Assemble the channel family from a moment table.

    The moment tensor is, up to index bookkeeping, the superoperator itself:
    L(rho)[(k,s),(j,r)] = sum_{i,l,p,t} T[i,j,l,k,p,r,t,s] rho[(l,t),(i,p)].
    Grossly conjugate-asymmetric tables are rejected.
    """
    _guard_n(table.n, max_n)
    defect = table.conjugate_symmetry_defect()
    if defect > symmetry_tol:
        raise DomainError(
            f"moment table conjugate-symmetry defect {defect:.3e} exceeds {symmetry_tol:.1e}"
        )
    n4 = table.n ** 4
    grid = tuple(
        tuple(T.transpose(_T_TO_S).reshape(n4, n4) for T in row)
        for row in table.tables
    )
    return ChannelFamily(n=table.n, m=table.m, supers=grid)


def moments_from_channel(channel: ChannelFamily) -> MomentTable:
    """Read the moment table back off the superoperators.

    T[i,j,l,k,p,r,t,s] is the entry of L(E_li x E_tp) at output row (k, s),
    column (j, r).
    """
    n = channel.n
    grid = tuple(
        tuple(S.reshape((n,) * 8).transpose(_S_TO_T) for S in row)
        for row in channel.supers
    )
    return MomentTable(n=n, m=channel.m, tables=grid)


def choi(channel: ChannelFamily) -> tuple[tuple[np.ndarray, ...], ...]:
    """Choi matrices J = sum_ab E_ab x L(E_ab) over the composite input index."""
    n2 = channel.n ** 2
    out = []
    for row in channel.supers:
        mats = []
        for S in row:
            S4 = S.reshape(n2, n2, n2, n2)  # (out_row, out_col, in_row, in_col)
            mats.append(S4.transpose(2, 0, 3, 1).reshape(n2 * n2, n2 * n2))
        out.append(tuple(mats))
    return tuple(out)


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
    n2 = channel.n ** 2
    min_eig = np.inf
    tp = 0.0
    eye = np.eye(n2)
    for row_j, row_s in zip(choi(channel), channel.supers):
        for J, S in zip(row_j, row_s):
            w = np.linalg.eigvalsh((J + dag(J)) / 2)
            min_eig = min(min_eig, float(w[0]))
            # Tr L(E_ab) = sum_u S[(u,u),(a,b)]
            traces = S.reshape(n2, n2, n2 * n2).trace(axis1=0, axis2=1).reshape(n2, n2)
            tp = max(tp, float(np.max(np.abs(traces - eye))))
    return CPTPReport(min_choi_eigenvalue=float(min_eig), trace_defect=tp)


def apply(channel: ChannelFamily, rho: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """Image family {L_xy(rho)} of one input state under every member channel."""
    n2 = channel.n ** 2
    A = linalg.as_matrix(rho, "rho")
    if A.shape[0] != n2:
        raise DimensionMismatchError(f"input state has dim {A.shape[0]}, expected {n2}")
    t = linalg.tol(n2)
    scale = max(1.0, float(np.linalg.norm(A)))
    if linalg.hermiticity_defect(A) > t * scale:
        raise DomainError("input is not hermitian within tolerance")
    w = np.linalg.eigvalsh((A + dag(A)) / 2)
    if w[0] < -1e-9 * scale or abs(float(np.real(np.trace(A))) - 1.0) > t:
        raise DomainError("input is not a unit-trace PSD state within tolerance")
    return tuple(
        tuple(channel.apply_to(A, x, y) for y in range(channel.m))
        for x in range(channel.m)
    )
