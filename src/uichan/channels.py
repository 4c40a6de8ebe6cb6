"""Induced channel families on the ancilla pair, computed two independent ways.

A model induces, per setting pair (x, y), a channel on the n^2-dimensional
ancilla pair A'B'.  This module computes that family

* directly, by conjugating the aligned input with the coupling unitaries
  and tracing out the mediating system:
  ``L(rho) = Tr_env[ W^dag align(rho x sigma) W ]`` with
  ``W = (U^x x I)(I x V^y)``, never formed.  The state enters as a factor
  pair sigma = left right^dag, (psi, psi) for a vector state and (sigma, I)
  for a density state; each factor's conjugate is contracted into U^x once
  per setting, then per pair V^y is applied and the sandwich
  conj(X_left) X_right^T is formed, all by plain matrix products; and
* from the moment table of the operator entries,
  ``T[i,j,l,k,p,r,t,s] = phi(u^x_ij (u^x_lk)* x v^y_pr (v^y_ts)*)``,
  via ``L(rho)[(k,s),(j,r)] = sum_{i,l,p,t} T[i,j,l,k,p,r,t,s] rho[(l,t),(i,p)]``.
  For a vector state psi the table is the inner products of words of
  entries applied to psi, <u_lk u_ij^dag psi, v_pr v_ts^dag psi>; for a
  density state each party's Gram products of operator entries are
  contracted with sigma.

Agreement of the two routes is the toolkit's central cross-check, so they
share no intermediate: the direct route uses only the factor-contracted
U and V, and the moment route only words of entries applied to psi or
Gram products contracted with sigma.

Vectorization is row-major and frozen: a matrix entry at row (k, s) and
column (j, r) of the composite ancilla space sits at flat vector index
``((k*n + s)*n^2 + (j*n + r))``; superoperators act on these flat vectors.
Each family is one read-only complex array whose two leading axes are the
setting pair: superoperators ``(m, m, n^4, n^4)`` and moment tables
``(m, m, n, n, n, n, n, n, n, n)``.  They hold the same numbers under a
fixed axis permutation, so ``moments_from_channel`` returns a view.  Both are
dense, so ``channel_direct`` and ``moment_table`` guard the ancilla dimension
at n <= 4 by default (override via their ``max_n``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, DomainError
from .models import (Check, CommutingModel, TensorModel, _checked_state, _first_worst,
                     _require, _setting_pair)

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

        The settings must lie in 0..m-1; the input must be an n^2 x n^2 density
        matrix within tol(n^2), the bound every state outside a model meets.
        """
        if not (0 <= x < self.m and 0 <= y < self.m):
            raise DimensionMismatchError(f"setting pair ({x}, {y}) out of range for m={self.m}")
        n2 = self.n ** 2
        A = _checked_state(linalg.as_matrix(rho, "input state"), n2, "input state")
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

    def conjugate_symmetry(self) -> Check:
        """Worst |T[i,j,l,k,p,r,t,s] - conj(T[l,k,i,j,t,s,p,r])| over the family, as a check."""
        T = self.tables
        gap = np.abs(T - np.conj(T.transpose(0, 1, 4, 5, 2, 3, 8, 9, 6, 7)))
        worst, where = _first_worst(gap, lambda worst, x, y, *index: (
            f"worst |T[i,j,l,k,p,r,t,s] - conj(T[l,k,i,j,t,s,p,r])| {worst:.3e} at (i, j, l, k, "
            f"p, r, t, s)=({', '.join(str(v + 1) for v in index)}) {_setting_pair(x, y)}"))
        return Check("conjugate_symmetry", worst, SYMMETRY_TOL, where)

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


def _unchecked(cls, **fields):
    """An instance of a family class around read-only arrays, skipping the constructor's copy."""
    family = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(family, name, value)
    return family


def _factor_contracted(model: TensorModel | CommutingModel, x: int, F: np.ndarray,
                       r: int):
    """X[a, e, k] = sum_E conj(F[E, k]) W[a, e, E] for each y, as (n^4, env r) blocks.

    F is a (D, K) stack of factors of r columns each.  conj(F) goes into U^x
    once, and V^y is applied after, per y, so W is never formed.  Yields,
    for y = 0..m-1, one matrix per factor: rows are W's ancilla legs (A' row,
    A' column, B' column, B' row), columns its mediating-system column legs,
    which are traced out, and the factor's columns.  Every step is one matrix
    product on views of U^x, a permuted copy of V^y and the product before.
    """
    n, K = model.n, F.shape[1]
    F_bar = np.conj(F)
    if isinstance(model, TensorModel):
        dA, dB = model.dA, model.dB
        # Y[G, O, (B, k), p] = sum_A conj(F)[(A, B), k] U[(G, A), (O, p)]
        Y = F_bar.reshape(dA, dB * K).T @ model.U[x].reshape(n, dA, n, dA).swapaxes(1, 2)
        inner, width = dB, dA  # V^y sums over B; each column k of Y carries its p leg
        legs, order = (dB, n, dB, n), (3, 1, 2, 0)  # V^y as rows (R, D, q), columns B
    else:
        d = model.d
        # Y[G, O, h, k] = sum_E U[(G, E), (O, h)] conj(F)[E, k]
        Y = model.U[x].reshape(n, d, n, d).transpose(0, 2, 3, 1) @ F_bar
        inner, width = d, 1
        legs, order = (n, d, n, d), (2, 0, 3, 1)  # V^y as rows (R, D, p), columns h
    Y = Y.reshape(n, n, inner, K * width)  # columns (k, p), or k alone
    step = r * width
    blocks = [Y[..., j:j + step] for j in range(0, K * width, step)]
    for V in model.V:
        V = V.reshape(legs).transpose(order).reshape(-1, inner)  # one setting's copy at a time
        yield [(V @ block).reshape(n ** 4, -1) for block in blocks]


def channel_direct(model: TensorModel | CommutingModel, max_n: int = DEFAULT_MAX_N) -> ChannelFamily:
    """Channel family by direct conjugation and partial trace.

    Schroedinger form L(rho) = Tr_env[W^dag align(rho x sigma) W]; each
    superoperator column is the response to one matrix-unit input (the
    per-unit sandwiches are evaluated in a single tensor contraction).

    The state is a factor pair sigma[e, E] = sum_k left[e, k] conj(right[E, k]):
    (psi, psi) for a vector state, (sigma, I) for a density state, which keeps
    sigma as given, as the moment route does.  ``_factor_contracted`` takes psi,
    or [sigma | I] stacked: the factors are contracted into U^x once per
    setting, then, per setting pair, V^y is applied and the sandwich
    conj(X_left) X_right^T is summed over env and k.  This route never forms
    a Gram product of operator entries; ``moment_table`` never forms W.
    """
    model.check()
    n, m = model.n, model.m
    _guard_n(n, max_n)
    if model.state_is_vector:
        F, r = model.state[:, None], 1  # left = right = psi
    else:
        r = len(model.state)
        F = np.hstack([model.state, np.eye(r)])  # [left | right]
    supers = np.empty((m, m) + (n,) * 8, dtype=complex)
    for x in range(m):
        for y, X in enumerate(_factor_contracted(model, x, F, r)):
            S = np.conj(X[0]) @ X[-1].T  # axes (g, o, r, d, G, O, R, D)
            supers[x, y] = S.reshape((n,) * 8).transpose(1, 2, 5, 6, 0, 3, 4, 7)
    supers.setflags(write=False)
    return _unchecked(ChannelFamily, n=n, m=m, supers=supers.reshape(m, m, n ** 4, n ** 4))


def _gram(blocks: np.ndarray) -> list[np.ndarray]:
    """Gram product G[i,j,a,l,k,c] = sum_b B[i,j,a,b] conj(B[l,k,c,b]) of each setting's blocks B.

    ``blocks`` is an (m, n, n, d, d) stack of operator entries; one G per
    setting, from one BLAS product F F^dag with F the blocks as an
    (n^2 d, d) matrix.  Only the moment route uses it, for density states.
    """
    n, d = blocks.shape[1], blocks.shape[-1]
    out = []
    for b in blocks:
        F = b.reshape(n * n * d, d)
        out.append((F @ F.conj().T).reshape(n, n, d, n, n, d))
    return out


def _psi_words(blocks: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Words w[x,i,j,l,k] = b_lk b_ij^dag psi of each setting's entries b, as (m, n, n, n, n, d, r).

    ``blocks`` is an (m, n, n, d, d) stack of operator entries acting on the
    rows of the (d, r) matrix ``psi``.  Two BLAS products per setting: every
    b_ij^dag psi, then every b_lk against all of them.  Only the moment route
    uses it, for vector states.
    """
    m, n, _, d, _ = blocks.shape
    r = psi.shape[1]
    half = np.conj(blocks.transpose(0, 1, 2, 4, 3).reshape(m, n * n * d, d) @ np.conj(psi))
    half = half.reshape(m, n * n, d, r).transpose(0, 2, 1, 3).reshape(m, d, n * n * r)
    words = blocks.reshape(m, n * n * d, d) @ half  # rows (l, k, c), columns (i, j, r)
    return words.reshape(m, n, n, d, n, n, r).transpose(0, 4, 5, 1, 2, 3, 6)


def moment_table(model: TensorModel | CommutingModel, max_n: int = DEFAULT_MAX_N) -> MomentTable:
    """Moments of entry products of the coupling unitaries against the model state.

    For a vector state psi, T[x,y] = <u_lk u_ij^dag psi, v_pr v_ts^dag psi>:
    words of entries applied to psi (``_psi_words``), then one matrix
    product over all setting pairs.  In a tensor model psi is a (dA, dB)
    matrix, Alice's entries act on its rows and Bob's on its columns.  For a
    density state each party's Gram products are formed once per setting
    (``_gram``), and sigma is contracted into Alice's once per setting; for
    tensor models the two legs form a genuine tensor product across H_A /
    H_B before the state is applied, for commuting models they multiply
    inside the one algebra.  This route never forms W.
    """
    model.check()
    n, m = model.n, model.m
    _guard_n(n, max_n)
    if model.state_is_vector:
        tensor = isinstance(model, TensorModel)
        psi = model.state.reshape(model.dA, model.dB) if tensor else model.state[:, None]
        alice = _psi_words(model.u_blocks(), psi)
        bob = _psi_words(model.v_blocks(), psi.T if tensor else psi).transpose(0, 3, 4, 1, 2, 6, 5)
        D, k = len(model.state), m * n ** 4
        T = np.conj(alice.reshape(k, D)) @ bob.reshape(k, D).T  # axes (x,i,j,l,k), (y,p,r,t,s)
        tables = T.reshape(((m,) + (n,) * 4) * 2).transpose(0, 5, 1, 2, 3, 4, 6, 7, 8, 9)
        return MomentTable(n=n, m=m, tables=tables)
    # the state goes into Alice's Gram products once per setting, then meets Bob's per pair
    sigma = model.density()
    if isinstance(model, TensorModel):
        sigma = sigma.reshape(model.dA, model.dB, model.dA, model.dB)
        with_state, pair = "ijAlka,abAB->ijlkbB", "ijlkbB,prBtsb->ijlkprts"
    else:
        with_state, pair = "ijflkg,ef->ijlkge", "ijlkge,prgtse->ijlkprts"
    SU = [np.einsum(with_state, G, sigma, optimize=True) for G in _gram(model.u_blocks())]
    GV = _gram(model.v_blocks())
    tables = np.empty((m, m) + (n,) * 8, dtype=complex)
    for x, y in np.ndindex(m, m):
        tables[x, y] = np.einsum(pair, SU[x], GV[y], optimize=True)
    return MomentTable(n=n, m=m, tables=tables)


SYMMETRY_TOL = 1e-6  # largest conjugate-symmetry defect channel_from_moments accepts


def channel_from_moments(table: MomentTable) -> ChannelFamily:
    """Assemble the channel family from a moment table.

    The moment tensor is, up to index bookkeeping, the superoperator itself:
    L(rho)[(k,s),(j,r)] = sum_{i,l,p,t} T[i,j,l,k,p,r,t,s] rho[(l,t),(i,p)].
    Tables whose conjugate-symmetry defect exceeds ``SYMMETRY_TOL`` are rejected.
    """
    n, m = table.n, table.m
    _require("moment table", [table.conjugate_symmetry()], DomainError)
    # the copy of a checked, read-only table needs no second copy or finiteness scan
    supers = table.tables.transpose(_T_TO_S).reshape(m, m, n ** 4, n ** 4)
    supers.setflags(write=False)
    return _unchecked(ChannelFamily, n=n, m=m, supers=supers)


def moments_from_channel(channel: ChannelFamily) -> MomentTable:
    """Read the moment table back off the superoperators, as a view of them.

    T[i,j,l,k,p,r,t,s] is the entry of L(E_li x E_tp) at output row (k, s),
    column (j, r).  The table shares memory with the (read-only) channel.
    """
    n, m = channel.n, channel.m
    return _unchecked(MomentTable, n=n, m=m,
                      tables=channel.supers.reshape((m, m) + (n,) * 8).transpose(_S_TO_T))


def choi(channel: ChannelFamily) -> np.ndarray:
    """Choi matrices J = sum_ab E_ab x L(E_ab) over the composite input index, (m, m, n^4, n^4)."""
    m, n2 = channel.m, channel.n ** 2
    S = channel.supers.reshape(m, m, n2, n2, n2, n2)  # (x, y, out_row, out_col, in_row, in_col)
    return S.transpose(0, 1, 4, 2, 5, 3).reshape(m, m, n2 * n2, n2 * n2)


CP_TOL = 1e-9  # cptp_report's choi_psd: the most negative Choi eigenvalue accepted
TP_TOL = 1e-10  # cptp_report's trace_preserving: the largest trace defect accepted


@dataclass(frozen=True)
class CPTPReport:
    """Complete-positivity and trace-preservation audit of a channel family."""

    min_choi_eigenvalue: float
    trace_defect: float
    choi_psd: Check
    trace_preserving: Check

    @property
    def accepted(self) -> bool:
        return self.choi_psd.passed and self.trace_preserving.passed


def cptp_report(channel: ChannelFamily) -> CPTPReport:
    """Audit every member: min Choi eigenvalue and max_ab |Tr L(E_ab) - delta_ab|.

    Each record names its worst setting pair; the first is taken, and a NaN counts as worst.
    """
    m, n2 = channel.m, channel.n ** 2
    w = np.linalg.eigvalsh(linalg._hermitian_part(choi(channel)))
    least, least_where = _first_worst(w[..., 0], lambda least, x, y: (
        f"least Choi eigenvalue {least:.3e} {_setting_pair(x, y)}"), least=True)
    # Tr L(E_ab) = sum_u S[(u,u),(a,b)]
    traces = channel.supers.reshape(m, m, n2, n2, n2 * n2).trace(axis1=2, axis2=3)
    worst, where = _first_worst(
        np.abs(traces.reshape(m, m, n2, n2) - np.eye(n2)), lambda worst, x, y, a, b: (
            f"worst |Tr L(E_ab) - delta_ab| {worst:.3e} at (a, b)=({a + 1}, {b + 1}) "
            f"{_setting_pair(x, y)}"))
    return CPTPReport(
        min_choi_eigenvalue=least, trace_defect=worst,
        choi_psd=Check("choi_psd", 0.0 if least >= 0 else -least, CP_TOL, least_where),
        trace_preserving=Check("trace_preserving", worst, TP_TOL, where))


def gap_check(name: str, a: ChannelFamily, b: ChannelFamily, tolerance: float) -> Check:
    """The largest |a - b| superoperator entry as a check, naming the first worst entry."""
    worst, where = _first_worst(np.abs(a.supers - b.supers), lambda worst, x, y, row, col: (
        f"worst |difference| {worst:.3e} at supers[{x}, {y}][{row}, {col}] {_setting_pair(x, y)}"))
    return Check(name, worst, tolerance, where)
