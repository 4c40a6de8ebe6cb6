"""From channel families to Bell behaviours and back.

The bridge works through the diagonal moments of a channel family.  Fourier
combinations of a PVM give per-setting unitaries; conversely, Fourier
contractions of a channel's diagonal moments give a sub-POVM behaviour
which a completion on the last outcome turns into a genuine behaviour.
For channels lifted from a PVM strategy the completion is trivial and the
extracted behaviour reproduces the Born rule exactly.

Outcome and setting labels are 1-based (matching p(ab|xy) notation); the
completed outcome is the last one, a = n.  Arrays are indexed 0-based, so
label a lives at index a - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ChannelFamily, moments_from_channel
from .errors import (DimensionMismatchError, DomainError, InconsistentChannelError,
                     InvalidModelError)
from .models import (CommutingModel, PVMFamily, TensorModel, _fourier_phases, _freeze_state,
                     _require_within, _state_defect)


def fourier_coeffs(n: int) -> np.ndarray:
    """Read-only (n, n) table c[a, a'] = (1/n) exp(-2 pi i a a'/n) for labels a, a' = 1..n.

    These inverse-transform coefficients recover each projector from the
    lifted unitaries: P_{a|x} = sum_{a'} c[a, a'] u^x_{a'}.  Row a = n is
    exactly (1/n, ..., 1/n).
    """
    if n < 1:
        raise DimensionMismatchError(f"n must be positive, got {n}")
    c = _fourier_phases(n, -1) / n
    c.setflags(write=False)
    return c


NEG_TOL = 1e-9  # Behaviour.check: the most negative probability accepted
NORM_TOL = 1e-10  # Behaviour.check: the largest per-(x, y) normalization residual accepted


@dataclass(frozen=True)
class Behaviour:
    """Conditional probability table p[a, b, x, y] (0-based indices for 1-based labels)."""

    n: int
    m: int
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (self.n, self.n, self.m, self.m):
            raise DimensionMismatchError(
                f"behaviour table has shape {arr.shape}, expected {(self.n, self.n, self.m, self.m)}"
            )
        if not np.isfinite(arr).all():
            raise DomainError("behaviour table has non-finite entries")
        arr = np.array(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def defects(self) -> dict[str, float]:
        """Most negative entry and worst per-(x,y) normalization residual."""
        neg = max(0.0, -float(self.p.min()))
        norm = float(np.max(np.abs(self.p.sum(axis=(0, 1)) - 1.0)))
        return {"negativity": neg, "normalization": norm}

    def check(self) -> None:
        d = self.defects()
        if d["negativity"] > NEG_TOL or d["normalization"] > NORM_TOL:
            raise InvalidModelError(f"behaviour defects {d} exceed tolerances")


def _product_projectors(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Every P[x, a] x Q[y, b] of two (m, n, d, d) stacks, as one array indexed [x, y, a, b]."""
    m, n, dA, _ = P.shape
    dB = Q.shape[-1]
    K = P[:, None, :, None, :, None, :, None] * Q[None, :, None, :, None, :, None, :]
    return K.reshape(m, m, n, n, dA * dB, dA * dB)


def behaviour_direct(alice: PVMFamily, bob: PVMFamily, state: np.ndarray) -> Behaviour:
    """Born-rule behaviour p(ab|xy) = <P_{a|x} x Q_{b|y}> of checked PVMs in a checked state."""
    if alice.n != bob.n or alice.m != bob.m:
        raise DimensionMismatchError("PVM families must share outcome and setting counts")
    alice.check()
    bob.check()
    d = alice.d * bob.d
    s = _freeze_state(state, d, "state")
    _require_within("state", {"state": _state_defect(s)}, linalg.tol(d))
    rho = np.outer(s, np.conj(s)) if s.ndim == 1 else s
    ops = _product_projectors(alice.projectors, bob.projectors)
    p = np.real(np.trace(rho @ ops, axis1=-2, axis2=-1))  # (x, y, a, b)
    return Behaviour(n=alice.n, m=alice.m, p=p.transpose(2, 3, 0, 1))


def diagonal_moment_behaviour(channel: ChannelFamily) -> np.ndarray:
    """Raw (sub-normalized) values q[a, b, x, y] from the diagonal moments.

    q(ab|xy) = sum_{j,k,r,s} c_aj conj(c_ak) c_br conj(c_bs) T[j,j,k,k,r,r,s,s];
    complex, returned unclamped.
    """
    c = fourier_coeffs(channel.n)
    tdiag = np.einsum("...jjkkrrss->...jkrs", moments_from_channel(channel).tables)
    return np.einsum("aj,ak,br,bs,xyjkrs->abxy", c, np.conj(c), c, np.conj(c), tdiag)


IMAG_TOL = 1e-6  # largest imaginary residue behaviour_from_channel accepts


def behaviour_from_channel(channel: ChannelFamily) -> Behaviour:
    """Extract a behaviour from a channel family via its diagonal moments.

    The raw table is completed on the last outcome of each side using the
    single-leg moments recovered through the unitarity contractions, which
    makes every (x, y) cell sum to one exactly.  Channels whose extracted
    table carries imaginary residue beyond ``IMAG_TOL`` are rejected.

    The completion runs cell by cell: the same reductions over all cells at
    once sum in another order and move the table in its last bits.
    """
    n, m = channel.n, channel.m
    c = fourier_coeffs(n)
    table = moments_from_channel(channel)
    q = diagonal_moment_behaviour(channel)
    p_hat = np.array(q)
    for x, y in np.ndindex(m, m):
        T = table.tables[x, y]
        phi1v = np.einsum("ijijrrss->rs", T) / n     # phi(1 x v_rr v_ss^dag)
        phi1u = np.einsum("jjkkprpr->jk", T) / n     # phi(u_jj u_kk^dag x 1)
        marg_b = np.einsum("br,bs,rs->b", c, np.conj(c), phi1v)
        marg_a = np.einsum("aj,ak,jk->a", c, np.conj(c), phi1u)
        cell = q[:, :, x, y]
        p_hat[n - 1, :, x, y] += marg_b - cell.sum(axis=0)
        p_hat[:, n - 1, x, y] += marg_a - cell.sum(axis=1)
        p_hat[n - 1, n - 1, x, y] += 1.0 - marg_a.sum() - marg_b.sum() + cell.sum()
    residue = float(np.max(np.abs(p_hat.imag)))
    if residue > IMAG_TOL:
        raise InconsistentChannelError(
            f"extracted behaviour has imaginary residue {residue:.3e} > {IMAG_TOL:.1e}")
    return Behaviour(n=n, m=m, p=p_hat.real)


def bell_value(behaviour: Behaviour, functional: np.ndarray) -> float:
    """Linear functional sum_{abxy} f[a,b,x,y] p(ab|xy)."""
    f = np.asarray(functional, dtype=float)
    if f.shape != behaviour.p.shape:
        raise DimensionMismatchError(
            f"functional shape {f.shape} does not match behaviour {behaviour.p.shape}"
        )
    return float(np.sum(f * behaviour.p))


def sub_povm_total_bound(model: TensorModel | CommutingModel) -> float:
    """Max eigenvalue of the recovered sub-POVM totals (1/n) sum_a u_aa u_aa^dag.

    Valid models keep this at or below one; lifted PVM strategies sit at
    exactly one because their diagonal blocks are unitary.
    """
    n, k = model.n, np.arange(model.n)
    worst = -np.inf
    for blocks in (model.u_blocks(), model.v_blocks()):
        diag = blocks[:, k, k]  # (m, n, d, d): the blocks u_aa of every setting
        total = np.einsum("xaij,xakj->xik", diag, np.conj(diag)) / n
        w = np.linalg.eigvalsh((total + np.conj(np.swapaxes(total, -1, -2))) / 2)
        worst = max(worst, float(np.max(w[:, -1])))
    return worst


def chsh_functional() -> np.ndarray:
    """CHSH game win probability as a functional table (n = m = 2).

    f[a,b,x,y] = 1/4 when the outcome bits satisfy a xor b = x and y,
    with labels mapped to bits via label - 1.
    """
    a, b, x, y = np.indices((2, 2, 2, 2))
    return np.where((a ^ b) == (x & y), 0.25, 0.0)


def _qubit_pvm(angle: float) -> tuple[np.ndarray, np.ndarray]:
    v0 = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
    v1 = np.array([-np.sin(angle), np.cos(angle)], dtype=complex)
    return np.outer(v0, np.conj(v0)), np.outer(v1, np.conj(v1))


def chsh_optimal_strategy() -> tuple[PVMFamily, PVMFamily, np.ndarray]:
    """Qubit strategy reaching the quantum CHSH optimum (2 + sqrt(2))/4."""
    alice = PVMFamily(d=2, m=2, n=2, projectors=(_qubit_pvm(0.0), _qubit_pvm(np.pi / 4)))
    bob = PVMFamily(d=2, m=2, n=2, projectors=(_qubit_pvm(np.pi / 8), _qubit_pvm(-np.pi / 8)))
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
    return alice, bob, psi
