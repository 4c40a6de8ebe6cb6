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
from .models import CommutingModel, PVMFamily, TensorModel, _fourier_unitaries


@dataclass(frozen=True)
class FourierCoeffs:
    """c[a, a'] = (1/n) exp(-2 pi i a a'/n) for labels a, a' = 1..n."""

    n: int
    c: np.ndarray

    def inverse_defect(self) -> float:
        """Residual of sum_{a'} c[a,a'] exp(2 pi i b a'/n) = delta_ab."""
        n = self.n
        back = np.array([[np.exp(2j * np.pi * ((b * ap) % n) / n) for b in range(1, n + 1)]
                         for ap in range(1, n + 1)])
        return float(np.max(np.abs(self.c @ back - np.eye(n))))


def fourier_coeffs(n: int) -> FourierCoeffs:
    """Inverse-transform coefficients reconstructing projectors from the lifted unitaries."""
    if n < 1:
        raise DimensionMismatchError(f"n must be positive, got {n}")
    # phases evaluated at (a*a') mod n so row a = n is exactly (1/n, ..., 1/n)
    c = np.array([[np.exp(-2j * np.pi * ((a * ap) % n) / n) / n for ap in range(1, n + 1)]
                  for a in range(1, n + 1)])
    c.setflags(write=False)
    return FourierCoeffs(n=n, c=c)


def unitaries_from_pvm(family: PVMFamily) -> np.ndarray:
    """Per-setting unitaries u^x_{a'} = sum_a exp(2 pi i a a'/n) P_{a|x}, as (m, n, d, d).

    The last unitary (a' = n) is the completeness sum, i.e. the identity;
    every projector is recovered as P_{a|x} = sum_{a'} c[a,a'] u^x_{a'}.
    """
    family.check()
    return _fourier_unitaries(family.projectors, family.n)


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

    def check(self, neg_tol: float = 1e-9, norm_tol: float = 1e-10) -> None:
        d = self.defects()
        if d["negativity"] > neg_tol or d["normalization"] > norm_tol:
            raise InvalidModelError(f"behaviour defects {d} exceed tolerances")


def _product_projectors(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Every P[x, a] x Q[y, b] of two (m, n, d, d) stacks, as one array indexed [x, y, a, b]."""
    m, n, dA, _ = P.shape
    dB = Q.shape[-1]
    K = P[:, None, :, None, :, None, :, None] * Q[None, :, None, :, None, :, None, :]
    return K.reshape(m, m, n, n, dA * dB, dA * dB)


def behaviour_direct(alice: PVMFamily, bob: PVMFamily, state: np.ndarray) -> Behaviour:
    """Born-rule behaviour p(ab|xy) = <P_{a|x} x Q_{b|y}> in the given joint state."""
    if alice.n != bob.n or alice.m != bob.m:
        raise DimensionMismatchError("PVM families must share outcome and setting counts")
    d = alice.d * bob.d
    s = np.asarray(state, dtype=complex)
    if s.ndim == 1:
        if s.shape[0] != d:
            raise DimensionMismatchError(f"state vector has length {s.shape[0]}, expected {d}")
        rho = np.outer(s, np.conj(s))
    else:
        rho = linalg.as_matrix(s, "state")
        if rho.shape[0] != d:
            raise DimensionMismatchError(f"state has dim {rho.shape[0]}, expected {d}")
    ops = _product_projectors(alice.projectors, bob.projectors)
    p = np.real(np.trace(rho @ ops, axis1=-2, axis2=-1))  # (x, y, a, b)
    return Behaviour(n=alice.n, m=alice.m, p=p.transpose(2, 3, 0, 1))


def diagonal_moment_behaviour(channel: ChannelFamily) -> np.ndarray:
    """Raw (sub-normalized) values q[a, b, x, y] from the diagonal moments.

    q(ab|xy) = sum_{j,k,r,s} c_aj conj(c_ak) c_br conj(c_bs) T[j,j,k,k,r,r,s,s];
    complex, returned unclamped.
    """
    c = fourier_coeffs(channel.n).c
    tdiag = np.einsum("...jjkkrrss->...jkrs", moments_from_channel(channel).tables)
    return np.einsum("aj,ak,br,bs,xyjkrs->abxy", c, np.conj(c), c, np.conj(c), tdiag)


def behaviour_from_channel(channel: ChannelFamily, imag_tol: float = 1e-6) -> Behaviour:
    """Extract a behaviour from a channel family via its diagonal moments.

    The raw table is completed on the last outcome of each side using the
    single-leg moments recovered through the unitarity contractions, which
    makes every (x, y) cell sum to one exactly.  Channels whose extracted
    table carries imaginary residue beyond ``imag_tol`` are rejected.

    The completion runs cell by cell: the same reductions over all cells at
    once sum in another order and move the table in its last bits.
    """
    n, m = channel.n, channel.m
    c = fourier_coeffs(n).c
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
    if residue > imag_tol:
        raise InconsistentChannelError(
            f"extracted behaviour has imaginary residue {residue:.3e} > {imag_tol:.1e}"
        )
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


def normalization_functional(n: int, m: int) -> np.ndarray:
    """Coefficients 1/m^2 everywhere; evaluates to 1 on any behaviour."""
    return np.full((n, n, m, m), 1.0 / m ** 2)


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
