"""Alternating maximization of Bell functionals over tensor-model strategies.

One sweep updates the state (top eigenvector of the Bell operator), then
every Alice setting, then every Bob setting.  Measurement updates are
closed-form for two outcomes: the first projector spans the strictly
positive eigenspace of the per-setting score difference, with eigenvalue
ties at zero assigned to the second outcome.  For more outcomes the same
exact two-outcome exchange is swept over outcome pairs, which is monotone
but only a heuristic; results carry an ``exact_updates`` flag.

All restarts advance in lockstep: every live restart goes through a sweep
as one row of a stacked array and leaves the stack at the sweep that stops
it, with the same bytes as when it runs alone.

The winning strategy is lifted to a tensor model through the diagonal
Fourier construction, so every optimum is also available as a channel
family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bell import bell_value, behaviour_from_channel
from .channels import DEFAULT_MAX_N, channel_direct
from .errors import DimensionMismatchError, PipelineInconsistencyError
from .linalg import _hermitian_part, dag
from .models import (Check, PVMFamily, TensorModel, _require, diagonal_fourier_lift,
                     random_pvm_family)


@dataclass(frozen=True)
class SeesawConfig:
    dA: int = 2
    dB: int = 2
    n: int = 2
    m: int = 2
    max_iters: int = 500
    rel_tol: float = 1e-9
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if min(self.dA, self.dB, self.n, self.m) < 1:
            raise DimensionMismatchError("dims, n, m must be positive")
        if not (0 < self.rel_tol < np.inf):  # a NaN rel_tol would never stop a restart
            raise DimensionMismatchError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if self.max_iters < 1 or self.restarts < 1:
            raise DimensionMismatchError("max_iters and restarts must be positive")


@dataclass(frozen=True)
class SeesawResult:
    value: float
    alice: PVMFamily
    bob: PVMFamily
    state: np.ndarray
    trace: tuple[float, ...]
    lifted: TensorModel
    exact_updates: bool
    restart_index: int
    restarts: tuple[tuple[float, int, str], ...]  # (value, sweeps, stop) per restart


def _bell_operator(f: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_{abxy} f[a,b,x,y] P[..., x,a] x Q[..., y,b] over leading (restart) axes.

    The nonzero terms are added in (x, y, a, b) order, each product formed
    as it is added, so no stack of every P x Q is held.
    """
    D = P.shape[-1] * Q.shape[-1]
    B = np.zeros(P.shape[:-4] + (D, D), dtype=complex)
    for x, y, a, b in zip(*np.nonzero(f.transpose(2, 3, 0, 1))):
        K = P[..., x, a, :, None, :, None] * Q[..., y, b, None, :, None, :]
        B += f[a, b, x, y] * K.reshape(B.shape)
    return B


def _positive_eigenspace_split(delta: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the range of projector pi by the sign of the compressed delta.

    Returns (P_pos, P_rest): P_pos spans the strictly positive eigenspace of
    pi delta pi within range(pi); eigenvalues at zero go to P_rest.
    """
    w_pi, Q_pi = np.linalg.eigh(_hermitian_part(pi))
    basis = Q_pi[:, w_pi > 0.5]  # orthonormal basis of range(pi)
    if basis.shape[1] == 0:
        z = np.zeros_like(delta)
        return z, z
    comp = dag(basis) @ delta @ basis
    w, Q = np.linalg.eigh(_hermitian_part(comp))
    pos = basis @ Q[:, w > 0.0]
    P_pos = pos @ dag(pos)
    return P_pos, pi - P_pos


def _update_party(scores: np.ndarray, P: np.ndarray, d: int, n: int) -> np.ndarray:
    """Exact pairwise-exchange update of one party's PVMs per setting.

    scores[..., x, a] is the Hermitian matrix R_{a|x}; the per-setting
    objective is sum_a Tr[P_{a|x} R_{a|x}].  For n = 2 a single exchange is
    the exact subproblem optimum, taken for every setting from one stacked
    eigh.  Leading axes (restarts) are carried through; returns the updated
    (..., m, n, d, d) projector stack.
    """
    scores = np.asarray(scores)
    if n == 2:
        w, vecs = np.linalg.eigh(_hermitian_part(scores[..., 0, :, :] - scores[..., 1, :, :]))
        k = np.count_nonzero(w > 0.0, axis=-1)  # eigh sorts ascending: the last k columns
        first = np.zeros(vecs.shape, dtype=complex)
        for r in np.unique(k[k > 0]):  # one product per rank; a masked product moves bits
            rank = k == r
            pos = vecs[rank][..., d - r:].copy()
            first[rank] = pos @ np.conj(pos).swapaxes(-1, -2)
        return np.stack([first, np.eye(d) - first], axis=-3)
    out = np.array(P, dtype=complex)
    for x in np.ndindex(scores.shape[:-3]):
        for a in range(n):
            for b in range(a + 1, n):
                out[x + (a,)], out[x + (b,)] = _positive_eigenspace_split(
                    scores[x + (a,)] - scores[x + (b,)], out[x + (a,)] + out[x + (b,)])
    return out


def _weighted_sums(f: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """S[..., x, a] = sum_{y,b} f[a, b, x, y] Q[..., y, b] as an (..., m, n, d, d) stack.

    The terms are added in (y, b) order.
    """
    m, n = Q.shape[-4:-2]
    S = 0
    for y in range(m):
        for b in range(n):
            S = S + f[:, b, :, y].T[:, :, None, None] * Q[..., y, b, None, None, :, :]
    return S


def _alice_scores(f: np.ndarray, Q: np.ndarray, rho: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """R[..., x, a] = Tr_B[(I x S[..., x, a]) rho] for every setting and outcome of Alice."""
    S = _weighted_sums(f, Q)
    rows = rho.reshape(rho.shape[:-2] + (1, 1, dA, dB, dA * dB))
    R = (S[..., None, :, :] @ rows).reshape(S.shape[:-2] + (dA, dB, dA, dB))
    return _hermitian_part(np.einsum("...atbt->...ab", R))


def _bob_scores(f: np.ndarray, P: np.ndarray, rho: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """R[..., y, b] = Tr_A[(S[..., y, b] x I) rho] for every setting and outcome of Bob.

    S acts on A's row index with B's row index as the batch axis; applying
    the Alice form to rho with its registers swapped moves the last bits.
    """
    S = _weighted_sums(f.transpose(1, 0, 3, 2), P)
    lead = rho.shape[:-2]
    rows = rho.reshape(lead + (dA, dB, dA, dB)).swapaxes(-4, -3).reshape(
        lead + (1, 1, dB, dA, dA * dB))
    R = (S[..., None, :, :] @ rows).swapaxes(-3, -2).reshape(S.shape[:-2] + (dA, dB, dA, dB))
    return _hermitian_part(np.einsum("...tatb->...ab", R))


def optimize_bell(f: np.ndarray, cfg: SeesawConfig) -> SeesawResult:
    """Best strategy over independently seeded restarts, lifted to a tensor model.

    Deterministic for a fixed config: restart r draws from the r-th child
    of SeedSequence(cfg.seed), and ties keep the earliest restart.  A
    restart stops as "decreased" when a sweep lowered the value by more than
    the tolerance, "converged" when it gained less, and "max_iters" when the
    sweep limit ended it.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (cfg.n, cfg.n, cfg.m, cfg.m):
        raise DimensionMismatchError(
            f"functional shape {f.shape} does not match config {(cfg.n, cfg.n, cfg.m, cfg.m)}"
        )
    n, m, dA, dB = cfg.n, cfg.m, cfg.dA, cfg.dB
    P, Q = [], []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.Generator(np.random.Philox(child))
        P.append(random_pvm_family(dA, m, n, rng=rng).projectors)
        Q.append(random_pvm_family(dB, m, n, rng=rng).projectors)
    P, Q = np.stack(P), np.stack(Q)
    live = np.arange(cfg.restarts)  # restart index of each stack row
    prev = np.full(cfg.restarts, -np.inf)
    traces: list[list[float]] = [[] for _ in live]
    ends: list = [None] * cfg.restarts  # (P, Q, psi, stop) per restart
    B = _bell_operator(f, P, Q)
    for sweep in range(cfg.max_iters):
        _, vecs = linalg.herm_eig(B)
        psi = vecs[..., -1]
        rho = psi[:, :, None] * np.conj(psi)[:, None, :]
        P = _update_party(_alice_scores(f, Q, rho, dA, dB), P, dA, n)
        Q = _update_party(_bob_scores(f, P, rho, dA, dB), Q, dB, n)

        B = _bell_operator(f, P, Q)  # also the next sweep's state step
        vals = np.real(np.conj(psi)[:, None, :] @ B @ psi[:, :, None])[:, 0, 0]
        step = cfg.rel_tol * np.maximum(1.0, np.abs(vals))
        stopped = vals - prev < step
        for i, r in enumerate(live):
            traces[r].append(float(vals[i]))
            if stopped[i]:
                stop = "decreased" if vals[i] < prev[i] - step[i] else "converged"
            elif sweep == cfg.max_iters - 1:
                stop = "max_iters"
            else:
                continue
            ends[r] = (P[i], Q[i], psi[i], stop)
        keep = ~stopped
        live, prev, P, Q, B = live[keep], vals[keep], P[keep], Q[keep], B[keep]
        if not live.size:
            break
    restarts = tuple((t[-1], len(t), end[3]) for t, end in zip(traces, ends))
    r = int(np.argmax([v for v, _, _ in restarts]))  # the first of equal values
    P, Q, psi, _ = ends[r]
    alice = PVMFamily(d=dA, m=m, n=n, projectors=P)
    bob = PVMFamily(d=dB, m=m, n=n, projectors=Q)
    lifted = diagonal_fourier_lift(alice, bob, psi)
    return SeesawResult(
        value=restarts[r][0], alice=alice, bob=bob, state=psi, trace=tuple(traces[r]),
        lifted=lifted, exact_updates=(n == 2), restart_index=r, restarts=restarts,
    )


@dataclass(frozen=True)
class LiftVerification:
    """End-to-end agreement between an optimum and its lifted channel family."""

    lifted_value: float
    deviation: float

    @property
    def ok(self) -> bool:
        return self.deviation <= LIFT_PASS_TOL


LIFT_PASS_TOL = 1e-8  # LiftVerification.ok: the largest Bell-value deviation that passes
LIFT_ERROR_TOL = 1e-6  # lift_and_verify raises when the two Bell values differ by more


def lift_and_verify(result: SeesawResult, f: np.ndarray,
                    max_n: int = DEFAULT_MAX_N) -> LiftVerification:
    """Push the lifted model through ``channel_direct`` (guarded at max_n); compare Bell values."""
    behaviour = behaviour_from_channel(channel_direct(result.lifted, max_n=max_n))
    lifted_value = bell_value(behaviour, f)
    deviation = abs(lifted_value - result.value)
    _require("lifted strategy", [Check("lift_deviation", deviation, LIFT_ERROR_TOL, lambda: (
        f"lifted channel value {lifted_value:.12f} deviates from optimizer value "
        f"{result.value:.12f} by {deviation:.3e}"))], PipelineInconsistencyError)
    return LiftVerification(lifted_value=lifted_value, deviation=deviation)
