"""Alternating maximization of Bell functionals over tensor-model strategies.

One sweep updates the state (top eigenvector of the Bell operator), then
every Alice setting, then every Bob setting.  Measurement updates are
closed-form for two outcomes: the first projector spans the strictly
positive eigenspace of the per-setting score difference, with eigenvalue
ties at zero assigned to the second outcome.  For more outcomes the same
exact two-outcome exchange is swept over outcome pairs, which is monotone
but only a heuristic; results carry an ``exact_updates`` flag.

The winning strategy is lifted to a tensor model through the diagonal
Fourier construction, so every optimum is also available as a channel
family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bell import Behaviour, _product_projectors, bell_value, behaviour_from_channel
from .channels import channel_direct
from .errors import DimensionMismatchError, PipelineInconsistencyError
from .linalg import dag
from .models import PVMFamily, TensorModel, diagonal_fourier_lift, random_pvm_family


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
    config: SeesawConfig


def _bell_operator(f: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_{abxy} f[a,b,x,y] P[x,a] x Q[y,b], adding the nonzero terms in (x, y, a, b) order."""
    ops = _product_projectors(P, Q)
    B = np.zeros(ops.shape[-2:], dtype=complex)
    for x, y, a, b in zip(*np.nonzero(f.transpose(2, 3, 0, 1))):
        B += f[a, b, x, y] * ops[x, y, a, b]
    return B


def _positive_eigenspace_split(delta: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the range of projector pi by the sign of the compressed delta.

    Returns (P_pos, P_rest): P_pos spans the strictly positive eigenspace of
    pi delta pi within range(pi); eigenvalues at zero go to P_rest.
    """
    w_pi, Q_pi = np.linalg.eigh((pi + dag(pi)) / 2)
    basis = Q_pi[:, w_pi > 0.5]  # orthonormal basis of range(pi)
    if basis.shape[1] == 0:
        z = np.zeros_like(delta)
        return z, z
    comp = dag(basis) @ delta @ basis
    w, Q = np.linalg.eigh((comp + dag(comp)) / 2)
    pos = basis @ Q[:, w > 0.0]
    P_pos = pos @ dag(pos)
    return P_pos, pi - P_pos


def _update_party(scores: list[list[np.ndarray]], P: np.ndarray, d: int, n: int) -> np.ndarray:
    """Exact pairwise-exchange update of one party's PVMs per setting.

    scores[x][a] is the Hermitian matrix R_{a|x}; the per-setting objective
    is sum_a Tr[P_{a|x} R_{a|x}].  For n = 2 a single exchange is the exact
    subproblem optimum.  Returns the updated (m, n, d, d) projector stack.
    """
    eye = np.eye(d)
    out = np.array(P, dtype=complex)
    for x in range(len(scores)):
        for a in range(n):
            for b in range(a + 1, n):
                pi = out[x, a] + out[x, b] if n > 2 else eye
                out[x, a], out[x, b] = _positive_eigenspace_split(scores[x][a] - scores[x][b], pi)
    return out


def _evaluate(f: np.ndarray, P: np.ndarray, Q: np.ndarray, psi: np.ndarray) -> float:
    B = _bell_operator(f, P, Q)
    return float(np.real(np.conj(psi) @ B @ psi))


def _seesaw_once(f: np.ndarray, cfg: SeesawConfig, rng: np.random.Generator):
    n, m, dA, dB = cfg.n, cfg.m, cfg.dA, cfg.dB
    P = random_pvm_family(dA, m, n, rng=rng).projectors
    Q = random_pvm_family(dB, m, n, rng=rng).projectors
    psi = linalg.haar_state_vector(rng, dA * dB)
    trace: list[float] = []
    prev = -np.inf
    for _ in range(cfg.max_iters):
        # state step: top eigenvector of the Bell operator
        B = _bell_operator(f, P, Q)
        _, vecs = linalg.herm_eig(B)
        psi = vecs[:, -1]
        rho = np.outer(psi, np.conj(psi))

        # Alice step: R_{a|x} = Tr_B[(I x sum_{b,y} f_{abxy} Q_{b|y}) rho]
        scores_a = []
        for x in range(m):
            row = []
            for a in range(n):
                S = sum(f[a, b, x, y] * Q[y][b] for y in range(m) for b in range(n))
                R = linalg.partial_trace(linalg.kron(np.eye(dA), S) @ rho, (dA, dB), [0])
                row.append((R + dag(R)) / 2)
            scores_a.append(row)
        P = _update_party(scores_a, P, dA, n)

        # Bob step, symmetric
        scores_b = []
        for y in range(m):
            row = []
            for b in range(n):
                S = sum(f[a, b, x, y] * P[x][a] for x in range(m) for a in range(n))
                R = linalg.partial_trace(linalg.kron(S, np.eye(dB)) @ rho, (dA, dB), [1])
                row.append((R + dag(R)) / 2)
            scores_b.append(row)
        Q = _update_party(scores_b, Q, dB, n)

        val = _evaluate(f, P, Q, psi)
        trace.append(val)
        if val - prev < cfg.rel_tol * max(1.0, abs(val)):
            break
        prev = val
    return trace[-1], P, Q, psi, trace


def optimize_bell(f: np.ndarray, cfg: SeesawConfig) -> SeesawResult:
    """Best strategy over independently seeded restarts, lifted to a tensor model.

    Deterministic for a fixed config: restart r draws from the r-th child
    of SeedSequence(cfg.seed), and ties keep the earliest restart.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (cfg.n, cfg.n, cfg.m, cfg.m):
        raise DimensionMismatchError(
            f"functional shape {f.shape} does not match config {(cfg.n, cfg.n, cfg.m, cfg.m)}"
        )
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best = None
    for r in range(cfg.restarts):
        rng = np.random.Generator(np.random.Philox(children[r]))
        val, P, Q, psi, trace = _seesaw_once(f, cfg, rng)
        if best is None or val > best[0]:
            best = (val, P, Q, psi, trace, r)
    val, P, Q, psi, trace, r = best
    alice = PVMFamily(d=cfg.dA, m=cfg.m, n=cfg.n, projectors=P)
    bob = PVMFamily(d=cfg.dB, m=cfg.m, n=cfg.n, projectors=Q)
    lifted = diagonal_fourier_lift(alice, bob, psi)
    return SeesawResult(
        value=val, alice=alice, bob=bob, state=psi, trace=tuple(trace),
        lifted=lifted, exact_updates=(cfg.n == 2), restart_index=r, config=cfg,
    )


@dataclass(frozen=True)
class LiftVerification:
    """End-to-end agreement between an optimum and its lifted channel family."""

    optimizer_value: float
    lifted_value: float
    deviation: float
    behaviour: Behaviour

    @property
    def ok(self) -> bool:
        return self.deviation <= 1e-8


def lift_and_verify(result: SeesawResult, f: np.ndarray,
                    error_tol: float = 1e-6) -> LiftVerification:
    """Push the lifted model through channel extraction and compare Bell values."""
    channel = channel_direct(result.lifted)
    behaviour = behaviour_from_channel(channel)
    lifted_value = bell_value(behaviour, f)
    deviation = abs(lifted_value - result.value)
    if deviation > error_tol:
        raise PipelineInconsistencyError(
            f"lifted channel value {lifted_value:.12f} deviates from optimizer "
            f"value {result.value:.12f} by {deviation:.3e} > {error_tol:.1e}"
        )
    return LiftVerification(
        optimizer_value=result.value, lifted_value=lifted_value,
        deviation=deviation, behaviour=behaviour,
    )
