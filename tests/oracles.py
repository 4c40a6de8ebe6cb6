"""Independent reference computations that the tests compare the library against."""

import itertools
import json
from typing import Sequence

import numpy as np

from uichan import linalg, serialize
from uichan.bell import Behaviour, fourier_coeffs
from uichan.channels import ChannelFamily, channel_direct
from uichan.errors import DimensionMismatchError
from uichan.models import (CommutingModel, PVMFamily, TensorModel, _fourier_unitaries,
                           random_pvm_family, random_tensor_model)
from uichan.seesaw import (SeesawConfig, _alice_scores, _bell_operator, _bob_scores,
                           _update_party)


def permute_registers(M: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Conjugate by the register permutation: output register j is input register perm[j]."""
    A = linalg.as_matrix(M)
    ds = linalg.check_register_dims(dims, A.shape[0])
    r = len(ds)
    p = tuple(int(i) for i in perm)
    if sorted(p) != list(range(r)):
        raise DimensionMismatchError(f"perm {p} is not a bijection on {r} registers")
    axes = list(p) + [r + i for i in p]
    return A.reshape(ds + ds).transpose(axes).reshape(A.shape)


def as_json(doc):
    """``doc`` as a file holds it: the arrays of a ``serialize`` document become plain lists.

    ``json.loads`` of the compact text ``serialize.dumps`` writes, which is
    ``json.dumps`` of the document with every array as its list.
    """
    return json.loads(serialize.dumps(doc, None))


def behaviour_from_json(doc: dict) -> Behaviour:
    """A behaviour document read back, through the reader that functionals share."""
    p = serialize.table_from_json(doc)
    return Behaviour(n=p.shape[0], m=p.shape[2], p=p)


def coupling_unitary_by_kron(model: TensorModel | CommutingModel, x: int, y: int) -> np.ndarray:
    """W = (U^x x I)(I x V^y) as one matrix, built from Kronecker products.

    Tensor models: kron(U^x, V^y).  Commuting models: kron(U^x, I_n) @
    kron(I_n, v), with v the stored V^y moved to its physical (H, B') legs.
    """
    if isinstance(model, TensorModel):
        return linalg.kron(model.U[x], model.V[y])
    n, d = model.n, model.d
    v_phys = model.V[y].reshape(n, d, n, d).transpose(1, 0, 3, 2).reshape(n * d, n * d)
    return linalg.kron(model.U[x], np.eye(n)) @ linalg.kron(np.eye(n), v_phys)


def unitaries_from_pvm(family: PVMFamily) -> np.ndarray:
    """Per-setting unitaries u^x_{a'} = sum_a exp(2 pi i a a'/n) P_{a|x}, as (m, n, d, d).

    The last unitary (a' = n) is the completeness sum, i.e. the identity;
    every projector is recovered as P_{a|x} = sum_{a'} c[a,a'] u^x_{a'}.
    """
    family.check()
    return _fourier_unitaries(family.projectors, family.n)


def local_bound(f: np.ndarray) -> float:
    """Largest value of the functional f[a, b, x, y] over deterministic local strategies.

    Enumerates every pair of outcome assignments a(x), b(y): n^m x n^m of them.
    """
    n, m = f.shape[0], f.shape[2]
    xs = range(m)
    return max(sum(f[a[x], b[y], x, y] for x in xs for y in xs)
               for a in itertools.product(range(n), repeat=m)
               for b in itertools.product(range(n), repeat=m))


def alice_scores_by_kron(f: np.ndarray, Q: np.ndarray, rho: np.ndarray, dA: int,
                         dB: int) -> np.ndarray:
    """See-saw scores of Alice, one Kronecker product and partial trace per setting and outcome.

    R[x, a] = Tr_B[(I x S) rho] with S = sum_{y,b} f[a,b,x,y] Q[y][b], hermitized.
    """
    n, m = f.shape[0], f.shape[2]
    out = np.empty((m, n, dA, dA), dtype=complex)
    for x in range(m):
        for a in range(n):
            S = sum(f[a, b, x, y] * Q[y][b] for y in range(m) for b in range(n))
            R = linalg.partial_trace(linalg.kron(np.eye(dA), S) @ rho, (dA, dB), [0])
            out[x, a] = (R + linalg.dag(R)) / 2
    return out


def bob_scores_by_kron(f: np.ndarray, P: np.ndarray, rho: np.ndarray, dA: int,
                       dB: int) -> np.ndarray:
    """See-saw scores of Bob: R[y, b] = Tr_A[(S x I) rho], S = sum_{x,a} f[a,b,x,y] P[x][a]."""
    n, m = f.shape[0], f.shape[2]
    out = np.empty((m, n, dB, dB), dtype=complex)
    for y in range(m):
        for b in range(n):
            S = sum(f[a, b, x, y] * P[x][a] for x in range(m) for a in range(n))
            R = linalg.partial_trace(linalg.kron(S, np.eye(dB)) @ rho, (dA, dB), [1])
            out[y, b] = (R + linalg.dag(R)) / 2
    return out


def lastcond_contraction(channel: ChannelFamily, a: int, b: int, x: int, y: int) -> complex:
    """Fourier contraction of the matrix-unit responses of one member channel.

    sum_{k,j,s,r} c_aj conj(c_ak) c_br conj(c_bs) [L_xy(E_kj x E_sr)]_{(k,s),(j,r)}
    with 1-based labels a, b (outcomes) and x, y (settings).  Equals the raw
    diagonal-moment value q(ab|xy).
    """
    n, m = channel.n, channel.m
    if not (1 <= a <= n and 1 <= b <= n and 1 <= x <= m and 1 <= y <= m):
        raise DimensionMismatchError(f"labels (a={a}, b={b}, x={x}, y={y}) out of range")
    c = fourier_coeffs(n)
    S = channel.supers[x - 1, y - 1]
    # the needed response entries sit on the superoperator diagonal, axes (k, s, j, r)
    diag = np.einsum("ii->i", S).reshape(n, n, n, n)
    return complex(np.einsum("j,k,r,s,ksjr->", c[a - 1], np.conj(c[a - 1]),
                             c[b - 1], np.conj(c[b - 1]), diag))


def seesaw_once(f: np.ndarray, cfg: SeesawConfig, rng: np.random.Generator):
    """One see-saw restart run alone: (value, P, Q, psi, trace, stop).

    The per-restart reference for optimize_bell's lockstep loop.  stop is
    "decreased" when the last sweep lowered the value by more than the
    tolerance, "max_iters" when the sweep limit ended the restart, and
    "converged" otherwise.
    """
    n, m, dA, dB = cfg.n, cfg.m, cfg.dA, cfg.dB
    P = random_pvm_family(dA, m, n, rng=rng).projectors
    Q = random_pvm_family(dB, m, n, rng=rng).projectors
    psi = linalg.haar_state_vector(rng, dA * dB)
    trace: list[float] = []
    prev = -np.inf
    stop = "max_iters"
    B = _bell_operator(f, P, Q)
    for _ in range(cfg.max_iters):
        # state step: top eigenvector of the Bell operator
        _, vecs = linalg.herm_eig(B)
        psi = vecs[:, -1]
        rho = np.outer(psi, np.conj(psi))
        P = _update_party(_alice_scores(f, Q, rho, dA, dB), P, dA, n)
        Q = _update_party(_bob_scores(f, P, rho, dA, dB), Q, dB, n)

        B = _bell_operator(f, P, Q)  # also the next sweep's state step
        val = float(np.real(np.conj(psi) @ B @ psi))
        trace.append(val)
        step = cfg.rel_tol * max(1.0, abs(val))
        if val - prev < step:
            stop = "decreased" if val < prev - step else "converged"
            break
        prev = val
    return trace[-1], P, Q, psi, trace, stop


def seesaw_by_restart(f: np.ndarray, cfg: SeesawConfig) -> list[tuple]:
    """seesaw_once for each restart of cfg, drawn as optimize_bell draws it."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    return [seesaw_once(np.asarray(f, dtype=float), cfg,
                        np.random.Generator(np.random.Philox(child))) for child in children]


def anti_hermitian_choi_channel(eps: float) -> ChannelFamily:
    """A valid n = 2, m = 1 channel plus i eps (E_pq + E_qp) in its Choi matrix.

    That part is anti-Hermitian and lies off the output diagonal, in the
    diagonal moment T[j,j,k,k,r,r,s,s] with k = 2, j = r = s = 1 (1-based)
    and its mirror.  The Hermitian part of the Choi matrix and every trace
    Tr L(E_ab) stay as they were, so ``cptp_report`` accepts the family,
    but it no longer maps Hermitian inputs to Hermitian outputs.
    """
    S = np.array(channel_direct(random_tensor_model(2, 1, 1, 1, seed=2)).supers)
    S = S.reshape(4, 4, 4, 4)  # (output row, output column, input row, input column)
    S[2, 0, 2, 0] += 1j * eps
    S[0, 2, 0, 2] += 1j * eps
    return ChannelFamily(n=2, m=1, supers=S.reshape(1, 1, 16, 16))
