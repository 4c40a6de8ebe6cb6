"""Reference checks for the benchmark's outputs, written in plain numpy.

Nothing here imports uichan: every check recomputes what it needs from the
model arrays and the JSON documents the program wrote, so that a fault in a
shared helper cannot make the program and its check agree on a wrong
answer.  Each check raises ``CheckFailed`` naming the first violation.

Register orders follow the file formats: tensor models act on
``(A', H_A, H_B, B')`` and superoperators act on row-major vectorized
ancilla-pair states.
"""

from __future__ import annotations

import math

import numpy as np

#: the supremum of I3322 over quantum strategies (Pal and Vertesi 2010)
I3322_QUANTUM_BOUND = 0.2508754


class CheckFailed(AssertionError):
    """A program output disagrees with its reference computation."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def matrix(doc: dict) -> np.ndarray:
    """A square matrix or a vector from the ``{"dim", "re", "im"}`` container."""
    dim = int(doc["dim"])
    flat = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    return flat.reshape(dim, dim) if flat.size == dim * dim else flat


def density(state: np.ndarray) -> np.ndarray:
    return np.outer(state, state.conj()) if state.ndim == 1 else state


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    W = G @ G.conj().T
    return W / np.trace(W).real


def stinespring_output(U: np.ndarray, V: np.ndarray, sigma: np.ndarray, rho: np.ndarray,
                       n: int, dA: int, dB: int) -> np.ndarray:
    """Tr_{H_A H_B}[W^dag (rho x sigma) W] with W = U x V on (A', H_A, H_B, B')."""
    W = np.kron(U, V)
    X = np.kron(rho, sigma).reshape(n, n, dA, dB, n, n, dA, dB)  # (A', B', H_A, H_B) twice
    X = X.transpose(0, 2, 3, 1, 4, 6, 7, 5).reshape(W.shape)
    Y = (W.conj().T @ X @ W).reshape(n, dA, dB, n, n, dA, dB, n)
    return np.einsum("iabjkabl->ijkl", Y).reshape(n * n, n * n)


def check_channel(supers, U, V, sigma, n: int, dA: int, dB: int,
                  rng: np.random.Generator) -> None:
    """Superoperators against Stinespring on a random input, plus CP and TP."""
    n2 = n * n
    m = len(U)
    _require(len(supers) == m and all(len(row) == m for row in supers),
             f"channel grid is not {m} x {m}")
    for x in range(m):
        for y in range(m):
            S = supers[x][y]
            _require(S.shape == (n2 * n2, n2 * n2), f"superoperator ({x},{y}) has shape {S.shape}")
            rho = random_density(rng, n2)
            got = (S @ rho.reshape(-1)).reshape(n2, n2)
            want = stinespring_output(U[x], V[y], sigma, rho, n, dA, dB)
            gap = float(np.max(np.abs(got - want)))
            _require(gap <= 1e-10, f"channel ({x},{y}) differs from Stinespring by {gap:.3e}")
            check_cptp(S, f"channel ({x},{y})")


def check_cptp(S: np.ndarray, label: str) -> None:
    """Choi eigenvalues >= -1e-9 and trace defect <= 1e-10 of one superoperator."""
    n2 = math.isqrt(S.shape[0])
    S4 = S.reshape(n2, n2, n2, n2)  # (out row, out col, in row, in col)
    J = S4.transpose(2, 0, 3, 1).reshape(n2 * n2, n2 * n2)
    low = float(np.linalg.eigvalsh((J + J.conj().T) / 2)[0])
    _require(low >= -1e-9, f"{label} Choi eigenvalue {low:.3e} < -1e-9")
    tp = float(np.max(np.abs(np.einsum("uuab->ab", S4) - np.eye(n2))))
    _require(tp <= 1e-10, f"{label} trace defect {tp:.3e} > 1e-10")


def check_channel_doc(doc: dict, model: dict, rng: np.random.Generator) -> None:
    """A ``uichan channel`` payload against the tensor model file it came from."""
    n, dA, dB = int(model["n"]), int(model["dA"]), int(model["dB"])
    _require(int(doc["n"]) == n and int(doc["m"]) == int(model["m"]), "channel header mismatch")
    supers = [[matrix(S) for S in row] for row in doc["super"]]
    U = [matrix(M) for M in model["U"]]
    V = [matrix(M) for M in model["V"]]
    sigma = density(matrix(model["state"]["matrix"]))
    check_channel(supers, U, V, sigma, n, dA, dB, rng)


def check_behaviour_doc(doc: dict, n: int, m: int) -> None:
    """Every (x, y) cell of a behaviour file sums to one and no entry is negative."""
    p = np.asarray(doc["p"], dtype=float)
    _require(p.shape == (n, n, m, m), f"behaviour has shape {p.shape}")
    norm = float(np.max(np.abs(p.sum(axis=(0, 1)) - 1.0)))
    _require(norm <= 1e-10, f"behaviour cell sums differ from 1 by {norm:.3e}")
    low = float(p.min())
    _require(low >= -1e-9, f"behaviour entry {low:.3e} < -1e-9")


def born_rule(P, Q, state: np.ndarray) -> np.ndarray:
    """p[a, b, x, y] = Tr[rho (P[x][a] x Q[y][b])]."""
    rho = density(state)
    m, n = len(P), len(P[0])
    p = np.empty((n, n, m, m))
    for x in range(m):
        for y in range(m):
            for a in range(n):
                for b in range(n):
                    p[a, b, x, y] = np.trace(rho @ np.kron(P[x][a], Q[y][b])).real
    return p


def check_pvm(P, name: str) -> None:
    """Hermitian idempotents summing to the identity, per setting."""
    for x, row in enumerate(P):
        d = row[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for a, E in enumerate(row):
            defect = max(float(np.max(np.abs(E @ E - E))), float(np.max(np.abs(E - E.conj().T))))
            _require(defect <= 1e-9, f"{name}[{x}][{a}] is not a projector (defect {defect:.3e})")
            total += E
        comp = float(np.max(np.abs(total - np.eye(d))))
        _require(comp <= 1e-9, f"{name}[{x}] does not sum to the identity (defect {comp:.3e})")


def check_seesaw_doc(doc: dict, f: np.ndarray, bound: float) -> None:
    """The reported optimum against the Born rule on the returned strategy."""
    strat = doc["strategy"]
    P = [[matrix(E) for E in row] for row in strat["P"]]
    Q = [[matrix(E) for E in row] for row in strat["Q"]]
    state = matrix(strat["state"]["matrix"])
    check_pvm(P, "P")
    check_pvm(Q, "Q")
    norm = abs(float(np.linalg.norm(state)) - 1.0) if state.ndim == 1 else abs(np.trace(state).real - 1.0)
    _require(norm <= 1e-9, f"state norm defect {norm:.3e}")
    value = float(doc["value"])
    born = float(np.sum(f * born_rule(P, Q, state)))
    _require(abs(born - value) <= 1e-9, f"reported value {value!r} vs Born rule {born!r}")
    _require(value <= bound + 1e-9, f"value {value!r} exceeds the quantum bound {bound}")


def check_verify_doc(doc: dict, expected: set[str]) -> None:
    """Every check passes with a finite defect and none is skipped."""
    names = [c["name"] for c in doc["checks"]]
    _require(set(names) == expected, f"verify ran checks {names}, expected {sorted(expected)}")
    for c in doc["checks"]:
        _require(math.isfinite(c["defect"]), f"check {c['name']} has defect {c['defect']!r}")
        _require(c["pass"] and c["defect"] <= c["tolerance"],
                 f"check {c['name']} fails: defect {c['defect']!r} > {c['tolerance']!r}")
    _require(not doc["skipped"] and doc["pass"] is True, "verify did not pass")


def check_commutation_rejected(doc: dict) -> None:
    """A model with non-commuting entries fails exactly the commutation check."""
    failing = [c["name"] for c in doc["checks"] if not c["pass"]]
    _require(failing == ["commutation"], f"failing checks {failing}, expected ['commutation']")
    _require(doc["pass"] is False, "verify passed a non-commuting model")


def contraction_gaps(T: np.ndarray) -> dict[str, float]:
    """Unitarity contractions of one moment tensor T[i,j,l,k,p,r,t,s].

    Summing j = k gives delta_il times the V-leg moments, summing r = s gives
    the U-leg moments times delta_pt, and summing both gives delta x delta.
    """
    n = T.shape[0]
    eye = np.eye(n)
    left = np.einsum("ijljprts->ilprts", T)
    right = np.einsum("ijlkprtr->ijlkpt", T)
    both = np.einsum("ijljprtr->ilpt", T)
    phi_v = np.einsum("iiprts->prts", left) / n
    phi_u = np.einsum("ijlkpp->ijlk", right) / n
    return {
        "u_leg": float(np.max(np.abs(left - eye[:, :, None, None, None, None] * phi_v))),
        "v_leg": float(np.max(np.abs(right - phi_u[..., None, None] * eye))),
        "both_legs": float(np.max(np.abs(both - eye[:, :, None, None] * eye))),
    }


def check_grid(direct, via_moments, embedded, tables, defects: dict[str, float],
               U, V, sigma, n: int, dA: int, dB: int, lifted_p: np.ndarray, born_p: np.ndarray,
               rng: np.random.Generator) -> None:
    """One grid model: routes, embedding, contractions, Stinespring, bridge."""
    m = len(U)
    pairs = [(x, y) for x in range(m) for y in range(m)]
    dual = max(float(np.max(np.abs(direct[x][y] - via_moments[x][y]))) for x, y in pairs)
    _require(dual <= 1e-10, f"direct and moment routes differ by {dual:.3e}")
    emb = max(float(np.max(np.abs(direct[x][y] - embedded[x][y]))) for x, y in pairs)
    _require(emb <= 1e-12, f"embedding changes the channel by {emb:.3e}")
    for key, value in defects.items():
        _require(value <= 1e-12, f"reported contraction defect {key} = {value:.3e}")
    for x, y in pairs:
        for key, value in contraction_gaps(tables[x][y]).items():
            _require(value <= 1e-12, f"contraction {key} at ({x},{y}) = {value:.3e}")
    check_channel(direct, U, V, sigma, n, dA, dB, rng)
    gap = float(np.max(np.abs(lifted_p - born_p)))
    _require(gap <= 1e-10, f"lifted behaviour differs from the Born rule by {gap:.3e}")
