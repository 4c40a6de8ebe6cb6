"""Dense complex linear algebra primitives used by every other module.

Conventions, fixed once for the whole toolkit:

* matrices are square ``complex128`` ndarrays;
* composite registers are row-major: in a product of registers
  ``(d_1, ..., d_r)`` the leftmost register is the most significant index;
* tolerances scale with dimension: ``tol(d) = 1e-10 * d``, compared against
  raw Frobenius-norm defects;
* indices are 0-based in code, 1-based in documentation and CLI output.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError

TOL_SCALE = 1e-10


def tol(dim: int) -> float:
    """Default numerical tolerance for matrices of the given dimension."""
    return TOL_SCALE * dim


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based PRNG (Philox) seeded explicitly; no global state."""
    return np.random.Generator(np.random.Philox(seed))


def as_matrix(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix, rejecting anything else."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {A.shape}")
    return A


def frozen(a, lead: tuple[int, ...], member: tuple[int, ...], what: str) -> np.ndarray:
    """Read-only complex copy of a stack of arrays: leading axes ``lead``, members ``member``.

    The leading axes index the family (settings, outcomes); a ragged input or
    a wrong shape raises DimensionMismatchError, non-finite entries DomainError.
    """
    try:
        A = np.array(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{what} stack is not a regular array: {exc}") from exc
    k = len(lead)
    if A.shape[:k] != lead:
        raise DimensionMismatchError(f"{what} stack has shape {A.shape[:k]}, expected {lead}")
    if A.shape[k:] != member:
        raise DimensionMismatchError(f"{what} has shape {A.shape[k:]}, expected {member}")
    if not np.isfinite(A).all():
        raise DomainError(f"{what} has non-finite entries")
    A.setflags(write=False)
    return A


def check_register_dims(dims: Sequence[int], dim: int) -> tuple[int, ...]:
    """Validate register dimensions against the ambient matrix dimension."""
    ds = tuple(int(d) for d in dims)
    if not ds or any(d < 1 for d in ds):
        raise DimensionMismatchError(f"register dims must be positive, got {ds}")
    if int(np.prod(ds)) != dim:
        raise DimensionMismatchError(
            f"register dims {ds} have product {int(np.prod(ds))}, expected {dim}"
        )
    return ds


def dag(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(M).T


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product; out[(i*dB+k),(j*dB+l)] = A[i,j] * B[k,l]."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def partial_trace(M: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every register not listed in ``keep``.

    Kept registers stay in their original relative order; the trace of the
    result equals the trace of the input.
    """
    A = as_matrix(M)
    ds = check_register_dims(dims, A.shape[0])
    r = len(ds)
    kept = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= r for k in kept):
        raise DimensionMismatchError(f"keep indices {kept} out of range for {r} registers")
    traced = [i for i in range(r) if i not in kept]
    dk = int(np.prod([ds[i] for i in kept])) if kept else 1
    dt = int(np.prod([ds[i] for i in traced])) if traced else 1
    axes = kept + traced + [r + i for i in kept] + [r + i for i in traced]
    X = A.reshape(ds + ds).transpose(axes).reshape(dk, dt, dk, dt)
    return np.einsum("atbt->ab", X)


def hermiticity_defect(M: np.ndarray) -> float:
    """Frobenius norm of M - M^dag."""
    A = as_matrix(M)
    return float(np.linalg.norm(A - dag(A)))


def unitarity_defect(M: np.ndarray) -> float:
    """Frobenius norm of M^dag M - I."""
    A = as_matrix(M)
    return float(np.linalg.norm(dag(A) @ A - np.eye(A.shape[0])))


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2 of a matrix or of each member of a (..., d, d) stack."""
    return (A + np.conj(A).swapaxes(-1, -2)) / 2


def herm_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or of a (..., d, d) stack of them.

    Each matrix is replaced by its Hermitian part first; a matrix that is not
    finite and Hermitian within tolerance is rejected by its index.  Returns
    eigenvalues in ascending order and unitary eigenvector matrices Q with
    H = Q diag(w) Q^dag, the same bytes as one call per matrix.
    """
    A = np.asarray(H, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatchError(f"matrix must be square, got shape {A.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite or near-limit entries
        defect = np.linalg.norm(A - np.conj(A).swapaxes(-1, -2), axis=(-2, -1))
        bound = tol(A.shape[-1]) * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))
    # an inf entry makes the bound inf, and a NaN defect compares false
    bad = ~np.isfinite(A).all(axis=(-2, -1)) | ~(defect <= bound)
    if bad.any():
        i = tuple(int(k) for k in np.argwhere(bad)[0])
        where = f" {list(i)}" if i else ""
        raise DomainError(f"matrix{where} is not finite and hermitian within tolerance "
                          f"(defect {defect[i]:.3e})")
    return np.linalg.eigh(_hermitian_part(A))


def haar_unitary_from(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d x d unitary drawn from the generator.

    Ginibre sample followed by QR with the R diagonal phase-fixed, which
    makes the distribution exactly Haar rather than merely unitary.
    """
    if d < 1:
        raise DimensionMismatchError(f"dimension must be positive, got {d}")
    Z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R).copy()
    ph /= np.abs(ph)
    return Q * ph


def haar_state_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unit vector of length d."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def wishart_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank random density matrix G G^dag / Tr(G G^dag), G Ginibre."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    W = G @ dag(G)
    return W / np.trace(W).real


def swap_matrix(da: int, db: int) -> np.ndarray:
    """Unitary mapping the register pair (a, b) to (b, a)."""
    S = np.zeros((da * db, da * db), dtype=complex)
    for a in range(da):
        for b in range(db):
            S[b * da + a, a * db + b] = 1.0
    return S
