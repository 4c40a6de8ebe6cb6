"""Independent reference computations that the tests compare the library against."""

import itertools
from typing import Sequence

import numpy as np

from uichan import linalg
from uichan.bell import fourier_coeffs
from uichan.channels import ChannelFamily
from uichan.errors import DimensionMismatchError
from uichan.models import PVMFamily, _fourier_unitaries


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
