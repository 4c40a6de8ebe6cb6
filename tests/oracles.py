"""Independent reference computations that the tests compare the library against."""

import numpy as np

from uichan.bell import fourier_coeffs
from uichan.channels import ChannelFamily
from uichan.errors import DimensionMismatchError


def lastcond_contraction(channel: ChannelFamily, a: int, b: int, x: int, y: int) -> complex:
    """Fourier contraction of the matrix-unit responses of one member channel.

    sum_{k,j,s,r} c_aj conj(c_ak) c_br conj(c_bs) [L_xy(E_kj x E_sr)]_{(k,s),(j,r)}
    with 1-based labels a, b (outcomes) and x, y (settings).  Equals the raw
    diagonal-moment value q(ab|xy).
    """
    n, m = channel.n, channel.m
    if not (1 <= a <= n and 1 <= b <= n and 1 <= x <= m and 1 <= y <= m):
        raise DimensionMismatchError(f"labels (a={a}, b={b}, x={x}, y={y}) out of range")
    c = fourier_coeffs(n).c
    S = channel.supers[x - 1, y - 1]
    # the needed response entries sit on the superoperator diagonal, axes (k, s, j, r)
    diag = np.einsum("ii->i", S).reshape(n, n, n, n)
    return complex(np.einsum("j,k,r,s,ksjr->", c[a - 1], np.conj(c[a - 1]),
                             c[b - 1], np.conj(c[b - 1]), diag))
