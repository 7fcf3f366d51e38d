"""Expanding an arbitrary square matrix over the unitary word basis.

The N^2 words A^k B^l built from one clock/shift pair are orthogonal under
the trace pairing, so any N x N matrix M expands as sum mu_kl A^k B^l.  The
trace pairing with every word is one FFT along M's shifted diagonals; a
second, independent route solves for the same coefficients from M's diagonal
slices, and the two agree through an exact root-of-unity twist.
"""

import numpy as np

from gcakit import (
    diagonal_slice_decomposition,
    schwinger_coeffs,
    schwinger_reconstruct,
    to_dense,
    weyl_word,
)


def main():
    rng = np.random.default_rng(7)
    n = 5
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    # route one: the trace pairing with each word, as one FFT of the diagonals
    sc = schwinger_coeffs(m)
    err = np.max(np.abs(schwinger_reconstruct(sc) - m))
    print(f"word-DFT route: reconstruction error {err:.2e}")

    # route two: Fourier solve on the diagonal slices
    sliced = diagonal_slice_decomposition(m)
    rebuilt = sum(
        sliced.coeffs[k, l] * to_dense(weyl_word(n, k, l))
        for k in range(n)
        for l in range(n)
    )
    err2 = np.max(np.abs(rebuilt - m))
    print(f"diagonal-slice route: reconstruction error {err2:.2e}")

    # the two coefficient tables agree after the w^(-kl) twist and transpose
    w = np.exp(2j * np.pi / n)
    twist = np.array([[w ** (-(k * l)) for l in range(n)] for k in range(n)])
    gap = np.max(np.abs(sc.coeffs - twist * sliced.c.T))
    print(f"cross relation between the routes: max gap {gap:.2e}")

    # orthogonality of the basis, in exact arithmetic
    w10 = weyl_word(n, 1, 0)
    w23 = weyl_word(n, 2, 3)
    print(f"Tr[(A B^0)^dag (A^2 B^3)] = {(w10.adjoint() @ w23).trace_exact()}")
    print(f"Tr[(A^2 B^3)^dag (A^2 B^3)] = {(w23.adjoint() @ w23).trace_exact()}")


if __name__ == "__main__":
    main()
