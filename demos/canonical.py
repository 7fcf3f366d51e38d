"""Finite canonical transformations of a clock/shift pair.

Integer exponents (k, l, m, n) with kn - lm = 1 (mod N) send the pair (A, B)
to a new pair (A', B') obeying the same algebra.  A discrete-Gaussian
intertwiner S implements every such transformation by conjugation, up to one
global unit scalar per generator; when m = 0 it is monomial.
"""

import numpy as np

from gcakit import (
    CanonicalParams,
    Phase,
    canonical_intertwiner,
    canonical_pair,
    clock,
    compose_params,
    shift,
    to_dense,
)


def residual(p, res):
    a, b = to_dense(shift(p.order)), to_dense(clock(p.order))
    ap, bp = (to_dense(x) for x in canonical_pair(p))
    ra = np.max(np.abs(res.s @ a - res.zeta_a * (ap @ res.s)))
    rb = np.max(np.abs(res.s @ b - res.zeta_b * (bp @ res.s)))
    return max(ra, rb)


def main():
    # the two-dimensional swap (A, B) -> (B, A) is the 2x2 Fourier matrix
    swap = CanonicalParams(k=0, l=1, m=1, n=0, order=2)
    res = canonical_intertwiner(swap)
    print(f"swap intertwiner:\n{res.s.real.astype(int)}")
    print(f"residual {residual(swap, res):.2e}, scalars ({res.zeta_a}, {res.zeta_b})\n")

    # a generic transformation at order 6
    p = CanonicalParams(k=1, l=1, m=1, n=2, order=6)
    ap, bp = canonical_pair(p)
    print(f"order 6, exponents (1,1,1,2): new pair satisfies the algebra "
          f"exactly: {ap @ bp == (bp @ ap).scale(Phase(1, 6))}")
    res = canonical_intertwiner(p)
    print(f"intertwiner residual: {residual(p, res):.2e}\n")

    # composition: following one transformation by another multiplies the
    # exponent matrices; the intertwiners compose up to a half-period word
    q = CanonicalParams(k=2, l=1, m=1, n=1, order=6)
    pq = compose_params(p, q)
    print(f"composition of exponent data: {(pq.k, pq.l, pq.m, pq.n)} at order {pq.order}")
    res_pq = canonical_intertwiner(pq)
    print(f"composed intertwiner residual: {residual(pq, res_pq):.2e}\n")

    # a shear with m = 0: S is monomial, one root of unity per column
    shear = CanonicalParams(k=1, l=2, m=0, n=1, order=4)
    res = canonical_intertwiner(shear)
    print("m = 0 shear (1, 2, 0, 1) at order 4, monomial intertwiner:")
    for c in range(shear.order):
        row = int(np.flatnonzero(res.s[:, c])[0])
        print(f"column {c} -> row {row}  {Phase.from_complex(complex(res.s[row, c]))}")
    print(f"shear intertwiner residual: {residual(shear, res):.2e}")


if __name__ == "__main__":
    main()
