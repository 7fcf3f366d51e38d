"""Skew normal form of antisymmetric integer matrices mod nhat.

An antisymmetric integer matrix T is congruent over the integers to a
block form

    Tcal = [[0, t_1], [-t_1, 0]]  (+)  ...  (+)  [[0, t_s], [-t_s, 0]]  (+)  O

via a unimodular U with T = U Tcal U^T.  The reduction works entirely over
the integers (paired row/column operations, gcd pivoting), after which the
invariants t_j and the entries of U are reduced mod nhat where that keeps
the promises: blocks whose t_j vanish mod nhat are demoted to the zero
tail, and the entry reduction of U is kept only if det stays +-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import BadModulus, DimensionMismatch, NotAntisymmetric
from .matrices import _is_integer
from .report import Check, VerificationReport

__all__ = [
    "TMatrix",
    "SkewNormalForm",
    "validate_tmatrix",
    "skew_normal_form",
    "verify_congruence",
    "int_det",
]


@dataclass(frozen=True, slots=True)
class TMatrix:
    """Antisymmetric integer commutation-exponent matrix with its modulus."""

    n: int
    t: tuple[tuple[int, ...], ...]
    nhat: int

    def entry(self, j: int, k: int) -> int:
        return self.t[j][k]


@dataclass(frozen=True, slots=True)
class SkewNormalForm:
    """Output of skew_normal_form: s blocks, invariants t_inv, transform u."""

    n: int
    s: int
    t_inv: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]

    def tcal(self) -> list[list[int]]:
        """The block matrix (+) [[0,t_j],[-t_j,0]] (+) zeros, as n x n ints."""
        m = [[0] * self.n for _ in range(self.n)]
        for j, t in enumerate(self.t_inv):
            m[2 * j][2 * j + 1] = t
            m[2 * j + 1][2 * j] = -t
        return m


def _sym_residue(x: int, nhat: int) -> int:
    # smallest representative in (-floor(nhat/2), ceil(nhat/2)]
    r = x % nhat
    if r > (nhat + 1) // 2:
        r -= nhat
    return r


def validate_tmatrix(raw, nhat: int) -> TMatrix:
    """Check antisymmetry mod nhat and reduce entries to symmetric residues.

    The upper triangle is reduced to (-floor(nhat/2), ceil(nhat/2)] and the
    lower triangle is rebuilt as its exact negative, so t[j][k] = -t[k][j]
    holds over the integers, not only mod nhat.
    """
    if not _is_integer(nhat):
        raise BadModulus(f"nhat must be an integer, got {nhat!r}")
    if nhat < 2:
        raise BadModulus(f"nhat must be >= 2, got {nhat}")
    rows = [list(r) for r in raw]
    n = len(rows)
    for r in rows:
        for x in r:
            if not _is_integer(x):
                raise ValueError(f"matrix entries must be integers, got {x!r}")
        if len(r) != n:
            raise DimensionMismatch("t must be square")
    out = [[0] * n for _ in range(n)]
    for j in range(n):
        if rows[j][j] % nhat != 0:
            raise NotAntisymmetric(f"t[{j}][{j}] = {rows[j][j]} is nonzero mod {nhat}")
        for k in range(j + 1, n):
            if (rows[j][k] + rows[k][j]) % nhat != 0:
                raise NotAntisymmetric(
                    f"t[{j}][{k}] + t[{k}][{j}] = {rows[j][k] + rows[k][j]}"
                    f" is nonzero mod {nhat}"
                )
            out[j][k] = _sym_residue(rows[j][k], nhat)
            out[k][j] = -out[j][k]
    return TMatrix(n, tuple(tuple(r) for r in out), nhat)


def int_det(m) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] = (a[j][k] * a[i][i] - a[j][i] * a[i][k]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def skew_normal_form(t: TMatrix) -> SkewNormalForm:
    """Reduce an antisymmetric integer matrix to hyperbolic blocks.

    Returns u with det +-1 and T = u Tcal u^T exactly over the integers
    before the final mod-nhat cleanup, hence congruent mod nhat after it.
    Pivots are chosen at the lexicographically smallest nonzero entry of
    the trailing submatrix; gcd reduction swaps a smaller remainder into
    the pivot pair until both pivot columns divide out.
    """
    n, nhat = t.n, t.nhat
    m = [list(r) for r in t.t]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    # invariant: original T = u @ m @ u^T, u unimodular

    def addmul(dst: int, src: int, c: int) -> None:
        if c == 0:
            return
        for k in range(n):
            m[dst][k] += c * m[src][k]
        for k in range(n):
            m[k][dst] += c * m[k][src]
        for k in range(n):
            u[k][src] -= c * u[k][dst]

    def swap(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    def negate(i: int) -> None:
        m[i] = [-x for x in m[i]]
        for row in m:
            row[i] = -row[i]
        for row in u:
            row[i] = -row[i]

    blocks: list[int] = []
    p = 0
    while p + 1 < n:
        piv = None
        for i in range(p, n):
            for j in range(i + 1, n):
                if m[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        if i != p:
            swap(p, i)
        if j != p + 1:
            swap(p + 1, j)
        while True:
            a = m[p][p + 1]
            restart = False
            # clear column p below the pivot pair using row p+1 (m[p+1][p] = -a)
            for k in range(p + 2, n):
                if m[k][p] != 0:
                    addmul(k, p + 1, m[k][p] // a)
                    if m[k][p] != 0:
                        swap(p + 1, k)
                        restart = True
                        break
            if restart:
                continue
            # clear column p+1 using row p; m[p][p] = 0 keeps column p clean
            for k in range(p + 2, n):
                if m[k][p + 1] != 0:
                    addmul(k, p, -(m[k][p + 1] // a))
                    if m[k][p + 1] != 0:
                        swap(p, k)
                        restart = True
                        break
            if restart:
                continue
            break
        if m[p][p + 1] < 0:
            negate(p)
        blocks.append(m[p][p + 1])
        p += 2

    # blocks whose invariant vanishes mod nhat are commuting pairs: demote
    # them to the zero tail by a coordinate permutation (u gets u @ P^T)
    order = sorted(range(len(blocks)), key=lambda i: blocks[i] % nhat == 0)  # stable
    perm = [c for i in order for c in (2 * i, 2 * i + 1)] + list(range(2 * len(blocks), n))
    u = [[row[c] for c in perm] for row in u]
    blocks = [blocks[i] for i in order if blocks[i] % nhat != 0]
    t_inv = tuple(b % nhat for b in blocks)

    # best-effort entry shrink: congruence survives any mod-nhat change of u,
    # unimodularity may not, so keep the reduced matrix only when det is +-1
    u_red = [[_sym_residue(x, nhat) for x in row] for row in u]
    if abs(int_det(u_red)) == 1:
        u = u_red
    return SkewNormalForm(
        n=n, s=len(blocks), t_inv=t_inv, u=tuple(tuple(r) for r in u)
    )


def verify_congruence(t: TMatrix, f: SkewNormalForm) -> VerificationReport:
    """Check unimodularity, T = u Tcal u^T (mod nhat) and the block shape."""
    checks = []
    if f.n != t.n:
        return VerificationReport(
            (Check("dimension", False, f"form has n={f.n}, matrix has n={t.n}"),)
        )
    det = int_det(f.u)
    checks.append(Check("unimodular", abs(det) == 1, f"det(u) = {det}"))

    n, nhat = t.n, t.nhat
    # u Tcal once, then each entry of (u Tcal) u^T is one row product, row-major
    cols = list(zip(*f.tcal()))
    ut = [[sum(map(mul, row, col)) for col in cols] for row in f.u]
    first_bad = next(((j, k) for j in range(n) for k in range(n)
                      if (sum(map(mul, ut[j], f.u[k])) - t.t[j][k]) % nhat), None)
    checks.append(
        Check(
            "congruence",
            first_bad is None,
            "t = u tcal u^T mod nhat"
            if first_bad is None
            else f"first mismatch at {first_bad}",
        )
    )

    shape_ok = (
        2 * f.s <= n
        and len(f.t_inv) == f.s
        and all(x % nhat != 0 for x in f.t_inv)
        and all(0 < x < nhat for x in f.t_inv)
    )
    checks.append(
        Check("block shape", shape_ok, f"s = {f.s}, t_inv = {list(f.t_inv)}")
    )
    return VerificationReport(tuple(checks))
