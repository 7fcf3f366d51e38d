"""exact_build: library calls on the exact (Phase/Fraction) path.

Every round draws fresh content, so inputs are distinct and calls share
little work.  Sizes are stratified: each round holds one call per size
template below, so the cost mix of a run does not depend on the seed; the
seed picks the contents (unimodular transforms, residues, flux numerators,
bilinear exponents) and the call order.  A round has 35 calls: with an odd
count that is 5 mod 10, the pooled median and p90 fall in the middle of one
template's samples instead of on the edge between two templates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

import gcakit as g
from common import Op, check_relations, int_det

# (n, nhat, designed block invariants).  The representation dimension is the
# product of nhat / gcd(t_i, nhat), an invariant of the form mod nhat.
BUILD_TEMPLATES = [
    (3, 12, (1,)),
    (4, 6, (1, 2)),
    (4, 8, (1, 2)),
    (5, 6, (1, 3)),
    (5, 8, (1, 4)),
    (6, 4, (1, 1, 2)),
    (7, 3, (1, 1, 1)),
    (6, 12, (1, 4)),
]
CLIFFORD_N = [6, 8, 10, 12]
ORDERED = [(3, 3), (4, 3), (4, 7), (5, 4), (5, 5), (3, 16), (4, 12)]
# flux denominators; numerators are drawn coprime to them
MAGNETIC_DENS = [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 4, 5)]
SNF_TEMPLATES = [(4, 7), (5, 9), (6, 12), (7, 15), (8, 20), (9, 24), (10, 30)]
PROJREP_ORDERS = [(2, 2), (2, 2, 2), (3, 3), (4, 4), (3, 3, 3)]

TINY = {
    "build": BUILD_TEMPLATES[:1],
    "clifford": CLIFFORD_N[:1],
    "ordered": ORDERED[:1],
    "magnetic": MAGNETIC_DENS[:1],
    "snf": SNF_TEMPLATES[:1],
    "projrep": PROJREP_ORDERS[:1],
}
FULL = {
    "build": BUILD_TEMPLATES,
    "clifford": CLIFFORD_N,
    "ordered": ORDERED,
    "magnetic": MAGNETIC_DENS,
    "snf": SNF_TEMPLATES,
    "projrep": PROJREP_ORDERS,
}


def random_unimodular(rng, n: int) -> list[list[int]]:
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        c = int(rng.choice([-2, -1, 1, 2]))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    for i in range(n):
        if rng.random() < 0.5:
            u[i] = [-a for a in u[i]]
    perm = rng.permutation(n)
    return [u[int(p)] for p in perm]


def block_matrix(n: int, blocks) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for j, t in enumerate(blocks):
        m[2 * j][2 * j + 1] = t
        m[2 * j + 1][2 * j] = -t
    return m


def congruent(u, m):
    n = len(u)
    um = [[sum(u[i][a] * m[a][b] for a in range(n)) for b in range(n)] for i in range(n)]
    return [[sum(um[i][b] * u[k][b] for b in range(n)) for k in range(n)] for i in range(n)]


def build_op(rng, n, nhat, blocks) -> Op:
    u = random_unimodular(rng, n)
    units = [t for t in range(1, nhat) if gcd(t, nhat) == 1]
    # scale each designed invariant by a random unit: same gcd, new residue
    inv = [(b * int(rng.choice(units))) % nhat for b in blocks]
    t = congruent(u, block_matrix(n, inv))
    dim = 1
    for b in inv:
        dim *= nhat // gcd(b, nhat)
    spec = g.GcaSpec(g.validate_tmatrix(t, nhat), (nhat,) * n)
    orders = (nhat,) * n

    def check(rep) -> bool:
        return rep.dim == dim and check_relations(rep.gens, t, nhat, orders, dim)

    return Op("build_representation", {"n": n, "nhat": nhat, "dim": dim},
              lambda: g.build_representation(spec), check)


def ordered_t(n: int) -> list[list[int]]:
    return [[(j < k) - (j > k) for k in range(n)] for j in range(n)]


def clifford_op(n: int) -> Op:
    dim = 2 ** (n // 2)
    t = ordered_t(n)

    def call():
        rep = g.clifford_generators(n)
        return rep, g.verify_gca(rep)

    def check(out) -> bool:
        rep, report = out
        return report.overall and check_relations(rep.gens, t, 2, (2,) * n, dim)

    return Op("clifford+verify", {"n": n, "nhat": 2, "dim": dim}, call, check)


def ordered_op(n: int, order: int) -> Op:
    dim = order ** (n // 2)
    t = ordered_t(n)

    def call():
        rep = g.ordered_gca_generators(n, order)
        return rep, g.verify_gca(rep)

    def check(out) -> bool:
        rep, report = out
        return report.overall and check_relations(rep.gens, t, order, (order,) * n, dim)

    return Op("ordered+verify", {"n": n, "N": order, "nhat": order, "dim": dim}, call, check)


def magnetic_op(rng, dens) -> Op:
    fluxes = []
    for q in dens:
        p = int(rng.choice([p for p in range(1, q) if gcd(p, q) == 1]))
        fluxes.append(Fraction(p, q))
    nhat = max(2, lcm(*(f.denominator for f in fluxes)))
    t = [[0] * 3 for _ in range(3)]
    for (j, k), f in zip(((0, 1), (0, 2), (1, 2)), fluxes):
        t[j][k] = -f.numerator * (nhat // f.denominator)
        t[k][j] = -t[j][k]
    dim = nhat // gcd(gcd(t[0][1], t[0][2]), gcd(t[1][2], nhat))
    lat = g.MagneticLattice(*fluxes)

    def check(mag) -> bool:
        return mag.nhat == nhat and check_relations(mag.rep.gens, t, nhat, (nhat,) * 3, dim)

    return Op("magnetic_translation_rep", {"n": 3, "nhat": nhat, "dim": dim},
              lambda: g.magnetic_translation_rep(lat), check)


def snf_op(rng, n: int, nhat: int) -> Op:
    raw = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            raw[j][k] = int(rng.integers(-nhat, nhat + 1))
            raw[k][j] = -raw[j][k]
    tm = g.validate_tmatrix(raw, nhat)

    def call():
        f = g.skew_normal_form(tm)
        return f, g.verify_congruence(tm, f)

    def check(out) -> bool:
        f, report = out
        if not report.overall or 2 * f.s > n or len(f.t_inv) != f.s:
            return False
        if not all(0 < x < nhat for x in f.t_inv) or abs(int_det(f.u)) != 1:
            return False
        back = congruent(f.u, block_matrix(n, f.t_inv))
        return all((back[j][k] - raw[j][k]) % nhat == 0 for j in range(n) for k in range(n))

    return Op("skew_normal_form+verify", {"n": n, "nhat": nhat}, call, check)


def projrep_op(rng, orders, pair_samples: int = 24) -> Op:
    n = len(orders)
    exps = [
        [Fraction(int(rng.integers(0, 12)), gcd(orders[j], orders[k])) for k in range(n)]
        for j in range(n)
    ]
    fs = g.FactorSet.bilinear(orders, exps)
    size = int(np.prod(orders))
    elems = list(np.ndindex(*orders))
    picks = rng.integers(0, size, size=(pair_samples, 2))
    pairs = [(elems[a], elems[b]) for a, b in picks]

    def phi(x, y) -> complex:
        e = sum(exps[j][k] * x[j] * y[k] for j in range(n) for k in range(n))
        return np.exp(2j * np.pi * float(e % 1))

    def check(pr) -> bool:
        for j in range(n):
            for k in range(n):
                want = (exps[j][k] - exps[k][j]) % 1
                got = pr.commutators[j][k]
                if Fraction(got.num, got.den) != want:
                    return False
        if len(pr.dmap) != size:
            return False
        for x, y in pairs:
            xy = tuple((a + b) % m for a, b, m in zip(x, y, orders))
            lhs = pr.dmap[x] @ pr.dmap[y]
            if lhs.shape != (pr.dim, pr.dim):
                return False
            if np.max(np.abs(lhs - phi(x, y) * pr.dmap[xy])) > 1e-9:
                return False
        return True

    return Op("projective_rep", {"G": size, "n": n, "orders": list(orders)},
              lambda: g.projective_rep(fs), check)


def make_round(rng, tiny: bool = False) -> list[Op]:
    t = TINY if tiny else FULL
    ops = [build_op(rng, *x) for x in t["build"]]
    ops += [clifford_op(n) for n in t["clifford"]]
    ops += [ordered_op(*x) for x in t["ordered"]]
    ops += [magnetic_op(rng, d) for d in t["magnetic"]]
    ops += [snf_op(rng, *x) for x in t["snf"]]
    ops += [projrep_op(rng, o) for o in t["projrep"]]
    return [ops[i] for i in rng.permutation(len(ops))]


class Workload:
    name = "exact_build"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def round(self, k: int) -> list[Op]:
        return make_round(np.random.default_rng([self.seed, k]), self.tiny)

    def warm_up(self) -> None:
        for op in make_round(np.random.default_rng([self.seed, 1 << 30]), tiny=True):
            op.call()
