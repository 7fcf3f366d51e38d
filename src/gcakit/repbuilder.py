"""Irreducible matrix representations from integer commutation data.

A family of unitary generators e_1..e_n with

    e_j e_k = w^(t_jk) e_k e_j,   w = e^(2*pi*i/nhat),   e_j^(N_j) = 1

is determined by the antisymmetric integer matrix t mod nhat and the
orders N_j.  The construction reduces t to its skew normal form
t = U Tcal U^T, realizes the i-th hyperbolic block of Tcal on a clock/shift
pair (a_i, b_i) at that pair's own order, and maps the block generators
back through the unimodular transform U:

    e_j = mu_j * W_s (x) ... (x) W_1,   W_i = a_i^(u_j,2i-1) b_i^(u_j,2i)

Pair i acts on its own tensor slot alone (pair 1 in the rightmost slot,
pair s in the leftmost), and factors in different slots commute, so the
word in the 2s embedded pair generators collects slot by slot into this
one tensor chain; exponents u_jk with k beyond 2s act on the scalar 1.
The scalar mu_j is fixed by e_j^(N_j) = 1 with the smallest nonnegative
phase exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentOrders,
    InvalidFactorSet,
    UnknownName,
)
from .matrices import (
    DEFAULT_TOL,
    MonomialMatrix,
    _aligned_exponents,
    _fraction_exponents,
    _int_at_least,
    max_abs_diff,
    to_dense,
    within_tol,
)
from .phase import IMAG, MINUS_IMAG, MINUS_ONE, ONE, Phase
from .report import Check, VerificationReport
from .skewnormal import TMatrix, skew_normal_form, validate_tmatrix
from .weylpairs import clock, shift, weyl_pair_for, weyl_word

__all__ = [
    "GcaSpec",
    "Representation",
    "build_representation",
    "verify_relations",
    "verify_gca",
    "clifford_generators",
    "ordered_gca_generators",
    "ordered_mu",
    "sigma1",
    "sigma2",
    "sigma3",
    "FactorSet",
    "ProjectiveRep",
    "projective_rep",
    "catalog",
    "CATALOG_NAMES",
]


def _generator_orders(orders) -> tuple[int, ...]:
    """Generator orders as a tuple of ints, each an int or numpy integer >= 1.

    A bool or a float is rejected rather than read as a number: an order
    of 0 would make e^0 = 1 hold vacuously, and int(2.9) = 2 would check a
    relation nobody asked for.
    """
    return tuple(_int_at_least(nj, "generator order") for nj in orders)


@dataclass(frozen=True, slots=True)
class GcaSpec:
    """Commutation matrix plus generator orders, validated for consistency.

    Consistency means the order of each commutation phase w^(t_jk), which
    is nhat/gcd(t_jk, nhat), divides gcd(N_j, N_k); otherwise the relations
    e_j^(N_j) = 1 contradict the commutation rule.
    """

    t: TMatrix
    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", _generator_orders(self.orders))
        if len(self.orders) != self.t.n:
            raise DimensionMismatch(
                f"{len(self.orders)} orders for an n = {self.t.n} matrix"
            )
        nhat = self.t.nhat
        for j in range(self.t.n):
            for k in range(j + 1, self.t.n):
                ph_order = nhat // gcd(self.t.t[j][k], nhat)
                if gcd(self.orders[j], self.orders[k]) % ph_order != 0:
                    raise InconsistentOrders(
                        f"phase order {ph_order} of pair ({j},{k}) does not divide"
                        f" gcd(N_{j}, N_{k}) = {gcd(self.orders[j], self.orders[k])}"
                    )

    @property
    def n(self) -> int:
        return self.t.n

    @property
    def nhat(self) -> int:
        return self.t.nhat


@dataclass(frozen=True, slots=True)
class Representation:
    """Generators realizing a GcaSpec, with the scalar normalizations used.

    report is the exact verification build_representation ran on the
    generators, or None where the family was not built that way.  It is
    not an init field, so dataclasses.replace and hand-built instances
    cannot carry a report that was run on other generators.
    """

    spec: GcaSpec
    dim: int
    gens: tuple[MonomialMatrix, ...]
    mu: tuple[Phase, ...]
    report: VerificationReport | None = field(default=None, init=False, compare=False, repr=False)


def _chain(factors: list[MonomialMatrix]) -> MonomialMatrix:
    return reduce(lambda a, b: a.tensor(b), factors)


def build_representation(spec: GcaSpec) -> Representation:
    """Construct generators for the commutation data and verify them exactly."""
    f = skew_normal_form(spec.t)
    pairs = [weyl_pair_for(tj, spec.nhat) for tj in f.t_inv]
    dim = prod(p.order for p in pairs)

    gens = []
    mus = []
    for j in range(spec.n):
        u = f.u[j]
        # W_i at the pair's own order; the chain runs pair s, ..., pair 1 from the left
        words = [weyl_word(p.order, u[2 * i], p.tau * u[2 * i + 1]) for i, p in enumerate(pairs)]
        word = _chain(words[::-1]) if words else MonomialMatrix.identity(1)
        zeta = (word ** spec.orders[j]).scalar_phase()
        if zeta is None:
            raise InconsistentOrders(
                f"generator {j}: word^{spec.orders[j]} is not scalar"
            )
        # mu^N_j * zeta = 1, smallest nonnegative exponent solution
        inv = zeta.inverse()
        mu = Phase(inv.num, inv.den * spec.orders[j])
        mus.append(mu)
        gens.append(word.scale(mu))

    rep = Representation(spec=spec, dim=dim, gens=tuple(gens), mu=tuple(mus))
    rpt = verify_gca(rep)
    if not rpt.overall:
        raise InconsistentOrders(f"constructed generators failed verification:\n{rpt}")
    object.__setattr__(rep, "report", rpt)
    return rep


# a dense product that overflows leaves an inf or NaN, which within_tol fails
@np.errstate(over="ignore", invalid="ignore")
def verify_relations(gens, t: TMatrix, orders, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check e_j e_k = w^(t_jk) e_k e_j and e_j^(N_j) = 1 for given matrices.

    All-monomial input is checked with zero tolerance; any dense generator
    switches the whole check to dense arithmetic, judged by within_tol:
    commute[j,k] against |e_j| |e_k| in the max-row-sum norm, and order[j]
    against the larger side's largest entry, max(1, max|e_j^N_j|).
    """
    n, nhat = t.n, t.nhat
    orders = _generator_orders(orders)
    if len(gens) != n or len(orders) != n:
        raise DimensionMismatch(
            f"{len(gens)} generators / {len(orders)} orders for an n = {n} matrix"
        )
    if all(isinstance(g, MonomialMatrix) for g in gens):
        checks = _commutation_checks(gens, t)
        for j in range(n):
            ok = (gens[j] ** orders[j]).is_identity()
            checks.append(Check(f"order[{j}]", ok, f"e_{j}^{orders[j]} = 1"))
        return VerificationReport(tuple(checks))

    checks = []
    dense = [to_dense(g) for g in gens]
    dim = dense[0].shape[0]
    for g in dense:
        if g.shape != (dim, dim):
            raise DimensionMismatch("generators must share one square shape")
    norms = [np.linalg.norm(g, np.inf) for g in dense]
    for j in range(n):
        for k in range(j + 1, n):
            want = Phase(t.t[j][k], nhat).to_complex()
            dev = max_abs_diff(dense[j] @ dense[k], want * (dense[k] @ dense[j]))
            ok = within_tol(dev, norms[j] * norms[k], tol)
            checks.append(Check(f"commute[{j},{k}]", ok, f"deviation {dev:.3e}", deviation=dev))
    eye = np.eye(dim)
    for j in range(n):
        power = np.linalg.matrix_power(dense[j], orders[j])
        dev = max_abs_diff(power, eye)
        ok = within_tol(dev, max(1.0, np.max(np.abs(power))), tol)
        checks.append(Check(f"order[{j}]", ok, f"deviation {dev:.3e}", deviation=dev))
    return VerificationReport(tuple(checks))


# rows x dim bound on the arrays of one block of commutation checks
_BLOCK_ENTRIES = 1 << 20


def _commutation_checks(gens, t: TMatrix) -> list[Check]:
    """The commute[j,k] checks of monomial generators, exactly.

    Every generator's target and exponent arrays are stacked over one
    denominator: the lcm of nhat and the generators' denominators, taken in
    lowest terms when the stored ones would pass MAX_DEN.  Each pair
    j < k is a row: e_j e_k and e_k e_j for a block of rows are one gather
    each, and the pair passes when their targets agree and their exponents
    differ by t_jk * den/nhat in every column.
    """
    n, nhat = t.n, t.nhat
    if n == 0:
        return []
    dim = gens[0].dim
    for g in gens:
        if g.dim != dim:
            raise DimensionMismatch(f"dims {dim} != {g.dim}")
    exps, den = _aligned_exponents(gens, nhat)
    tgt = np.stack([g._target for g in gens])
    exp = np.stack(exps)
    rows_j, rows_k = np.triu_indices(n, 1)
    step = max(1, _BLOCK_ENTRIES // dim)
    checks = []
    for lo in range(0, len(rows_j), step):
        jj, kk = rows_j[lo:lo + step], rows_k[lo:lo + step]
        tj, tk, ej, ek = tgt[jj], tgt[kk], exp[jj], exp[kk]
        # row r holds e_j e_k (target tj[tk]) and e_k e_j (target tk[tj])
        same = (np.take_along_axis(tj, tk, 1) == np.take_along_axis(tk, tj, 1)).all(axis=1)
        lhs = (np.take_along_axis(ej, tk, 1) + ek) % den
        rhs = (np.take_along_axis(ek, tj, 1) + ej) % den
        diff = (lhs - rhs) % den
        scalar = same & (diff == diff[:, :1]).all(axis=1)
        for j, k, is_scalar, d in zip(jj.tolist(), kk.tolist(), scalar.tolist(), diff[:, 0].tolist()):
            want = Phase(t.t[j][k], nhat)
            if is_scalar:
                measured = want if d == want.num * (den // want.den) else Phase(d, den)
                check = Check(f"commute[{j},{k}]", measured is want, f"measured {measured}, want {want}")
            else:
                check = Check(f"commute[{j},{k}]", False, "commutator is not scalar")
            checks.append(check)
    return checks


def verify_gca(rep: Representation) -> VerificationReport:
    """Exact check of every commutation relation and every generator order."""
    return verify_relations(rep.gens, rep.spec.t, rep.spec.orders)


# ---------------------------------------------------------------------------
# the two closed families: anticommuting (order 2) and uniformly w-commuting

sigma1 = MonomialMatrix(2, (1, 0), (ONE, ONE))
sigma3 = MonomialMatrix(2, (0, 1), (ONE, MINUS_ONE))
sigma2 = MonomialMatrix(2, (1, 0), (IMAG, MINUS_IMAG))  # i * sigma1 @ sigma3


def _ordered_tmatrix(n: int, nhat: int) -> TMatrix:
    raw = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            raw[j][k] = 1
            raw[k][j] = -1
    return validate_tmatrix(raw, nhat)


def clifford_generators(n: int) -> Representation:
    """The standard anticommuting family on 2^floor(n/2) dimensions.

    e_(2k-1) = sigma2^(k-1 factors) (x) sigma1 (x) 1...,
    e_(2k)   = sigma2^(k-1 factors) (x) sigma3 (x) 1...,
    and for odd n the last generator is sigma2 on every slot.  This is the
    order-2 family: shift(2) = sigma1, clock(2) = sigma3, mu A^(-1)B = sigma2.
    """
    return ordered_gca_generators(n, 2)


def ordered_mu(n_order: int) -> Phase:
    """Scalar making mu * A^(-1) B an order-N generator.

    (A^(-1)B)^N = (-1)^(N-1), so mu^N must cancel that sign.  For odd N the
    N-th root of unity w^((N+1)/2) does it; for even N a genuine 2N-th root
    is needed and e^(i*pi/N) is the branch that reduces to +i at N = 2,
    turning A^(-1)B into sigma2 exactly.
    """
    if n_order % 2 == 1:
        return Phase(n_order + 1, 2 * n_order)
    return Phase(1, 2 * n_order)


def ordered_gca_generators(n: int, n_order: int) -> Representation:
    """The uniformly w-commuting family (e_j e_k = w e_k e_j for j < k).

    Built from the order-N clock/shift pair on N^floor(n/2) dimensions:
    pair k occupies tensor slot k with mu*A^(-1)B words filling the slots
    to its left.  At N = 2 this is the anticommuting family.
    """
    n, n_order = _int_at_least(n, "n"), _int_at_least(n_order, "N", 2)
    m = n // 2
    a = shift(n_order)
    b = clock(n_order)
    ab = weyl_word(n_order, -1, 1)
    mu = ordered_mu(n_order)
    ident = MonomialMatrix.identity(n_order)
    gens: list[MonomialMatrix] = []
    mus: list[Phase] = []
    for k in range(1, m + 1):
        left = [ab] * (k - 1)
        right = [ident] * (m - k)
        gens.append(_chain(left + [a] + right).scale(mu ** (k - 1)))
        gens.append(_chain(left + [b] + right).scale(mu ** (k - 1)))
        mus += [mu ** (k - 1)] * 2
    if n % 2 == 1:
        word = _chain([ab] * m) if m else MonomialMatrix.identity(1)
        gens.append(word.scale(mu ** m))
        mus.append(mu ** m)
    spec = GcaSpec(_ordered_tmatrix(n, n_order), (n_order,) * n)
    return Representation(spec=spec, dim=n_order ** m, gens=tuple(gens), mu=tuple(mus))


# ---------------------------------------------------------------------------
# projective representations of finite abelian groups

def _exact_exponent(x) -> Fraction:
    if isinstance(x, (bool, float, np.floating)):  # Fraction(0.1) is over 2**55
        raise ValueError(f"bilinear exponents must be exact rationals (int, Fraction or 'p/q'), got {x!r}")
    return Fraction(x)


def _table_exponents(orders, table: dict) -> tuple[tuple[int, ...], np.ndarray, int]:
    """Orders, exp and den of a table mapping each (g, h) to integers (num, den)."""
    orders = _generator_orders(orders)
    # checked before the |G| elements are listed, so a short table cannot
    # ask for a huge enumeration, and an extra key cannot pass silently
    need = prod(orders) ** 2
    if len(table) != need:
        raise InvalidFactorSet(f"table has {len(table)} entries, need {need}")
    elems = list(itertools.product(*(range(nj) for nj in orders)))
    pairs = list(itertools.product(elems, repeat=2))
    missing = [gh for gh in pairs if gh not in table]
    if missing:
        raise InvalidFactorSet(f"missing table entry for {missing[0]}")
    exp, den = _fraction_exponents(*zip(*map(table.get, pairs)))
    return orders, exp.reshape(len(elems), len(elems)), den


class FactorSet:
    """Multiplier table phi(g, h) on Z_{N_1} x ... x Z_{N_n}.

    Elements are exponent tuples, numbered in mixed radix in the order of
    elements() (last coordinate fastest).  The table must hold exactly the
    |G|^2 ordered pairs; it is stored as the (|G|, |G|) int64 array exp over
    one denominator den, phi(g, h) = e^(2*pi*i*exp[g, h]/den), beside the
    (|G|, |G|) multiplication table of element numbers.  validate()
    enforces phi(E,g) = phi(g,E) = 1 and the associativity identity
    phi(g,h) phi(gh,l) = phi(g,hl) phi(h,l) over all triples, as integer
    equalities mod den.
    """

    def __init__(self, orders, table):
        self._init(*_table_exponents(orders, {gh: (p.num, p.den) for gh, p in dict(table).items()}))

    def _init(self, orders: tuple[int, ...], exp: np.ndarray, den: int) -> None:
        self.orders = orders
        self.identity = (0,) * len(orders)
        self.exp = exp
        self.den = den
        # radix[j] is the element number of the generator c_j
        self._radix = tuple(int(np.prod(orders[j + 1:], dtype=np.int64)) for j in range(len(orders)))
        coords = np.array(list(self.elements()), dtype=np.int64).reshape(len(exp), len(orders))
        self._mul = ((coords[:, None, :] + coords[None, :, :]) % orders) @ np.array(
            self._radix, dtype=np.int64
        )

    @classmethod
    def _from_exponents(cls, orders, exp: np.ndarray, den: int) -> "FactorSet":
        fs = cls.__new__(cls)
        fs._init(orders, exp, den)
        return fs

    def elements(self):
        return itertools.product(*(range(nj) for nj in self.orders))

    def _element(self, i: int) -> tuple[int, ...]:
        return tuple((i // r) % nj for r, nj in zip(self._radix, self.orders))

    def _number(self, g) -> int:
        g = tuple(g)
        if len(g) != len(self.orders) or not all(0 <= x < nj for x, nj in zip(g, self.orders)):
            raise KeyError(g)
        return sum(x * r for x, r in zip(g, self._radix))

    @property
    def table(self) -> dict:
        """The multiplier table as a dict {(g, h): Phase}."""
        elems = list(self.elements())
        return {
            (g, h): Phase(int(self.exp[i, k]), self.den)
            for i, g in enumerate(elems)
            for k, h in enumerate(elems)
        }

    def mul(self, g, h):
        return tuple((a + b) % nj for a, b, nj in zip(g, h, self.orders))

    def phi(self, g, h) -> Phase:
        return Phase(int(self.exp[self._number(g), self._number(h)]), self.den)

    def validate(self) -> None:
        e, m, den = self.exp, self._mul, self.den
        bad = np.flatnonzero(e[0] | e[:, 0])
        if bad.size:
            raise InvalidFactorSet(f"normalization fails at {self._element(int(bad[0]))}")
        size = len(e)
        # lhs/rhs[g, h, l] = phi(g,h) phi(gh,l) and phi(g,hl) phi(h,l), a block of g at a time
        step = max(1, (1 << 20) // (size * size))
        for lo in range(0, size, step):
            rows = e[lo:lo + step]
            lhs = rows[:, :, None] + e[m[lo:lo + step]]
            rhs = rows[:, m] + e[None, :, :]
            bad = np.flatnonzero((lhs - rhs) % den)
            if bad.size:
                g, h, l = np.unravel_index(int(bad[0]), lhs.shape)
                triple = (self._element(lo + int(g)), self._element(int(h)), self._element(int(l)))
                raise InvalidFactorSet(f"associativity identity fails at {triple}")

    @classmethod
    def trivial(cls, orders) -> "FactorSet":
        orders = _generator_orders(orders)
        size = int(np.prod(orders, dtype=np.int64))
        return cls._from_exponents(orders, np.zeros((size, size), dtype=np.int64), 1)

    @classmethod
    def bilinear(cls, orders, exps) -> "FactorSet":
        """phi(g, h) = e^(2*pi*i * sum_jk exps[j][k] g_j h_k), exps rational."""
        orders = _generator_orders(orders)
        n = len(orders)
        fr = [_exact_exponent(exps[j][k]) for j in range(n) for k in range(n)]
        exp, den = _fraction_exponents([f.numerator for f in fr], [f.denominator for f in fr])
        # Python ints throughout: den may be up to 2**62, so the sums can pass int64
        a = exp.astype(object).reshape(n, n)
        coords = np.array(list(itertools.product(*(range(nj) for nj in orders))), dtype=object)
        coords = coords.reshape(-1, n)
        exp = ((coords @ a) % den) @ coords.T % den
        return cls._from_exponents(orders, exp.astype(np.int64), den)


@dataclass(frozen=True, slots=True)
class ProjectiveRep:
    """D(g) for every group element, with the standardizing scalars used."""

    orders: tuple[int, ...]
    dim: int
    dmap: dict = field(compare=False, default_factory=dict)
    phi_coeffs: dict = field(compare=False, default_factory=dict)
    commutators: tuple[tuple[Phase, ...], ...] = ()
    gens: tuple[MonomialMatrix, ...] = ()


def projective_rep(fs: FactorSet) -> ProjectiveRep:
    """Standard projective representation for a validated multiplier table.

    The commutation phases Omega(c_j, c_k) = phi(c_j,c_k)/phi(c_k,c_j)
    induce an ordinary generator family e_j (built like any other spec);
    D(c_j) strips the accumulated scalar phi(c_j^(N_j))^(1/N_j) from e_j,
    and general D(g) follow from the peeling recursion.  Every pair
    relation D(g) D(h) = phi(g,h) D(gh) is then checked exactly.

    The recursion peels the leftmost generator c_j with a nonzero exponent:
    g = c_j g' gives D(g) = phi(c_j, g')^(-1) D(c_j) D(g'), so in lexicographic
    order g' is always known.  phi_coeffs[g] is the scalar with
    D(g) = phi_coeffs[g] * prod_j D(c_j)^(g_j).
    """
    fs.validate()
    n = len(fs.orders)
    # c_j and its element number: the radix, or 0 for a factor of order 1
    cgen = [tuple(int(i == j) % fs.orders[i] for i in range(n)) for j in range(n)]
    c = [fs._number(g) for g in cgen]
    # Python ints: den may be up to 2**62, so sums of exponents can pass int64
    e, den = fs.exp.tolist(), fs.den
    omega = [[Phase(e[c[j]][c[k]] - e[c[k]][c[j]], den) for k in range(n)] for j in range(n)]
    nhat = max(2, lcm(*(w.den for row in omega for w in row)))
    raw = [[w.num * (nhat // w.den) for w in row] for row in omega]
    spec = GcaSpec(validate_tmatrix(raw, nhat), fs.orders)
    rep = build_representation(spec)

    # D(c_j)^(N_j) must be prod_(p < N_j) phi(c_j, c_j^p) while e_j^(N_j) = 1: scale by an N_j-th root
    dgens = []
    for j, nj in enumerate(fs.orders):
        acc = Phase(-sum(e[c[j]][p * c[j]] for p in range(nj)), den)
        dgens.append(rep.gens[j].scale(acc.root(nj).inverse()))

    coeff = {fs.identity: ONE}
    dmap = {fs.identity: MonomialMatrix.identity(rep.dim)}
    for g in itertools.islice(fs.elements(), 1, None):
        j = next(i for i in range(n) if g[i])
        g2 = g[:j] + (g[j] - 1,) + g[j + 1:]
        z = fs.phi(cgen[j], g2).inverse()
        coeff[g] = z * coeff[g2]
        dmap[g] = (dgens[j] @ dmap[g2]).scale(z)

    elems = list(fs.elements())
    words = [dmap[g] for g in elems]
    mul = fs._mul.tolist()
    for i, g in enumerate(elems):
        for k, h in enumerate(elems):
            if words[i] @ words[k] != words[mul[i][k]].scale(Phase(e[i][k], den)):
                raise InvalidFactorSet(
                    f"representation property fails at pair {(g, h)}"
                )

    return ProjectiveRep(
        orders=fs.orders,
        dim=rep.dim,
        dmap={g: m.to_dense() for g, m in dmap.items()},
        phi_coeffs=coeff,
        commutators=tuple(tuple(row) for row in omega),
        gens=tuple(dgens),
    )


# ---------------------------------------------------------------------------
# small catalog of named generator sets

CATALOG_NAMES = ("pauli", "quaternion", "dirac", "dirac_positive_energy")


def catalog(name: str) -> dict[str, MonomialMatrix]:
    """Named generator sets expressed as exact monomial matrices."""
    ident = MonomialMatrix.identity(2)
    if name == "pauli":
        return {"sigma1": sigma1, "sigma2": sigma2, "sigma3": sigma3}
    if name == "quaternion":
        return {
            "one": ident,
            "i": sigma1.scale(MINUS_IMAG),
            "j": sigma3.scale(MINUS_IMAG),
            "k": sigma2.scale(IMAG),
        }
    if name == "dirac":
        return {
            "alpha_x": sigma1.tensor(sigma1),
            "alpha_y": sigma1.tensor(sigma2),
            "alpha_z": sigma1.tensor(sigma3),
            "beta": sigma3.tensor(ident),
        }
    if name == "dirac_positive_energy":
        return {
            "beta_prime": sigma2.tensor(ident),
            "alpha_x_prime": sigma1.tensor(sigma3).scale(MINUS_ONE),
            "alpha_y_prime": sigma1.tensor(sigma1),
            "alpha_z_prime": sigma3.tensor(ident),
        }
    raise UnknownName(f"no catalog entry named {name!r}; have {CATALOG_NAMES}")
