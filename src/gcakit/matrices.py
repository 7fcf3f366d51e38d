"""Monomial (generalized permutation) matrices and dense helpers.

Clock/shift generator words have exactly one nonzero entry per row and per
column, and that entry is a root of unity.  Such a matrix is stored as two
int64 arrays over one denominator den: column c carries the entry
e^(2*pi*i*exp[c]/den) in row target[c].  A product aligns both operands to
the lcm of their denominators and is then a gather plus an add mod den; the
adjoint is a scatter and a tensor product an outer sum.  All of it is
integer arithmetic, so every comparison is an exact ==.

Phase stays the scalar type at the edges: the constructor takes one Phase
per column, and the read-only views .target and .phase give tuples back.
A denominator is at most MAX_DEN = 2**62, so that the sum of two exponents
cannot wrap an int64; a common denominator beyond it raises
DenominatorOverflow.  Sums of monomials fall back to dense numpy arrays.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm

import numpy as np

from .errors import BadOrder, DenominatorOverflow, DimensionMismatch, NotFinite
from .phase import Phase, _as_int, _is_integer

__all__ = [
    "DEFAULT_TOL",
    "MonomialMatrix",
    "phase_sum",
    "to_dense",
    "max_abs_diff",
    "within_tol",
]

DEFAULT_TOL = 1e-10
"""Tolerance of every dense gate, judged by within_tol: relative to the size
of what is compared (the larger side's largest entry for a difference, the
product of the operands' max-row-sum norms for a product), with an exact
zero compared exactly."""
MAX_DEN = 2**62


def within_tol(dev, size, tol) -> bool:
    """The one rule of every dense gate: dev <= tol * size, for a finite size.

    dev is the largest entrywise deviation and size that of what is compared,
    so scaling the input by a power of two, which is exact in binary floating
    point, leaves the verdict unchanged.  When size is 0 only dev == 0
    passes; a NaN, or a size that overflowed to inf, fails.
    """
    return bool(dev <= tol * size < np.inf)


def _check_den(den: int) -> int:
    if den > MAX_DEN:
        raise DenominatorOverflow(f"common phase denominator {den} exceeds 2**62")
    return den


def _int_at_least(x, name: str = "order", low: int = 1) -> int:
    """x as an int when it is an integer (by _is_integer) >= low; BadOrder naming it otherwise."""
    if not _is_integer(x):
        raise BadOrder(f"{name} must be an integer, got {x!r}")
    if x < low:
        raise BadOrder(f"{name} must be >= {low}, got {x}")
    return int(x)


def _int_vector(values, what: str) -> np.ndarray:
    """A fresh int64 copy of values; bools, floats and other non-integers are rejected."""
    arr = np.array(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must hold integers, got {arr.dtype} entries")
    return arr.astype(np.int64)


def _validated(target, exp, den) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer arrays (target, exp mod den) and den, checked for a monomial matrix."""
    den = _as_int(den, "denominator")
    if den < 1:
        raise ValueError(f"denominator must be >= 1, got {den}")
    den = _check_den(den)
    target = _int_vector(target, "target")
    exp = _int_vector(exp, "exp") % den
    if target.ndim != 1 or exp.shape != target.shape:
        raise DimensionMismatch("target and exp must be vectors of one length")
    if not np.array_equal(np.sort(target), np.arange(len(target))):
        raise ValueError("target must be a permutation of 0..dim-1")
    return target, exp, den


def _fraction_exponents(nums, dens) -> tuple[np.ndarray, int]:
    """Exponents of e^(2*pi*i*nums[c]/dens[c]) over the lcm den of the reduced
    denominators, for integers of any size and nonzero dens; dens[c] divides
    nums[c] * den, so each exponent is one exact floor division."""
    den = _check_den(lcm(*{abs(b) // gcd(a, b) for a, b in zip(nums, dens)}))
    exp = np.array([a * den // b % den for a, b in zip(nums, dens)], dtype=np.int64)
    return exp, den


def _coset_sum(residues, big: int) -> complex:
    """Sum the roots e^(2*pi*i*r/big), cancelling complete cosets exactly.

    Any full coset {z*w^j : j = 0..M-1} of the M-th roots of unity (M >= 2)
    sums to exactly zero, so it is removed before any floating evaluation.
    Geometric sums over a full cyclic orbit therefore come out as an exact
    0j or an exact integer multiple of one remaining root.

    A full coset of size m needs m distinct residues with positive count,
    so only m up to the live-residue count can cancel, and every coset that
    does cancel is anchored at some present residue.  Scanning those anchors
    keeps the work proportional to the input, not to the lcm of the orders.
    """
    counts: Counter[int] = Counter(residues)
    if not counts:
        return 0j
    live = {res for res, c in counts.items() if c}
    for m in range(len(live), 1, -1):
        if big % m or m > len(live):
            continue
        step = big // m
        tried = set()
        for x in list(live):
            b = x % step
            if b in tried:
                continue
            tried.add(b)
            coset = range(b, big, step)
            k = min(counts.get(y, 0) for y in coset)
            if k:
                for y in coset:
                    counts[y] -= k
                    if counts[y] == 0:
                        live.discard(y)
    total = 0j
    for res, cnt in counts.items():
        if cnt:
            total += cnt * Phase(res, big).to_complex()
    return total


def _roots(exp: np.ndarray, den: int) -> np.ndarray:
    """The roots e^(2*pi*i*exp/den) for exponents 0 <= exp < den, elementwise.

    One Phase.to_complex per distinct exponent, gathered, so every entry has
    Phase's exact bits.  When den is no larger than the array, the distinct
    exponents are found by counting into den slots, with no sort.
    """
    if den > np.size(exp):
        vals, inv = np.unique(exp, return_inverse=True)
        table = np.array([Phase(v, den).to_complex() for v in vals.tolist()], dtype=complex)
        return table[inv.reshape(np.shape(exp))]
    vals = np.flatnonzero(np.bincount(np.ravel(exp), minlength=den))
    table = np.zeros(den, dtype=complex)
    table[vals] = [Phase(v, den).to_complex() for v in vals.tolist()]
    return table[exp]


def _root_sums(exp: np.ndarray, den: int) -> np.ndarray:
    """Row sums of the roots e^(2*pi*i*exp[r, t]/den), each as _coset_sum gives it.

    A row of one term needs no cancellation, so that case is one gather from
    the distinct roots, added to 0j as _coset_sum adds it (a lone -i comes
    out as 0-1j, not -0-1j).  Longer rows go through _coset_sum in column
    order, which keeps its exact zeros and its float summation order.
    """
    if exp.shape[1] == 1:
        return 0j + _roots(exp[:, 0], den)
    return np.array([_coset_sum(row, den) for row in exp.tolist()], dtype=complex)


def phase_sum(phases) -> complex:
    """Exact sum of roots of unity; complete cosets cancel to a true zero."""
    phases = list(phases)
    big = lcm(*(p.den for p in phases))
    return _coset_sum(((p.num * (big // p.den)) % big for p in phases), big)


class MonomialMatrix:
    """Square matrix with entry e^(2*pi*i*exp[c]/den) at (target[c], c), zeros elsewhere.

    Immutable.  MonomialMatrix(dim, target, phase) takes a permutation and
    one Phase per column; equality and hashing do not depend on which
    common denominator the exponents happen to be stored over.
    """

    __slots__ = ("dim", "den", "_target", "_exp")

    def __init__(self, dim: int, target, phase):
        self.__post_init__(dim, target, phase)

    def __post_init__(self, dim: int, target, phase):
        if len(target) != dim or len(phase) != dim:
            raise DimensionMismatch("target/phase length must equal dim")
        if not all(isinstance(p, Phase) for p in phase):
            raise ValueError("phase entries must be Phase values")
        exp, den = _fraction_exponents([p.num for p in phase], [p.den for p in phase])
        self._init(*_validated(target, exp, den))

    def _init(self, target: np.ndarray, exp: np.ndarray, den: int) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "dim", len(target))
        setattr_(self, "den", den)
        setattr_(self, "_target", target)
        setattr_(self, "_exp", exp)

    @classmethod
    def _new(cls, target: np.ndarray, exp: np.ndarray, den: int) -> "MonomialMatrix":
        # trusted arrays: target a permutation, 0 <= exp < den <= MAX_DEN
        m = object.__new__(cls)
        m._init(target, exp, den)
        return m

    @classmethod
    def from_exponents(cls, target, exp, den: int) -> "MonomialMatrix":
        """Column c holds e^(2*pi*i*exp[c]/den) in row target[c]; exp is taken mod den.

        The arrays are copied, so later changes to the caller's arrays cannot
        reach the matrix.
        """
        return cls._new(*_validated(target, exp, den))

    def __setattr__(self, name, value):
        raise AttributeError(f"MonomialMatrix is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (MonomialMatrix._new, (self._target, self._exp, self.den))

    @property
    def target(self) -> tuple[int, ...]:
        return tuple(self._target.tolist())

    @property
    def phase(self) -> tuple[Phase, ...]:
        den = self.den
        return tuple(Phase(e, den) for e in self._exp.tolist())

    def phase_fractions(self) -> tuple[list[int], list[int]]:
        """Per column, the phase exponent in lowest terms: (nums, dens)."""
        g = np.gcd(self._exp, self.den)
        return (self._exp // g).tolist(), (self.den // g).tolist()

    def __repr__(self) -> str:
        return f"MonomialMatrix(dim={self.dim}, target={self.target}, phase={self.phase})"

    def _reduced(self) -> "MonomialMatrix":
        """The same matrix over its smallest denominator."""
        g = gcd(self.den, int(np.gcd.reduce(self._exp)))
        if g == 1:
            return self
        return MonomialMatrix._new(self._target, self._exp // g, self.den // g)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        if self.dim != other.dim or not np.array_equal(self._target, other._target):
            return False
        a, b = (self, other) if self.den == other.den else (self._reduced(), other._reduced())
        return a.den == b.den and np.array_equal(a._exp, b._exp)

    def __hash__(self) -> int:
        r = self._reduced()
        return hash((self.dim, r.den, self._target.tobytes(), r._exp.tobytes()))

    @staticmethod
    def identity(dim: int) -> "MonomialMatrix":
        dim = _int_at_least(dim, "dim", 0)
        return MonomialMatrix._new(np.arange(dim, dtype=np.int64), np.zeros(dim, dtype=np.int64), 1)

    @staticmethod
    def diagonal(phases: tuple[Phase, ...]) -> "MonomialMatrix":
        d = len(phases)
        return MonomialMatrix(d, tuple(range(d)), tuple(phases))

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} != {other.dim}")
        (ea, eb), den = _aligned_exponents((self, other))
        cols = other._target
        return MonomialMatrix._new(self._target[cols], (ea[cols] + eb) % den, den)

    def adjoint(self) -> "MonomialMatrix":
        tgt = np.empty_like(self._target)
        tgt[self._target] = np.arange(self.dim)
        exp = np.empty_like(self._exp)
        exp[self._target] = -self._exp % self.den
        return MonomialMatrix._new(tgt, exp, self.den)

    def inverse(self) -> "MonomialMatrix":
        # entries are unit phases, so the inverse is the adjoint
        return self.adjoint()

    def __pow__(self, k: int) -> "MonomialMatrix":
        k = _as_int(k, "power")
        if k == 0:
            return MonomialMatrix.identity(self.dim)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        acc = None
        while True:
            if k & 1:
                acc = base if acc is None else acc @ base
            k >>= 1
            if not k:
                return acc
            base = base @ base

    def tensor(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """Kronecker product; the left factor is the slow (row-major) index."""
        (ea, eb), den = _aligned_exponents((self, other))
        tgt = self._target[:, None] * other.dim + other._target[None, :]
        exp = (ea[:, None] + eb[None, :]) % den
        return MonomialMatrix._new(tgt.ravel(), exp.ravel(), den)

    def scale(self, z: Phase) -> "MonomialMatrix":
        (exp,), den = _aligned_exponents((self,), z.den)
        return MonomialMatrix._new(self._target, (exp + z.num * (den // z.den)) % den, den)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self._target, np.arange(self.dim)] = _roots(self._exp, self.den)
        return out

    def trace_exact(self) -> complex:
        fixed = self._exp[self._target == np.arange(self.dim)]
        # over the smallest denominator of the diagonal entries
        g = gcd(self.den, int(np.gcd.reduce(fixed)))
        return _coset_sum((fixed // g).tolist(), self.den // g)

    def scalar_phase(self) -> Phase | None:
        """The Phase z when this matrix equals z * identity, else None."""
        if not np.array_equal(self._target, np.arange(self.dim)):
            return None
        first = self._exp[0]
        if np.any(self._exp != first):
            return None
        return Phase(int(first), self.den)

    def is_identity(self) -> bool:
        return not self._exp.any() and np.array_equal(self._target, np.arange(self.dim))


def _aligned_exponents(mats, den: int = 1) -> tuple[list[np.ndarray], int]:
    """Exponents of mats over one denominator, the lcm of theirs and den, with it.

    Past MAX_DEN the matrices are first brought to their smallest
    denominators; only when the lcm is still too large is
    DenominatorOverflow raised.  Every product and scale runs this, so it
    loops instead of building comprehensions.
    """
    extra = den
    for m in mats:
        den = lcm(den, m.den)
    if den > MAX_DEN:
        mats = [m._reduced() for m in mats]
        den = _check_den(lcm(extra, *[m.den for m in mats]))
    exps = []
    for m in mats:
        exps.append(m._exp if m.den == den else m._exp * (den // m.den))
    return exps, den


def to_dense(x) -> np.ndarray:
    """x as a complex array; the one rule for numbers that come from outside.

    Each entry must be an int, float or complex (numpy scalars and numeric
    dtypes count).  A bool, a string, None or a list where a number belongs
    (as in a ragged list) raises ValueError naming the first one; an integer
    past the float range raises NotFinite.  Finiteness is left to callers.
    """
    if isinstance(x, MonomialMatrix):
        return x.to_dense()
    if isinstance(x, np.ndarray) and x.dtype.kind in "iufc":
        return x.astype(complex, copy=False)
    # checked before numpy coerces: np.asarray([True, 2.5]) is already a float array
    x = np.asarray(x, dtype=object)
    for e in x.flat:
        if isinstance(e, bool) or not isinstance(e, (int, float, complex, np.number)):
            raise ValueError(f"entries must be numbers, got {e!r}")
    try:
        return x.astype(complex)
    except OverflowError:  # an integer past the float range
        raise NotFinite("matrix entries must be finite") from None


def max_abs_diff(a, b) -> float:
    da, db = to_dense(a), to_dense(b)
    if da.shape != db.shape:
        raise DimensionMismatch(f"shapes {da.shape} vs {db.shape}")
    return float(np.max(np.abs(da - db))) if da.size else 0.0
