"""Linear combinations of generators and their power and diagonalization laws.

For the anticommuting family, L = sum_j lam_j e_j squares to the scalar
Lambda^2 = sum lam_j^2, and conjugation by (L + Lambda e_axis), suitably
normalized, maps L onto the single generator Lambda e_axis.  For the
uniformly w-commuting family of order N the N-th power is the scalar
sum lam_j^N instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadOrder,
    DimensionMismatch,
    EvenGeneratorCount,
    GcaError,
    NotFinite,
    NotReal,
    ZeroVector,
)
from .matrices import DEFAULT_TOL, max_abs_diff, to_dense, within_tol
from .repbuilder import Representation, ordered_gca_generators

__all__ = [
    "LSpec",
    "l_matrix",
    "family_rep",
    "family_order",
    "sigma_operation",
    "DiagonalizationResult",
    "diagonalize_l",
    "NthPowerReport",
    "nth_power_check",
]


@dataclass(frozen=True, slots=True)
class LSpec:
    """Coefficient vector attached to a concrete generator family."""

    lam: tuple
    rep: Representation

    def __post_init__(self):
        lam = to_dense(self.lam)
        if lam.shape != (len(self.rep.gens),):
            raise DimensionMismatch(f"coefficients of shape {lam.shape} for {len(self.rep.gens)} generators")
        object.__setattr__(self, "lam", tuple(lam.tolist()))
        for x in self.lam:
            if not cmath.isfinite(x):
                raise NotFinite(f"coefficients must be finite, got {x}")


def _combination(coeffs, gens, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    for cj, ej in zip(coeffs, gens):
        out += cj * ej.to_dense()
    return out


def l_matrix(spec: LSpec) -> np.ndarray:
    return _combination(spec.lam, spec.rep.gens, spec.rep.dim)


def family_order(rep: Representation) -> int | None:
    """N when rep is the standard family (every t_jk = 1, every order = nhat)."""
    t = rep.spec.t
    uniform = all(t.t[j][k] == 1 for j in range(t.n) for k in range(j + 1, t.n))
    return t.nhat if uniform and all(nj == t.nhat for nj in rep.spec.orders) else None


def family_rep(n: int, order: int) -> Representation:
    """Standard n-generator family of the given order (order 2 anticommutes)."""
    return ordered_gca_generators(n, order)


def sigma_operation(spec: LSpec, lam_new) -> LSpec:
    """Replace the final coefficient by a 3-generator block two sizes up.

    An odd family ends in the diagonal-word generator; tensoring one more
    clock/shift slot onto it splits that word into three new generators, so
    (lam_1..lam_2m, lam_last) on n = 2m+1 generators becomes
    (lam_1..lam_2m, a, b, c) on n+2, and the new L equals the block
    substitution sum_(j<=2m) lam_j (e_j x 1) + e_(2m+1) x L3(a, b, c).
    """
    n = len(spec.lam)
    if n % 2 == 0:
        raise EvenGeneratorCount(f"need an odd generator count, got {n}")
    order = family_order(spec.rep)
    if order is None:
        raise BadOrder("sigma operation is defined on the standard families only")
    lam_new = tuple(lam_new)  # LSpec reads the entries
    if len(lam_new) != 3:
        raise DimensionMismatch(f"replacement block takes 3 coefficients, got {len(lam_new)}")

    return LSpec(spec.lam[:-1] + lam_new, family_rep(n + 2, order))


@dataclass(frozen=True, slots=True)
class DiagonalizationResult:
    u: np.ndarray
    eig: np.ndarray
    axis: int
    used_fallback: bool
    big_lambda: float


def _axis_conjugator(lam, big_lambda, gens, axis, dim):
    # (L + Lambda e_axis) / sqrt(2 Lambda (Lambda + lam_axis)); hermitian involution
    m = _combination(lam, gens, dim)
    m += big_lambda * gens[axis].to_dense()
    return m / math.sqrt(2.0 * big_lambda * (big_lambda + lam[axis]))


def diagonalize_l(spec: LSpec, tol: float = DEFAULT_TOL) -> DiagonalizationResult:
    """Unitary u with u L u^dagger = Lambda e_axis, for the anticommuting family.

    The default target axis is the second generator, which is diagonal, so
    the conjugated matrix is literally diagonal with entries +-Lambda.  When
    lam is nearly antiparallel to that axis (Lambda + lam_2 vanishes) the
    conjugation degenerates; the fallback routes through the generator with
    the largest coefficient and then rotates that axis onto the second, at
    the cost of a second factor in u.
    """
    if family_order(spec.rep) != 2:
        raise BadOrder("diagonalization requires the order-2 anticommuting family")
    lam = []
    for x in spec.lam:
        if abs(x.imag) > 0:
            raise NotReal(f"coefficients must be real, got {x}")
        lam.append(x.real)
    # u does not change when lam is scaled, so Lambda, u and the conjugated
    # L are taken on lam scaled by a power of two (exact), which neither
    # underflows nor overflows; Lambda and the eigenvalues are scaled back
    e = math.frexp(max(abs(x) for x in lam))[1]
    unit = [math.ldexp(x, -e) for x in lam]
    unit_lambda = math.sqrt(sum(y * y for y in unit))
    try:
        big_lambda = math.ldexp(unit_lambda, e)
    except OverflowError:
        raise NotFinite("Lambda = inf is not finite") from None
    if big_lambda == 0.0:
        raise ZeroVector("all coefficients vanish")

    n = len(lam)
    dim = spec.rep.dim
    gens = spec.rep.gens
    if n == 1:
        return DiagonalizationResult(
            u=np.eye(1, dtype=complex),
            eig=np.array([lam[0]]),
            axis=0,
            used_fallback=False,
            big_lambda=big_lambda,
        )

    axis = 1
    used_fallback = unit_lambda + unit[axis] <= 1e-4 * unit_lambda
    if not used_fallback:
        u = _axis_conjugator(unit, unit_lambda, gens, axis, dim)
    else:
        step = max(range(n), key=lambda j: unit[j])
        u1 = _axis_conjugator(unit, unit_lambda, gens, step, dim)
        # L' = Lambda e_step has zero coefficient on the target axis
        lam2 = [0.0] * n
        lam2[step] = unit_lambda
        u2 = _axis_conjugator(lam2, unit_lambda, gens, axis, dim)
        u = u2 @ u1

    transformed = u @ _combination(unit, gens, dim) @ u.conj().T
    dev = max_abs_diff(transformed, unit_lambda * gens[axis].to_dense())
    # on the scaled L, whose size is Lambda: u is unitary and L^2 = Lambda^2
    if not within_tol(dev, unit_lambda, tol):
        raise GcaError(f"conjugation check failed, deviation {dev:.3e}")
    try:
        eig = np.array([math.ldexp(x, e) for x in np.real(np.diag(transformed)).tolist()])
    except OverflowError:
        raise NotFinite("an eigenvalue of L is not finite") from None
    return DiagonalizationResult(
        u=u,
        eig=eig,
        axis=axis,
        used_fallback=used_fallback,
        big_lambda=big_lambda,
    )


@dataclass(frozen=True, slots=True)
class NthPowerReport:
    order: int
    scalar: complex
    deviation: float
    passed: bool


def nth_power_check(spec: LSpec, tol: float = DEFAULT_TOL) -> NthPowerReport:
    """L^N against sum_j lam_j^N on an order-N family; deviation and gate are relative to |L|^N
    in the submultiplicative max-row-sum norm, since the terms of the sum can cancel."""
    order = family_order(spec.rep)
    if order is None:
        raise BadOrder("power law check is defined on the standard families only")
    try:
        scalar = sum(x**order for x in spec.lam)
    except OverflowError:
        scalar = math.inf
    if not cmath.isfinite(scalar):
        raise NotFinite(f"the sum of lam_j^{order} overflows the float range")
    # the relative deviation does not change when lam is scaled by a power of
    # two (exact), so it is taken on lam scaled to sum |lam_j| in [1/2, 1):
    # |L| <= sum |lam_j| < 1 (unitary generators), so |L|^N cannot overflow,
    # and tiny lam no longer put L^N in the subnormal range
    e = math.frexp(sum(abs(x) for x in spec.lam))[1]
    unit = [complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)) for x in spec.lam]
    ell = _combination(unit, spec.rep.gens, spec.rep.dim)
    want = sum(x**order for x in unit) * np.eye(spec.rep.dim)
    dev = max_abs_diff(np.linalg.matrix_power(ell, order), want)
    size = float(np.linalg.norm(ell, np.inf) ** order)
    return NthPowerReport(order, scalar, dev / size if size else dev, within_tol(dev, size, tol))
