"""Phase-space tools built on a single clock/shift pair.

Covers expansion of an arbitrary matrix over the unitary words A^k B^l,
the same expansion computed through diagonal slicing and a Fourier solve,
discrete Wigner tables in odd dimension, quadratic (canonical) changes of
the pair with their intertwining matrices, and magnetic translation
generators for rational flux triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (
    BadDeterminant,
    BadOrder,
    DimensionMismatch,
    EvenDimension,
    IrrationalFlux,
    NotFinite,
    NotHermitian,
    NotReal,
    UnsupportedTransform,
)
from .matrices import (
    DEFAULT_TOL,
    MonomialMatrix,
    _int_at_least,
    _is_integer,
    max_abs_diff,
    phase_sum,
    to_dense,
    within_tol,
)
from .phase import Phase
from .repbuilder import GcaSpec, Representation, build_representation
from .report import Check, VerificationReport
from .skewnormal import validate_tmatrix
from .weylpairs import clock, shift, weyl_word

__all__ = [
    "weyl_word",
    "SchwingerCoeffs",
    "schwinger_coeffs",
    "schwinger_reconstruct",
    "DiagonalSliceDecomposition",
    "diagonal_slice_decomposition",
    "WignerTable",
    "wigner_forward",
    "wigner_inverse",
    "CanonicalParams",
    "compose_params",
    "canonical_pair",
    "CanonicalResult",
    "canonical_intertwiner",
    "MagneticLattice",
    "MagneticRep",
    "magnetic_translation_rep",
    "bloch_phase",
]


def _square_dense(m) -> np.ndarray:
    """Complex array of a dense entry point's input: square, nonempty, finite."""
    dense = to_dense(m)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or dense.size == 0:
        raise DimensionMismatch(f"need a nonempty square matrix, got shape {dense.shape}")
    return _finite(dense, "matrix entries must be finite")


def _finite(arr: np.ndarray, what: str = "transform leaves the float range") -> np.ndarray:
    # |z| too: a finite z with |z| = inf would make every tolerance scale infinite
    if not np.isfinite(np.abs(arr)).all():
        raise NotFinite(what)
    return arr


# ---------------------------------------------------------------------------
# expansion over the N^2 words A^k B^l, and the DFT kernel behind it

def _diagonals(x: np.ndarray) -> np.ndarray:
    """y[k, c] = x[(c-k) % N, c], the k-th shifted diagonal; its own inverse."""
    c = np.arange(x.shape[0])
    return x[(c - c[:, None]) % x.shape[0], c]


@np.errstate(all="ignore")
def _word_dft(dense: np.ndarray) -> np.ndarray:
    """coeffs[k, l] = (1/N) sum_c w^(-lc) M[(c-k) % N, c], because the word
    A^k B^l holds w^(lc) at [(c-k) % N, c]: one gather and one FFT in all."""
    return _finite(np.fft.fft(_diagonals(dense), axis=1, norm="forward"))


@np.errstate(all="ignore")
def _word_idft(coeffs: np.ndarray) -> np.ndarray:
    """The matrix sum_kl coeffs[k, l] A^k B^l; inverts _word_dft."""
    return _diagonals(_finite(np.fft.ifft(coeffs, axis=1, norm="forward")))


@dataclass(frozen=True, slots=True)
class SchwingerCoeffs:
    """coeffs[k, l] multiplies A^k B^l."""

    order: int
    coeffs: np.ndarray


def schwinger_coeffs(m, order: int | None = None) -> SchwingerCoeffs:
    """Expand a square matrix over the words:  mu_kl = Tr[(A^k B^l)^dag M] / N.

    The words are trace-orthogonal with norm N, so this inverts the sum
    M = sum_kl mu_kl A^k B^l exactly.
    """
    dense = _square_dense(m)
    n = dense.shape[0]
    if order is not None and order != n:
        raise DimensionMismatch(f"matrix is {n}-dimensional, order given as {order}")
    return SchwingerCoeffs(order=n, coeffs=_word_dft(dense))


def schwinger_reconstruct(sc: SchwingerCoeffs) -> np.ndarray:
    return _word_idft(sc.coeffs)


@dataclass(frozen=True, slots=True)
class DiagonalSliceDecomposition:
    """Same expansion reached through diagonal slices and a Fourier solve.

    r[k, j] = M[k, (k+j) % N] collects the j-th shifted diagonal along rows;
    each column r[:, j] equals S c_j for the character matrix S, and the
    solved c turns into coeffs[k, l] = w^(-kl) c[l, k].
    """

    order: int
    r: np.ndarray
    c: np.ndarray
    coeffs: np.ndarray


@np.errstate(all="ignore")
def diagonal_slice_decomposition(m) -> DiagonalSliceDecomposition:
    """The word expansion by a route independent of schwinger_coeffs' kernel."""
    dense = _square_dense(m)
    n = dense.shape[0]
    k = np.arange(n)[:, None]
    r = dense[k, (k + k.T) % n]
    # S[k, l] = w^(kl); each slice is S times its coefficient vector, and a
    # DFT of the slice columns inverts that: c = fft(r, axis=0) / n
    c = np.fft.fft(r, axis=0) / n
    coeffs = _finite(np.exp(-2j * np.pi * (k * k.T % n) / n) * c.T)
    return DiagonalSliceDecomposition(order=n, r=r, c=c, coeffs=coeffs)


# ---------------------------------------------------------------------------
# discrete Wigner transform, odd dimension d = 2 nu + 1

@dataclass(frozen=True, slots=True)
class WignerTable:
    """Real phase-space table w[k, l] on a (2 nu + 1)-point grid."""

    nu: int
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nu", _int_at_least(self.nu, "nu", 0))
        d = 2 * self.nu + 1
        arr = np.asarray(self.w)
        if arr.shape != (d, d):
            raise DimensionMismatch(f"table must be {d}x{d}, got {arr.shape}")
        _finite(arr, "table entries must be finite")
        if np.iscomplexobj(arr):
            if not within_tol(np.max(np.abs(arr.imag)), np.max(np.abs(arr)), 1e-9):
                raise NotReal("table entries must be real")
            arr = arr.real
        object.__setattr__(self, "w", arr.astype(float))


def _wigner_twist(nu: int) -> np.ndarray:
    """Exact roots w^E, E[xe, eta] = xe eta (1/2 - 1) - xe nu mod d: they turn
    sum v w^(xe eta/2) B_s^xe A^eta, with the symmetric clock B_s = w^(-nu) B,
    into a sum over the words A^eta B^xe (1/2 is (d+1)/2 mod d)."""
    d = 2 * nu + 1
    roots = np.array([Phase(j, d).to_complex() for j in range(d)])
    xe = np.arange(d)[:, None]
    return roots[(xe * xe.T * ((d + 1) // 2 - 1) - xe * nu) % d]


@np.errstate(all="ignore")
def wigner_forward(table: WignerTable) -> np.ndarray:
    """Operator for a table:  H = sum v_xe w^(xe*eta/2) B^xe A^eta with
    v = (1/d) sum_kl w_kl w^(-xe k - eta l), using the symmetric clock."""
    v = np.fft.fft2(table.w) / (2 * table.nu + 1)
    return _word_idft((v * _wigner_twist(table.nu)).T)


@np.errstate(all="ignore")
def wigner_inverse(h, tol: float = DEFAULT_TOL) -> WignerTable:
    """Table for a hermitian operator; exact inverse of wigner_forward."""
    dense = _square_dense(h)
    d = dense.shape[0]
    if d % 2 == 0:
        raise EvenDimension(f"dimension must be odd, got {d}")
    if not within_tol(max_abs_diff(dense, dense.conj().T), np.max(np.abs(dense)), tol):  # |H| = |H^dag|
        raise NotHermitian("operator must be hermitian")
    nu = (d - 1) // 2
    v = _word_dft(dense).T * _wigner_twist(nu).conj()
    table = _finite(d * np.fft.ifft2(v))
    if not within_tol(np.max(np.abs(table.imag)), np.max(np.abs(table)), tol):
        raise NotReal("reconstructed table has a complex residue")
    return WignerTable(nu=nu, w=table.real)


# ---------------------------------------------------------------------------
# quadratic changes of the pair, even order

@dataclass(frozen=True, slots=True)
class CanonicalParams:
    """Exponent data for A' = w^(-kl/2) A^k B^l, B' = w^(-mn/2) A^m B^n.

    The integer matrix [[k, m], [l, n]] must have determinant 1 mod N, and
    the half-angle scalars need even N.  Entries are stored reduced mod N;
    the scalars are fixed by the reduced representatives.
    """

    k: int
    l: int
    m: int
    n: int
    order: int

    def __post_init__(self):
        object.__setattr__(self, "order", _int_at_least(self.order))
        if self.order < 2 or self.order % 2 != 0:
            raise BadOrder(f"order must be even and >= 2, got {self.order}")
        for name in ("k", "l", "m", "n"):
            x = getattr(self, name)
            if not _is_integer(x):
                raise ValueError(f"{name} must be an integer, got {x!r}")
            object.__setattr__(self, name, int(x) % self.order)
        det = (self.k * self.n - self.l * self.m) % self.order
        if det != 1:
            raise BadDeterminant(f"k n - l m = {det} mod {self.order}, need 1")


def compose_params(p1: CanonicalParams, p2: CanonicalParams) -> CanonicalParams:
    """Parameters of the composite map, [[k,m],[l,n]]_3 = G(p1) G(p2) mod N."""
    if p1.order != p2.order:
        raise DimensionMismatch(f"orders differ: {p1.order} vs {p2.order}")
    return CanonicalParams(
        k=p1.k * p2.k + p1.m * p2.l,
        l=p1.l * p2.k + p1.n * p2.l,
        m=p1.k * p2.m + p1.m * p2.n,
        n=p1.l * p2.m + p1.n * p2.n,
        order=p1.order,
    )


def canonical_pair(p: CanonicalParams) -> tuple[MonomialMatrix, MonomialMatrix]:
    """The transformed pair.  Determinant 1 mod N keeps the order N and the
    commutation phase w of (A, B); tests check both exactly up to N = 10."""
    ap = weyl_word(p.order, p.k, p.l).scale(Phase(-p.k * p.l, 2 * p.order))
    bp = weyl_word(p.order, p.m, p.n).scale(Phase(-p.m * p.n, 2 * p.order))
    return ap, bp


@dataclass(frozen=True, slots=True)
class CanonicalResult:
    s: np.ndarray
    zeta_a: complex
    zeta_b: complex
    report: VerificationReport


def _fit_scalar(lhs: np.ndarray, rhs: np.ndarray):
    # best unit scalar z with lhs ~ z * rhs, plus the residual it leaves
    z = np.vdot(rhs, lhs)
    if abs(z) == 0.0:
        return 1.0 + 0j, float(max_abs_diff(lhs, rhs))
    z /= abs(z)
    return z, float(max_abs_diff(lhs, z * rhs))


def _gauss_terms(p: CanonicalParams, q: int, x: int, y: int) -> list[Phase]:
    """The roots of unity that _gauss_table sums into its entry (x, y)."""
    order = p.order
    j = (q - y) % order
    return [
        Phase(-p.k * p.l * j * j - p.m * p.n * k * k - 2 * p.l * p.m * j * k - 2 * k * q, 2 * order)
        for k in range(order)
        if (p.k * j + p.m * k + x) % order == 0
    ]


def _gauss_table(p: CanonicalParams, q: int) -> np.ndarray:
    """Entries of sum_(j,k) (A'^j B'^k) E_(0,q) (A^j B^k)^dag, summed exactly.

    Expanding the transformed words through A'^j B'^k =
    w^(-kl j^2/2 - mn k^2/2 - lm jk) A^(kj+mk') B^(...) pins j = q - y and
    leaves, per entry, a Gauss sum over the k' solving k j + m k' = -x
    mod N.  Every term is a root of unity with an integer exponent over 2N,
    so the sum is evaluated with exact coset cancellation.

    The average commutes with the transformed pair on the left and the
    original pair on the right, so by Schur's lemma it is N conj(U[0, q]) U
    for the unitary intertwiner U: nonzero exactly when U[0, q] is.
    """
    order = p.order
    s = np.zeros((order, order), dtype=complex)
    for y in range(order):
        for x in range(order):
            s[x, y] = phase_sum(_gauss_terms(p, q, x, y))
    return s


def canonical_intertwiner(p: CanonicalParams, tol: float = DEFAULT_TOL) -> CanonicalResult:
    """Matrix S with A'S = zeta_a S A and B'S = zeta_b S B.

    S is the exact Gauss-sum table of the group average over all words
    (_gauss_table), which intertwines the pairs with zeta_a = zeta_b = 1.
    By Schur's lemma the table at column q is N conj(U[0, q]) U, so its
    corner c_q = table[0, q] = N |U[0, q]|^2 is real and nonnegative, and
    some c_q is at least 1.  S is the table at the first q with the largest
    corner, divided by that corner: S = U / U[0, q], with S[0, q] = 1.
    When m is a unit mod N every corner is 1, q = 0, and S has one root of
    unity per entry (the order-2 swap gives [[1, 1], [1, -1]]); when m = 0
    S is monomial, a dilation times a diagonal chirp.
    """
    order = p.order
    ap, bp = canonical_pair(p)
    corners = [phase_sum(_gauss_terms(p, q, 0, q)) for q in range(order)]
    q = int(np.argmax(np.abs(corners)))
    s = _gauss_table(p, q) / corners[q]

    a = shift(order).to_dense()
    b = clock(order).to_dense()
    zeta_a, res_a = _fit_scalar(ap.to_dense() @ s, s @ a)
    zeta_b, res_b = _fit_scalar(bp.to_dense() @ s, s @ b)
    # each side of a relation is S times a unitary monomial, so |S| sizes it
    size = np.linalg.norm(s, np.inf)
    sv = np.linalg.svd(s, compute_uv=False)
    checks = (
        Check("relation A", within_tol(res_a, size, tol), f"zeta_a = {zeta_a:.6f}, residual {res_a:.3e}"),
        Check("relation B", within_tol(res_b, size, tol), f"zeta_b = {zeta_b:.6f}, residual {res_b:.3e}"),
        Check("invertible", not within_tol(sv[-1], sv[0], tol), f"smallest singular value {sv[-1]:.3e}"),
    )
    report = VerificationReport(checks)
    if not report.overall:
        raise UnsupportedTransform(report)
    return CanonicalResult(s=s, zeta_a=complex(zeta_a), zeta_b=complex(zeta_b), report=report)


# ---------------------------------------------------------------------------
# magnetic translations for rational flux

def _as_flux(x) -> Fraction:
    try:
        if isinstance(x, (Fraction, str)):
            return Fraction(x)
        if _is_integer(x):
            return Fraction(int(x))
        if isinstance(x, (tuple, list)) and len(x) == 2 and all(map(_is_integer, x)):
            return Fraction(int(x[0]), int(x[1]))
    except ZeroDivisionError:
        raise IrrationalFlux(f"flux denominator must be nonzero, got {x!r}") from None
    raise IrrationalFlux(
        f"flux must be an exact rational (Fraction, int, 'p/q', or (p, q)), got {x!r}"
    )


@dataclass(frozen=True, slots=True)
class MagneticLattice:
    """Rational flux per plaquette for three translation directions."""

    f12: Fraction
    f13: Fraction
    f23: Fraction

    def __post_init__(self):
        for name in ("f12", "f13", "f23"):
            object.__setattr__(self, name, _as_flux(getattr(self, name)))

    def fluxes(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.f12, self.f13, self.f23)


@dataclass(frozen=True, slots=True)
class MagneticRep:
    lattice: MagneticLattice
    nhat: int
    rep: Representation


def magnetic_translation_rep(lat: MagneticLattice) -> MagneticRep:
    """Unitary translations with tau_j tau_k = e^(-2 pi i f_jk) tau_k tau_j.

    The common phase order is the lcm of the flux denominators (at least 2).
    build_representation verifies every commutator exactly; its report is
    rep.report.
    """
    f = lat.fluxes()
    nhat = max(2, lcm(*(x.denominator for x in f)))
    raw = [[0] * 3 for _ in range(3)]
    for (j, k), fx in zip(((0, 1), (0, 2), (1, 2)), f):
        raw[j][k] = -fx.numerator * (nhat // fx.denominator)
        raw[k][j] = -raw[j][k]
    spec = GcaSpec(validate_tmatrix(raw, nhat), (nhat,) * 3)
    return MagneticRep(lattice=lat, nhat=nhat, rep=build_representation(spec))


def bloch_phase(lat: MagneticLattice, steps) -> Phase:
    """Accumulated phase for a closed translation loop with the given winding.

    steps = (n1, n2, n3); the phase exponent is
    n1 n2 f12 + n1 n3 f13 + n2 n3 f23 taken mod 1.
    """
    if not all(map(_is_integer, steps)):
        raise ValueError(f"steps must be integers, got {steps!r}")
    n1, n2, n3 = (int(x) for x in steps)
    return Phase.from_fraction(n1 * n2 * lat.f12 + n1 * n3 * lat.f13 + n2 * n3 * lat.f23)
