"""Shared pieces of the benchmark: the operation record, statistics, the
machine-speed calibration, and the independent oracles used by more than one
workload.

Oracles here never call gcakit functions or methods; they read only plain
attributes (``target``, ``phase``, ``num``, ``den``, arrays), so a defect in
the library cannot also hide itself in its own checker.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable

import numpy as np

# Calls a run must complete so that at least ten samples lie beyond p90.
MIN_CALLS = 100


@dataclass
class Op:
    """One closed-loop call: what to run, how big it is, and how to judge it."""

    kind: str
    sizes: dict
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    # name of a defect listed in ROADMAP that this call is known to expose
    known_defect: str | None = None


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ---------------------------------------------------------------------------
# machine-speed calibration
#
# On a shared host the speed of a vCPU drifts by up to +-25 % over tens of
# seconds, which no run length averages away.  A fixed, library-independent
# kernel of the kinds of work the workloads do (rational arithmetic,
# interpreted integer loops, small FFTs) is timed next to every measured
# interval; the interval is then scaled to the speed at which the kernel
# takes REFERENCE_KERNEL_S.  Raw times are kept in the run records.

REFERENCE_KERNEL_S = 1.0e-3
_KERNEL_X = np.arange(64.0) + 0j


def kernel_s() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(150):
        acc = (acc + Fraction(i % 7, 12)) % 1
    s = 0
    for i in range(3000):
        s += i * i % 7
    x = _KERNEL_X
    for _ in range(20):
        x = np.fft.fft(x) / 64
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, kernel: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel


def local_kernel(kernels: list[float], i: int) -> float:
    """Speed estimate for call i, whose kernels are kernels[i] and kernels[i + 1].

    One kernel is noisy at the 5-10 % level, while the machine's speed holds
    for seconds, so the median of the six kernels nearest the call is used.
    """
    return statistics.median(kernels[max(0, i - 2):i + 4])


# ---------------------------------------------------------------------------
# exact monomial checks on integer arrays

def phase_den_lcm(mats, base: int = 1) -> int:
    d = base
    for m in mats:
        for p in m.phase:
            d = lcm(d, p.den)
    return d


def mono_arrays(m, den: int) -> tuple[np.ndarray, np.ndarray]:
    """(target, exponent) arrays of a monomial matrix over one denominator."""
    target = np.fromiter(m.target, dtype=np.int64, count=len(m.target))
    exp = np.fromiter(
        (p.num * (den // p.den) for p in m.phase), dtype=np.int64, count=len(m.phase)
    )
    return target, exp % den


def arr_mul(a, b, den):
    """Product of two (target, exp) monomials: column c -> a.t[b.t[c]]."""
    at, ae = a
    bt, be = b
    return at[bt], (ae[bt] + be) % den


def arr_pow(a, k: int, den: int):
    dim = len(a[0])
    acc = (np.arange(dim), np.zeros(dim, dtype=np.int64))
    base = a
    while k:
        if k & 1:
            acc = arr_mul(acc, base, den)
        base = arr_mul(base, base, den)
        k >>= 1
    return acc


def check_relations(gens, t, nhat: int, orders, dim: int) -> bool:
    """e_j e_k = w^(t_jk) e_k e_j, e_j^(N_j) = 1 and the dimension, all in integers.

    t is the benchmark's own integer matrix (any representative mod nhat).
    """
    n = len(orders)
    if len(gens) != n or any(g.dim != dim for g in gens):
        return False
    den = phase_den_lcm(gens, nhat)
    arrs = [mono_arrays(g, den) for g in gens]
    unit = den // nhat
    for j in range(n):
        for k in range(j + 1, n):
            lt, le = arr_mul(arrs[j], arrs[k], den)
            rt, re_ = arr_mul(arrs[k], arrs[j], den)
            if not np.array_equal(lt, rt):
                return False
            if np.any((le - re_ - int(t[j][k]) * unit) % den):
                return False
    ident = np.arange(dim)
    for j in range(n):
        pt, pe = arr_pow(arrs[j], int(orders[j]), den)
        if not np.array_equal(pt, ident) or np.any(pe % den):
            return False
    return True


def mono_dense(m) -> np.ndarray:
    """Dense form of a monomial matrix, computed from its fields."""
    out = np.zeros((m.dim, m.dim), dtype=complex)
    cols = np.arange(m.dim)
    ang = np.array([p.num / p.den for p in m.phase])
    out[np.asarray(m.target), cols] = np.exp(2j * np.pi * ang)
    return out


def int_det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i]:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] = (a[j][k] * a[i][i] - a[j][i] * a[i][k]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1] if n else 1


# ---------------------------------------------------------------------------
# dense phase-space references

def close(a, b, tol: float = 1e-8) -> bool:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or not np.all(np.isfinite(a)):
        return False
    scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
    return float(np.max(np.abs(a - b))) <= tol * scale if a.size else True


def shift_dense(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    out[(cols - 1) % n, cols] = 1.0
    return out


def clock_dense(n: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def fourier(n: int) -> np.ndarray:
    """S[j, k] = w^(jk), exponents reduced mod n before rounding."""
    jk = np.outer(np.arange(n), np.arange(n)) % n
    return np.exp(2j * np.pi * jk / n)


def word_coeffs(m: np.ndarray) -> np.ndarray:
    """Coefficients of m over A^k B^l by an FFT of its shifted diagonals."""
    n = m.shape[0]
    cols = np.arange(n)
    diags = m[(cols[None, :] - cols[:, None]) % n, cols[None, :]]
    return np.fft.fft(diags, axis=1) / n


def word_sum(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of word_coeffs: sum_kl c_kl A^k B^l."""
    n = coeffs.shape[0]
    cols = np.arange(n)
    diags = n * np.fft.ifft(coeffs, axis=1)
    out = np.zeros((n, n), dtype=complex)
    out[(cols[None, :] - cols[:, None]) % n, cols[None, :]] = diags
    return out


def wigner_operator(table: np.ndarray) -> np.ndarray:
    """Operator of a real odd-dimensional phase-space table (symmetric clock)."""
    d = table.shape[0]
    nu = (d - 1) // 2
    inv2 = (d + 1) // 2
    v = np.fft.fft2(table) / d
    xe = np.arange(d)[:, None, None]
    eta = np.arange(d)[None, :, None]
    c = np.arange(d)[None, None, :]
    rows = (c - eta) % d
    expo = (xe * eta * inv2 + xe * (rows - nu)) % d
    terms = v[:, :, None] * np.exp(2j * np.pi * expo / d)
    diag = terms.sum(axis=0)  # diag[eta, c] sits at ((c - eta) % d, c)
    out = np.zeros((d, d), dtype=complex)
    cc = np.arange(d)[None, :]
    ee = np.arange(d)[:, None]
    out[(cc - ee) % d, np.broadcast_to(cc, (d, d))] = diag
    return out
