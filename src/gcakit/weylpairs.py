"""Clock and shift matrices and the pairs they form.

The order-N shift A sends basis vector |c> to |c-1 mod N>; the clock B is
diag(1, w, ..., w^(N-1)) with w = e^(2*pi*i/N).  They satisfy A B = w B A
and A^N = B^N = 1, and at N = 2 reduce to the Pauli matrices sigma1 and
sigma3.  Every word A^k B^l, A and B included, is built in closed form by
weyl_word: column c holds w^(l*c) in row (c - k) mod N.  A block with
commutation exponent t mod nhat is realized by the pair (A, B^tau) of order
N_t = nhat/gcd(t, nhat) with tau = t/gcd(t, nhat).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import BadOrder, DegenerateBlock
from .matrices import MonomialMatrix, _is_integer
from .phase import Phase

__all__ = [
    "WeylPair",
    "shift",
    "clock",
    "weyl_word",
    "symmetric_pair",
    "weyl_pair_for",
    "sylvester",
    "sylvester_inverse",
    "hermitian_logs",
]


def weyl_word(order: int, k: int, l: int) -> MonomialMatrix:
    """The unitary word A^k B^l on the order-N clock/shift pair.

    B^l puts w^(l*c) on column c and A^k moves it to row c - k, so the word
    is two index arrays over the denominator N, with no product or power.
    """
    if not _is_integer(order):
        raise BadOrder(f"order must be an integer, got {order!r}")
    if order < 1:
        raise BadOrder(f"order must be >= 1, got {order}")
    ints = (int, np.integer)  # two isinstance tests: every build runs this
    if bool in (type(k), type(l)) or not (isinstance(k, ints) and isinstance(l, ints)):
        raise ValueError(f"word exponents must be integers, got k={k!r}, l={l!r}")
    c = np.arange(order, dtype=np.int64)
    return MonomialMatrix._new((c - k % order) % order, (l % order) * c % order, order)


def shift(n: int) -> MonomialMatrix:
    """Cyclic shift: |c> -> |c-1 mod n>, i.e. ones on the superdiagonal."""
    return weyl_word(n, 1, 0)


def clock(n: int) -> MonomialMatrix:
    """diag(1, w, ..., w^(n-1)) with w = e^(2*pi*i/n)."""
    return weyl_word(n, 0, 1)


@dataclass(frozen=True, slots=True)
class WeylPair:
    """Pair (a, b) with a b = omega^tau b a, a^order = b^order = 1."""

    a: MonomialMatrix
    b: MonomialMatrix
    order: int
    tau: int
    omega: Phase

    def commutator_phase(self) -> Phase:
        return self.omega ** self.tau


def weyl_pair_for(t_j: int, nhat: int) -> WeylPair:
    """Realize the commutation phase e^(2*pi*i*t_j/nhat) on the smallest pair.

    With g = gcd(t_j, nhat) the pair has order nhat/g and uses the clock
    power tau = t_j/g, which is coprime to the order.  A vanishing t_j mod
    nhat means the pair commutes, which is an error.
    """
    if nhat < 2:
        raise BadOrder(f"nhat must be >= 2, got {nhat}")
    t = t_j % nhat
    if t == 0:
        raise DegenerateBlock(f"t_j = {t_j} vanishes mod {nhat}")
    g = gcd(t, nhat)
    order = nhat // g
    tau = t // g
    return WeylPair(
        a=shift(order),
        b=weyl_word(order, 0, tau),
        order=order,
        tau=tau,
        omega=Phase(1, order),
    )


def symmetric_pair(nu: int) -> WeylPair:
    """Order-(2*nu+1) pair with the clock spectrum centered at zero.

    b = diag(w^-nu, ..., w^nu) is the balanced relabeling of the clock used
    by the odd-dimensional phase-space transform; a is the usual shift.
    """
    if nu < 0:
        raise BadOrder(f"nu must be >= 0, got {nu}")
    d = 2 * nu + 1
    b = MonomialMatrix.from_exponents(np.arange(d), np.arange(d) - nu, d)
    return WeylPair(a=shift(d), b=b, order=d, tau=1, omega=Phase(1, d))


def sylvester(n: int) -> np.ndarray:
    """The matrix S[j][k] = w^(j*k), which conjugates clock into shift."""
    if n < 1:
        raise BadOrder(f"order must be >= 1, got {n}")
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j, k] = Phase(j * k, n).to_complex()
    return out


def sylvester_inverse(n: int) -> np.ndarray:
    """Exact inverse (1/n) * w^(-j*k) of the Sylvester matrix."""
    if n < 1:
        raise BadOrder(f"order must be >= 1, got {n}")
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j, k] = Phase(-j * k, n).to_complex() / n
    return out


def hermitian_logs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian (Q, P) with clock = exp(2*pi*i*Q/n), shift = exp(2*pi*i*P/n).

    Q = diag(0..n-1); P is Q conjugated by the Sylvester matrix, using the
    identity shift = S clock S^(-1).
    """
    q = np.diag(np.arange(n)).astype(complex)
    s = sylvester(n)
    p = s @ q @ s.conj().T / n
    return q, p
