"""phase_space: library calls on the dense path.

Matrices are fresh random draws on every call, but the sizes recur: each
round holds one call per size template, so the cost mix is the same for
every seed.  A round has 45 calls: with an odd count that is 5 mod 10, the
pooled median and p90 fall in the middle of one template's samples instead
of on the edge between two templates.
"""

from __future__ import annotations

import math

import numpy as np

import gcakit as g
from common import (
    Op,
    clock_dense,
    close,
    fourier,
    mono_dense,
    shift_dense,
    wigner_operator,
    word_coeffs,
    word_sum,
)

DECOMPOSE_N = [16, 32, 64, 96]
WIGNER_D = [9, 15, 21, 33, 41, 49]
SYLVESTER_N = [32, 64, 96, 256]
CANONICAL_N = [4, 8, 16, 24, 32]
# (generator count, family order) for the power law; odd counts for sigma
POWER_FAMILIES = [(3, 3), (4, 5), (5, 2)]
DIAG_N = [3, 6, 9]
SIGMA_FAMILIES = [(3, 2), (3, 3)]

FULL = {
    "decompose": DECOMPOSE_N, "wigner": WIGNER_D, "sylvester": SYLVESTER_N,
    "canonical": CANONICAL_N, "power": POWER_FAMILIES, "diag": DIAG_N,
    "sigma": SIGMA_FAMILIES,
}
TINY = {k: v[:1] for k, v in FULL.items()}


def rand_complex(rng, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def decompose_ops(rng, n: int) -> list[Op]:
    m = rand_complex(rng, n)
    want = word_coeffs(m)
    coeffs = rand_complex(rng, n)
    recon_want = word_sum(coeffs)
    sc = g.SchwingerCoeffs(order=n, coeffs=coeffs)
    sizes = {"N": n}
    return [
        Op("schwinger_coeffs", sizes, lambda: g.schwinger_coeffs(m),
           lambda out: out.order == n and close(out.coeffs, want)),
        Op("diagonal_slice_decomposition", sizes, lambda: g.diagonal_slice_decomposition(m),
           lambda out: out.order == n and close(out.coeffs, want)),
        Op("schwinger_reconstruct", sizes, lambda: g.schwinger_reconstruct(sc),
           lambda out: close(out, recon_want)),
    ]


def wigner_ops(rng, d: int) -> list[Op]:
    nu = (d - 1) // 2
    table = g.WignerTable(nu=nu, w=rng.normal(size=(d, d)))
    fwd_want = wigner_operator(table.w)
    back_table = rng.normal(size=(d, d))
    h = wigner_operator(back_table)
    sizes = {"d": d}
    return [
        Op("wigner_forward", sizes, lambda: g.wigner_forward(table),
           lambda out: close(out, fwd_want)),
        Op("wigner_inverse", sizes, lambda: g.wigner_inverse(h),
           lambda out: out.nu == nu and close(out.w, back_table)),
    ]


def sylvester_ops(n: int) -> list[Op]:
    s_want = fourier(n)
    shift = shift_dense(n)

    def check_s(s) -> bool:
        # S clock S^-1 = shift, with S^-1 = S^dagger / n
        return close(s, s_want) and close(s @ clock_dense(n) @ s.conj().T / n, shift)

    def check_logs(out) -> bool:
        q, p = out
        want_p = s_want @ np.diag(np.arange(n)) @ s_want.conj().T / n
        return close(q, np.diag(np.arange(n))) and close(p, want_p) and close(p, p.conj().T)

    sizes = {"N": n}
    return [
        Op("sylvester", sizes, lambda: g.sylvester(n), check_s),
        Op("hermitian_logs", sizes, lambda: g.hermitian_logs(n), check_logs),
    ]


def canonical_op(rng, order: int) -> Op:
    units = [x for x in range(1, order) if math.gcd(x, order) == 1]
    m = int(rng.choice(units))
    nn = int(rng.choice(units))
    l = int(rng.integers(0, order))
    k = ((1 + l * m) * pow(nn, -1, order)) % order
    p = g.CanonicalParams(k=k, l=l, m=m, n=nn, order=order)
    a, b = shift_dense(order), clock_dense(order)
    half = np.exp(1j * np.pi / order)
    ap = half ** (-k * l) * np.linalg.matrix_power(a, k) @ np.linalg.matrix_power(b, l)
    bp = half ** (-m * nn) * np.linalg.matrix_power(a, m) @ np.linalg.matrix_power(b, nn)

    def check(res) -> bool:
        s = res.s
        if abs(abs(res.zeta_a) - 1) > 1e-9 or abs(abs(res.zeta_b) - 1) > 1e-9:
            return False
        if not (close(ap @ s, res.zeta_a * s @ a) and close(bp @ s, res.zeta_b * s @ b)):
            return False
        sv = np.linalg.svd(s, compute_uv=False)
        return sv[-1] > 1e-6 * sv[0]

    return Op("canonical_intertwiner", {"N": order}, lambda: g.canonical_intertwiner(p), check)


def l_dense(lam, gens) -> np.ndarray:
    return sum(x * mono_dense(e) for x, e in zip(lam, gens))


def power_op(rng, n: int, order: int) -> Op:
    spec = g.LSpec(tuple(rng.normal(size=n) + 1j * rng.normal(size=n)), g.family_rep(n, order))
    scalar = sum(x**order for x in spec.lam)
    ell = l_dense(spec.lam, spec.rep.gens)
    dim = ell.shape[0]
    power = np.linalg.matrix_power(ell, order)

    def check(rpt) -> bool:
        return (rpt.passed and rpt.order == order and abs(rpt.scalar - scalar) <= 1e-9 * (1 + abs(scalar))
                and close(power, scalar * np.eye(dim)))

    return Op("nth_power_check", {"n": n, "N": order, "dim": dim},
              lambda: g.nth_power_check(spec), check)


def diag_op(rng, n: int) -> Op:
    lam = tuple(float(x) for x in rng.normal(size=n))
    spec = g.LSpec(lam, g.family_rep(n, 2))
    ell = l_dense(lam, spec.rep.gens)
    big = math.sqrt(sum(x * x for x in lam))
    dim = ell.shape[0]

    def check(res) -> bool:
        u = res.u
        if abs(res.big_lambda - big) > 1e-12 * big or not close(u @ u.conj().T, np.eye(dim)):
            return False
        target = big * mono_dense(spec.rep.gens[res.axis])
        return close(u @ ell @ u.conj().T, target) and close(res.eig, np.real(np.diag(target)))

    return Op("diagonalize_l", {"n": n, "dim": dim}, lambda: g.diagonalize_l(spec), check)


def sigma_op(rng, n: int, order: int) -> Op:
    spec = g.LSpec(tuple(rng.normal(size=n)), g.family_rep(n, order))
    lam_new = tuple(rng.normal(size=3))
    small = g.family_rep(3, order)
    ident = np.eye(order)
    direct = sum(x * np.kron(mono_dense(e), ident) for x, e in zip(spec.lam[:-1], spec.rep.gens[:-1]))
    direct = direct + np.kron(mono_dense(spec.rep.gens[-1]), l_dense(lam_new, small.gens))
    want_lam = spec.lam[:-1] + tuple(complex(x) for x in lam_new)

    def check(out) -> bool:
        return tuple(out.lam) == want_lam and close(l_dense(out.lam, out.rep.gens), direct)

    return Op("sigma_operation", {"n": n, "N": order, "dim": direct.shape[0]},
              lambda: g.sigma_operation(spec, lam_new), check)


def make_round(rng, tiny: bool = False) -> list[Op]:
    t = TINY if tiny else FULL
    ops: list[Op] = []
    for n in t["decompose"]:
        ops += decompose_ops(rng, n)
    for d in t["wigner"]:
        ops += wigner_ops(rng, d)
    for n in t["sylvester"]:
        ops += sylvester_ops(n)
    ops += [canonical_op(rng, n) for n in t["canonical"]]
    ops += [power_op(rng, *x) for x in t["power"]]
    ops += [diag_op(rng, n) for n in t["diag"]]
    ops += [sigma_op(rng, *x) for x in t["sigma"]]
    return [ops[i] for i in rng.permutation(len(ops))]


class Workload:
    name = "phase_space"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def round(self, k: int) -> list[Op]:
        return make_round(np.random.default_rng([self.seed, k]), self.tiny)

    def warm_up(self) -> None:
        for op in make_round(np.random.default_rng([self.seed, 1 << 30]), tiny=True):
            op.call()
