"""Exact matrix representations for generalized Clifford algebras.

Generators obeying e_j e_k = w^(t_jk) e_k e_j with e_j^(N_j) = 1 are built
from the integer data (nhat, t, orders) via the skew normal form of t,
realized on clock/shift pairs, and every relation is re-checked exactly.
On top of that sit projective representations of finite abelian groups,
power and diagonalization laws for generator combinations, expansion of
arbitrary matrices over clock/shift words, discrete Wigner tables,
quadratic changes of a pair, and magnetic translation generators.

Each public name is read from its defining module, which is imported on
first use, so `import gcakit` alone loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining module, each name listed once.  A name resolves
# through its module on every read and is never stored here, so a binding
# patched in the module (by a test or a tracer) is what the package returns.
_HOME = {
    name: module
    for module, names in (
        ("phase", ("Phase", "ONE", "MINUS_ONE", "IMAG", "MINUS_IMAG")),
        ("matrices", ("MonomialMatrix", "DEFAULT_TOL", "to_dense", "max_abs_diff")),
        ("skewnormal", ("TMatrix", "SkewNormalForm", "validate_tmatrix", "skew_normal_form",
                        "verify_congruence", "int_det")),
        ("weylpairs", ("WeylPair", "shift", "clock", "weyl_word", "weyl_pair_for",
                       "symmetric_pair", "sylvester", "sylvester_inverse", "hermitian_logs",
                       "sigma1", "sigma2", "sigma3", "catalog", "CATALOG_NAMES")),
        ("repbuilder", ("GcaSpec", "Representation", "build_representation", "verify_gca",
                        "verify_relations", "clifford_generators", "ordered_gca_generators",
                        "ordered_mu", "FactorSet", "ProjectiveRep", "projective_rep")),
        ("lmatrix", ("LSpec", "l_matrix", "family_rep", "family_order", "sigma_operation",
                     "DiagonalizationResult", "diagonalize_l", "NthPowerReport",
                     "nth_power_check")),
        ("phasespace", ("SchwingerCoeffs", "schwinger_coeffs", "schwinger_reconstruct",
                        "DiagonalSliceDecomposition", "diagonal_slice_decomposition",
                        "WignerTable", "wigner_forward", "wigner_inverse",
                        "CanonicalParams", "compose_params", "canonical_pair",
                        "CanonicalResult", "canonical_intertwiner",
                        "MagneticLattice", "MagneticRep", "magnetic_translation_rep",
                        "bloch_phase")),
        ("serialize", ("emit_json", "matrix_to_doc", "doc_to_matrix", "factor_set_to_doc",
                       "doc_to_factor_set", "flux_to_doc", "doc_to_flux")),
        ("report", ("Check", "VerificationReport")),
        ("errors", ("GcaError", "DimensionMismatch", "BadModulus", "NotAntisymmetric",
                    "BadOrder", "DegenerateBlock", "InconsistentOrders", "InvalidFactorSet",
                    "IrrationalPhase", "UnknownName", "ZeroVector", "EvenGeneratorCount",
                    "BadDeterminant", "UnsupportedTransform", "IrrationalFlux", "NotReal",
                    "NotHermitian", "EvenDimension", "DenominatorOverflow", "NotFinite")),
    )
    for name in names
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
