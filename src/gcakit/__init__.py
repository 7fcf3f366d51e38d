"""Exact matrix representations for generalized Clifford algebras.

Generators obeying e_j e_k = w^(t_jk) e_k e_j with e_j^(N_j) = 1 are built
from the integer data (nhat, t, orders) via the skew normal form of t,
realized on clock/shift pairs, and every relation is re-checked exactly.
On top of that sit projective representations of finite abelian groups,
power and diagonalization laws for generator combinations, expansion of
arbitrary matrices over clock/shift words, discrete Wigner tables,
quadratic changes of a pair, and magnetic translation generators.
"""

from .errors import (
    BadDeterminant,
    BadModulus,
    BadOrder,
    DegenerateBlock,
    DenominatorOverflow,
    DimensionMismatch,
    EvenDimension,
    EvenGeneratorCount,
    GcaError,
    InconsistentOrders,
    InvalidFactorSet,
    IrrationalFlux,
    IrrationalPhase,
    NotAntisymmetric,
    NotFinite,
    NotHermitian,
    NotReal,
    UnknownName,
    UnsupportedTransform,
    ZeroVector,
)
from .lmatrix import (
    DiagonalizationResult,
    LSpec,
    NthPowerReport,
    diagonalize_l,
    family_order,
    family_rep,
    l_matrix,
    nth_power_check,
    sigma_operation,
)
from .matrices import DEFAULT_TOL, MonomialMatrix, max_abs_diff, to_dense
from .phase import IMAG, MINUS_IMAG, MINUS_ONE, ONE, Phase
from .phasespace import (
    CanonicalParams,
    CanonicalResult,
    DiagonalSliceDecomposition,
    MagneticLattice,
    MagneticRep,
    SchwingerCoeffs,
    WignerTable,
    bloch_phase,
    canonical_intertwiner,
    canonical_pair,
    compose_params,
    diagonal_slice_decomposition,
    magnetic_translation_rep,
    schwinger_coeffs,
    schwinger_reconstruct,
    weyl_word,
    wigner_forward,
    wigner_inverse,
)
from .repbuilder import (
    CATALOG_NAMES,
    FactorSet,
    GcaSpec,
    ProjectiveRep,
    Representation,
    build_representation,
    catalog,
    clifford_generators,
    ordered_gca_generators,
    ordered_mu,
    projective_rep,
    sigma1,
    sigma2,
    sigma3,
    verify_gca,
    verify_relations,
)
from .report import Check, VerificationReport
from .serialize import (
    doc_to_factor_set,
    doc_to_flux,
    doc_to_matrix,
    emit_json,
    factor_set_to_doc,
    flux_to_doc,
    matrix_to_doc,
)
from .skewnormal import (
    SkewNormalForm,
    TMatrix,
    int_det,
    skew_normal_form,
    validate_tmatrix,
    verify_congruence,
)
from .weylpairs import (
    WeylPair,
    clock,
    hermitian_logs,
    shift,
    sylvester,
    sylvester_inverse,
    symmetric_pair,
    weyl_pair_for,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # phases and matrices
    "Phase", "ONE", "MINUS_ONE", "IMAG", "MINUS_IMAG",
    "MonomialMatrix", "DEFAULT_TOL", "to_dense", "max_abs_diff",
    # integer data
    "TMatrix", "SkewNormalForm", "validate_tmatrix", "skew_normal_form",
    "verify_congruence", "int_det",
    # clock/shift pairs
    "WeylPair", "shift", "clock", "weyl_pair_for", "symmetric_pair",
    "sylvester", "sylvester_inverse", "hermitian_logs",
    # representations
    "GcaSpec", "Representation", "build_representation", "verify_gca",
    "verify_relations", "clifford_generators", "ordered_gca_generators",
    "ordered_mu", "sigma1", "sigma2", "sigma3",
    "FactorSet", "ProjectiveRep", "projective_rep", "catalog", "CATALOG_NAMES",
    # generator combinations
    "LSpec", "l_matrix", "family_rep", "family_order", "sigma_operation",
    "DiagonalizationResult", "diagonalize_l", "NthPowerReport", "nth_power_check",
    # phase space
    "weyl_word", "SchwingerCoeffs", "schwinger_coeffs", "schwinger_reconstruct",
    "DiagonalSliceDecomposition", "diagonal_slice_decomposition",
    "WignerTable", "wigner_forward", "wigner_inverse",
    "CanonicalParams", "compose_params", "canonical_pair",
    "CanonicalResult", "canonical_intertwiner",
    "MagneticLattice", "MagneticRep", "magnetic_translation_rep", "bloch_phase",
    # documents
    "emit_json", "matrix_to_doc", "doc_to_matrix", "factor_set_to_doc",
    "doc_to_factor_set", "flux_to_doc", "doc_to_flux",
    # reports and errors
    "Check", "VerificationReport",
    "GcaError", "DimensionMismatch", "BadModulus", "NotAntisymmetric",
    "BadOrder", "DegenerateBlock", "InconsistentOrders", "InvalidFactorSet",
    "IrrationalPhase", "UnknownName", "ZeroVector", "EvenGeneratorCount",
    "BadDeterminant", "UnsupportedTransform", "IrrationalFlux", "NotReal",
    "NotHermitian", "EvenDimension", "DenominatorOverflow", "NotFinite",
]
