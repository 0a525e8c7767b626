"""Laboratory for rank-metric evaluation codes of linearized polynomials.

Field towers, q-linearized polynomial algebra, Gabidulin codes with
brute-force distance oracles, deep-hole classification in rank and Hamming
metrics, and the structured word families, all at desk scale.
"""

from .field import BasisSpec, FieldCtx, FieldElement, gaussian_binomial
from .linpoly import (LinPoly, NEG_INF, SubspaceBasis, annihilator,
                      matrix_rank, minor_coeff, moore_det, q_lagrange,
                      q_lagrange_by_minors, root_space)
from .subspaces import subspace_bases
from .code import (GabidulinCode, METRICS, Word, covering_radius_raw,
                   dist_to_code_exhaustive, format_code_spec, load_code_spec,
                   min_distance, parse_code_spec, weight)
from .deephole import (ClassifyResult, FamilyVerdict, QuadricCensus,
                       ScanResult, classify_poly,
                       covering_radius_scan, distance_by_search,
                       equality_witness, excluded_leading_set, family_check,
                       quadric_census, quadric_v, ratio_lemma_check)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec", "FieldCtx", "FieldElement", "gaussian_binomial",
    "LinPoly", "NEG_INF", "SubspaceBasis",
    "annihilator", "matrix_rank", "minor_coeff", "moore_det",
    "q_lagrange", "q_lagrange_by_minors", "root_space",
    "subspace_bases",
    "GabidulinCode", "METRICS", "Word", "covering_radius_raw",
    "dist_to_code_exhaustive", "format_code_spec", "load_code_spec",
    "min_distance", "parse_code_spec", "weight",
    "ClassifyResult", "FamilyVerdict", "QuadricCensus", "ScanResult",
    "classify_poly", "covering_radius_scan",
    "distance_by_search", "equality_witness", "excluded_leading_set",
    "family_check", "quadric_census", "quadric_v", "ratio_lemma_check",
    "__version__",
]
