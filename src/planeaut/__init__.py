"""Exact computation with plane polynomial automorphisms over cyclotomic fields."""

from .cyclotomic import (CycNum, DomainMismatchError, RootOfUnity,
                         as_cycnum, as_root_of_unity, multiplicative_order)
from .poly import NEG_INF, SparsePoly
from .endo import (PlaneEndo, TriangularAffine, compose, conjugate,
                   endo_order)
from .prufer import (CoeffSequence, conj_closed_form, diag, series_truncation,
                     verify_formula)
from .linearize import (LinearizationResult, ShapeError,
                        minimal_linearizer_degree, solve_linearization)
from .conjugacy import (ConjugacyReport, CERTIFICATE, SATISFIABLE,
                        differ_infinitely, necessary_condition, omega0_family,
                        verify_subgroup_conjugator)
from .parsing import (ParseError, parse_endo, parse_poly, parse_scalar,
                      parse_triangular)

__version__ = "0.1.0"

__all__ = [
    "CycNum", "DomainMismatchError", "RootOfUnity", "as_cycnum",
    "as_root_of_unity", "multiplicative_order",
    "NEG_INF", "SparsePoly",
    "PlaneEndo", "TriangularAffine", "compose", "conjugate", "endo_order",
    "CoeffSequence", "conj_closed_form", "diag", "series_truncation",
    "verify_formula",
    "LinearizationResult", "ShapeError",
    "minimal_linearizer_degree", "solve_linearization",
    "ConjugacyReport", "CERTIFICATE", "SATISFIABLE",
    "differ_infinitely", "necessary_condition", "omega0_family",
    "verify_subgroup_conjugator",
    "ParseError", "parse_endo", "parse_poly", "parse_scalar",
    "parse_triangular",
]
