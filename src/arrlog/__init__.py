"""Exact invariants of central line arrangements in the projective plane.

Classification (free / nearly free / plus-one generated), restriction
exponents with certified bases, defects, splitting types, and a battery of
structural validators — all over exact rational arithmetic.
"""

from .arrangement import (Arrangement, DuplicateLine, FlatPoint, LinearForm3,
                          ParseError, ZeroForm, arrangement, chi0,
                          intersection_points, is_balanced, n_H, nr_form,
                          parse_arrangement, parse_factored, to_document)
from .criteria import (DefectReport, InadmissibleLine, NotApplicable,
                       PropertyPResult, SplittingRange, SplittingType,
                       TheoremReport, ZieglerMapData, is_admissible,
                       property_P, splitting_range, splitting_type, verify,
                       yoshinaga_defect, ziegler_map)
from .derivation import (Classification, ResolutionShape, ar_dim, classify,
                         minimal_resolution)
from .multiarr import (Derivation2, Exponents, LinearForm2, Multiarrangement2,
                       basis, exponents, multiarrangement, saito_check,
                       ziegler_restriction)
from .poly import HomPoly
from .rng import XorShift64

__all__ = [
    "Arrangement", "DuplicateLine", "FlatPoint", "LinearForm3", "ParseError",
    "ZeroForm", "arrangement", "chi0", "intersection_points", "is_balanced",
    "n_H", "nr_form", "parse_arrangement", "parse_factored", "to_document",
    "DefectReport", "InadmissibleLine", "NotApplicable", "PropertyPResult",
    "SplittingRange", "SplittingType", "TheoremReport", "ZieglerMapData",
    "is_admissible", "property_P", "splitting_range", "splitting_type",
    "verify", "yoshinaga_defect", "ziegler_map",
    "Classification", "ResolutionShape", "ar_dim", "classify",
    "minimal_resolution",
    "Derivation2", "Exponents", "LinearForm2", "Multiarrangement2", "basis",
    "exponents", "multiarrangement", "saito_check", "ziegler_restriction",
    "HomPoly", "XorShift64",
]

__version__ = "0.1.0"
