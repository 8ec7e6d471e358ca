"""Finite-ring calculator: Zhou radical, reversibility predicates, and a
theorem-verification suite over corpora of small rings."""

from .core import (
    AxiomViolation, CharacterizationMismatch, CrossCheckMismatch,
    DimensionMismatch, FiniteRing, LatticeCap, ParseError, RinglabError,
    SizeCap, TOOL_VERSION, UnknownPredicate, dumps_ring, loads_ring,
    mask_elems, validate_ring)
from .constructions import (
    BimoduleSpec, construct, corner_ring, direct_product, enumerate_unital_rings,
    formal_triangular, hst_ring, ks_ring, lst_ring, make_zn, matrix_ring,
    parse_ring_expr, quotient_ring, ring_isomorphic, trivial_morita,
    two_sided_ideal_generated, upper_triangular_ring)
from .ideals import (
    delta_sharp_mask, is_semiprime_ideal, jacobson_radical_mask, socle_mask,
    zhou_radical_mask)
from .predicates import (
    PREDICATES, PropertyReport, PropertyResult, evaluate_predicate,
    property_report)
from .suite import (
    CorpusMember, HuntQuery, SuiteReport, build_corpus, hunt_counterexample,
    run_theorem_suite)

__version__ = TOOL_VERSION
