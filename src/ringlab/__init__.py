"""Finite-ring calculator: Zhou radical, reversibility predicates, and a
theorem-verification suite over corpora of small rings."""

from .core import (
    AxiomViolation, CharacterizationMismatch, CrossCheckMismatch,
    DimensionMismatch, ElementSet, FiniteRing, LatticeCap, ParseError,
    RinglabError, SizeCap, TOOL_VERSION, UnknownPredicate, commutant,
    double_commutant, dumps_ring, element_set, idempotents, left_annihilator,
    loads_ring, nilpotents, right_annihilator, units, validate_ring)
from .constructions import (
    BimoduleSpec, construct, corner_ring, direct_product, enumerate_unital_rings,
    formal_triangular, hst_ring, ks_ring, lst_ring, make_zn, matrix_ring,
    parse_ring_expr, quotient_ring, ring_isomorphic, trivial_morita,
    two_sided_ideal_generated, upper_triangular_ring)
from .ideals import (
    IdealLattice, all_right_ideals, delta_sharp, is_direct_summand,
    is_essential, is_semiprime_ideal, jacobson_radical, right_ideal_generated,
    socle, zhou_radical)
from .predicates import (
    PREDICATES, PropertyReport, PropertyResult, evaluate_predicate,
    property_report)
from .suite import (
    CorpusMember, HuntQuery, SuiteReport, build_corpus, hunt_counterexample,
    run_theorem_suite)

__version__ = TOOL_VERSION
