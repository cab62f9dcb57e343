"""Exact-arithmetic tools for the three-state toric homogeneous Markov chain model."""

__version__ = "0.1.0"

from .design import DesignMatrix, get_design
from .facets import (
    FacetCertificate,
    FacetForm,
    certify_facet,
    homogeneous_facet_vectors,
    q_polyhedron,
    verify_facet_completeness,
)
from .markov import Fiber, Move, enumerate_moves, is_markov_basis, minimal_markov_basis
from .mcmc import TestResult, WalkConfig, chi_square_statistic, exact_test, walk
from .normality import check_normality, saturation_points, witness_by_induction
from .polytope import HPolyhedron, VPolyhedron, convex_hull, vertex_enumeration
from .words import Word, decompose_into_paths, enumerate_words, transition_counts

__all__ = [
    "DesignMatrix",
    "FacetCertificate",
    "FacetForm",
    "Fiber",
    "HPolyhedron",
    "Move",
    "TestResult",
    "VPolyhedron",
    "WalkConfig",
    "Word",
    "certify_facet",
    "check_normality",
    "chi_square_statistic",
    "convex_hull",
    "decompose_into_paths",
    "enumerate_moves",
    "enumerate_words",
    "exact_test",
    "get_design",
    "homogeneous_facet_vectors",
    "is_markov_basis",
    "minimal_markov_basis",
    "q_polyhedron",
    "saturation_points",
    "transition_counts",
    "verify_facet_completeness",
    "vertex_enumeration",
    "walk",
    "witness_by_induction",
]
