"""Small Hankel operators on the d-torus with polynomial symbols.

Construct the operator matrix of a symbol, compute spectral norms and
homogeneous block norms, classify minimal-norm symbols, build certified
minimal-norm symbols from monomials in disjoint variables, integrate H^p
norms on the torus, and evaluate lower bounds for the Nehari constants.
"""

from . import _threads  # noqa: F401  (HANKEL_LAB_THREADS cap, before numpy loads)

from .errors import BudgetError, DomainError, ParseError
from .errors import MAX_1D_GRID_POINTS, MAX_BASIS, MAX_CEX_TRUNC, MAX_CLOSURE, MAX_GRID_POINTS
from .errors import MAX_PSI_TRUNC, MAX_RECIPE_DEPTH, MAX_SAMPLES
from .symbols import (
    Symbol,
    degree,
    dominated_by,
    format_symbol,
    grlex_key,
    make_symbol,
    parse_symbol,
    separate_variables,
    split_factors,
)
from .hankel import (
    HankelMatrix,
    NormEstimate,
    active_bases,
    build_block,
    build_blocks,
    build_matrix,
    components,
    operator_norm,
    spectral_norm,
)
from .minimal import (
    MinimalityVerdict,
    RecipeLeaf,
    RecipeNode,
    build_recipe,
    classify,
    classify_homogeneous,
    d1_monomial_test,
    format_recipe,
    parse_recipe,
)
from .quadrature import (
    QuadratureSpec,
    default_spec,
    h1_norm_2hom,
    hp_norm,
    hq_inverse_intermediate,
    hq_inverse_lower,
    hq_norm_basic,
)
from .nehari import (
    BoundReport,
    BoundWitness,
    PsiSeries,
    cex_ratio,
    cex_truncation,
    dual_bound,
    pairing,
    pairsum_witness_lower,
    psi_evaluate,
    psi_projection,
    psi_sup_estimate,
    quadratic_witness_lower,
    search_c2,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundWitness",
    "BudgetError",
    "DomainError",
    "HankelMatrix",
    "MAX_1D_GRID_POINTS",
    "MAX_BASIS",
    "MAX_CEX_TRUNC",
    "MAX_CLOSURE",
    "MAX_GRID_POINTS",
    "MAX_PSI_TRUNC",
    "MAX_RECIPE_DEPTH",
    "MAX_SAMPLES",
    "MinimalityVerdict",
    "NormEstimate",
    "ParseError",
    "PsiSeries",
    "QuadratureSpec",
    "RecipeLeaf",
    "RecipeNode",
    "Symbol",
    "active_bases",
    "build_block",
    "build_blocks",
    "build_matrix",
    "build_recipe",
    "cex_ratio",
    "cex_truncation",
    "classify",
    "classify_homogeneous",
    "components",
    "d1_monomial_test",
    "default_spec",
    "degree",
    "dominated_by",
    "dual_bound",
    "format_recipe",
    "format_symbol",
    "grlex_key",
    "h1_norm_2hom",
    "hp_norm",
    "hq_inverse_intermediate",
    "hq_inverse_lower",
    "hq_norm_basic",
    "make_symbol",
    "operator_norm",
    "pairing",
    "pairsum_witness_lower",
    "parse_recipe",
    "parse_symbol",
    "psi_evaluate",
    "psi_projection",
    "psi_sup_estimate",
    "quadratic_witness_lower",
    "search_c2",
    "separate_variables",
    "spectral_norm",
    "split_factors",
]
