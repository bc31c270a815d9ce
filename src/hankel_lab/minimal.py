"""Minimal-norm classification and the separated-variables construction.

A symbol has minimal norm when its Hankel operator norm equals its H^2
norm, which is the universal lower bound. For homogeneous symbols the
operator splits into blocks by input degree, the block norms for k and
m-k coincide after coefficient conjugation, and the k=0 block norm is the
H^2 norm itself, so only the blocks 1 <= k <= floor(m/2) are decisive.

Products follow from their factors. For phi = f(z_A) g(z_B) in disjoint
variables, H_phi = H_f (x) H_g and ||phi||_2 = ||f||_2 ||g||_2, so phi has
minimal norm iff f and g do. For m-homogeneous phi, block k is the direct
sum over i + j = k of B_i(f) (x) B_j(g), so
||B_k(phi)|| = max over i + j = k of ||B_i(f)|| ||B_j(g)||, and the
homogeneous path takes its decisive norms from the factors' small blocks
(hankel.decisive_block_norms). The split is used under the gate of
hankel.factored: only when the Frobenius bound on the fit residual is at
most FACTOR_RTOL times the value.

Sums and products of minimal-norm symbols in disjoint variables are again
minimal-norm (for sums the pieces must vanish at the origin). RecipeExpr
trees encode such constructions with monomial leaves, the only polynomial
inner functions up to constants, and build_recipe validates the
disjointness structurally so the resulting symbol is certified minimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MAX_RECIPE_DEPTH, DomainError, ParseError, check_budget
from .hankel import decisive_block_norms, operator_norm
from .symbols import Symbol, degree, format_term, parse_term


@dataclass
class MinimalityVerdict:
    """Outcome of a minimality check.

    gap is the tested norm excess over the H^2 norm: operator norm minus
    H^2 norm for the full check, and (max decisive block norm) minus H^2
    norm for the homogeneous path, where it may be negative. status is
    "minimal" exactly when gap <= tolerance. Verdicts with |gap| within
    the tolerance carry a "boundary" note. block_bounds holds the error
    bound of each (k, norm) pair of block_norms, in the same order.
    """

    status: str
    gap: float
    tolerance: float
    block_norms: list = None
    note: str = ""
    block_bounds: list = None


def _verdict(gap, tol, block_norms=None, note="", block_bounds=None):
    status = "minimal" if gap <= tol else "not-minimal"
    if not note and abs(gap) <= tol:
        note = "boundary"
    return MinimalityVerdict(status, gap, tol, block_norms, note, block_bounds)


def _check_classify_args(s, tol):
    if s.is_zero:
        raise DomainError("cannot classify the zero symbol")
    if not tol >= 1e-12:  # also refuses NaN
        raise DomainError(f"tolerance must be >= 1e-12, got {tol}")
    if tol == math.inf:  # every gap would be within it
        raise DomainError(f"tolerance must be finite, got {tol}")


def classify(s: Symbol, tol: float = 1e-9) -> MinimalityVerdict:
    """Compare the full operator norm against the H^2 norm."""
    _check_classify_args(s, tol)
    gap = operator_norm(s).value - s.h2_norm()
    return _verdict(gap, tol)


def classify_homogeneous(s: Symbol, tol: float = 1e-9) -> MinimalityVerdict:
    """Classify an m-homogeneous symbol from its decisive blocks only.

    Computes the norms of the blocks k = 1 .. floor(m/2) with
    hankel.decisive_block_norms: each the largest norm among the components
    whose columns have degree k, or, for a product in disjoint variables,
    max over i + j = k of the factors' products ||B_i(f)|| ||B_j(g)||,
    used only when the Frobenius bound on the fit residual is at most
    FACTOR_RTOL times the largest decisive norm. For m <= 1 that range is
    empty and the symbol is minimal outright. Agrees with classify() on
    every homogeneous input. Raises BudgetError where hankel.components
    does.
    """
    _check_classify_args(s, tol)
    m = s.is_homogeneous()
    if m is None:
        raise DomainError("classify_homogeneous requires a homogeneous symbol")
    if m < 2:
        return _verdict(0.0, tol, [], note="no decisive blocks", block_bounds=[])
    estimates = decisive_block_norms(s)
    norms = [(k, e.value) for k, e in enumerate(estimates, start=1)]
    gap = max(e.value for e in estimates) - s.h2_norm()
    return _verdict(gap, tol, norms, block_bounds=[e.error_bound for e in estimates])


def d1_monomial_test(s: Symbol) -> bool:
    """Minimality test for one-variable polynomial symbols.

    A one-variable polynomial generates a minimal-norm operator exactly
    when it is a constant multiple of an inner function, and a polynomial
    of constant modulus on the circle is a constant multiple of a
    monomial; hence the test is a single-element support.
    """
    if s.dim != 1:
        raise DomainError("d1_monomial_test requires dimension 1")
    if s.is_zero:
        raise DomainError("d1_monomial_test requires a nonzero symbol")
    return len(s.support) == 1


# -- construction recipe -----------------------------------------------------


@dataclass(frozen=True)
class RecipeLeaf:
    """A constant multiple of a monomial, c * z^alpha with degree(alpha) >= 1."""

    coefficient: complex
    exponents: tuple


@dataclass(frozen=True)
class RecipeNode:
    """sum or prod of sub-recipes in pairwise disjoint variables."""

    op: str
    children: tuple


def _leaf_dims(expr, out):
    if isinstance(expr, RecipeLeaf):
        out.add(len(expr.exponents))
    else:
        for child in expr.children:
            _leaf_dims(child, out)


def _build(expr, dim, path):
    """The symbol of expr and its variable support; raises on any violation."""
    if isinstance(expr, RecipeLeaf):
        if complex(expr.coefficient) == 0:
            raise DomainError(f"recipe violation at {path}: zero coefficient leaf")
        if any(e < 0 for e in expr.exponents):
            raise DomainError(f"recipe violation at {path}: negative exponent")
        if degree(expr.exponents) < 1:
            raise DomainError(
                f"recipe violation at {path}: leaf must vanish at the origin "
                "(monomial degree >= 1)"
            )
        support = {j for j, e in enumerate(expr.exponents) if e > 0}
        return Symbol.monomial(dim, expr.exponents, expr.coefficient), support
    if expr.op not in ("sum", "prod"):
        raise DomainError(f"recipe violation at {path}: unknown op {expr.op!r}")
    if not expr.children:
        raise DomainError(f"recipe violation at {path}: empty {expr.op} node")
    seen = {}
    out = None
    for i, child in enumerate(expr.children):
        child_path = f"{path}.{expr.op}[{i}]"
        part, support = _build(child, dim, child_path)
        overlap = support & seen.keys()
        if overlap:
            shared = ", ".join(f"z{j + 1}" for j in sorted(overlap))
            first = seen[min(overlap)]
            raise DomainError(
                f"recipe violation at {path}: variables {shared} shared "
                f"between {first} and {child_path}"
            )
        seen.update((j, child_path) for j in support)
        out = part if out is None else (out + part if expr.op == "sum" else out * part)
    return out, set(seen)


def recipe_dimension(expr) -> int:
    dims = set()
    _leaf_dims(expr, dims)
    if not dims:
        raise DomainError("recipe has no leaves")
    if len(dims) > 1:
        raise DomainError(f"recipe leaves disagree on dimension: {sorted(dims)}")
    return dims.pop()


def build_recipe(expr) -> Symbol:
    """Validate a recipe tree and evaluate it into its (certified minimal) symbol."""
    return _build(expr, recipe_dimension(expr), "root")[0]


# -- recipe text format ------------------------------------------------------
#
# S-expressions: (sum ...), (prod ...), leaf (mono <re> <im> : <e1> ... <ed>).
# The parser refuses nesting deeper than MAX_RECIPE_DEPTH (errors.py).


def format_recipe(expr) -> str:
    if isinstance(expr, RecipeLeaf):
        return f"(mono {format_term(expr.exponents, expr.coefficient)})"
    inner = " ".join(format_recipe(child) for child in expr.children)
    return f"({expr.op} {inner})"


def _tokenize(text):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        spaced = line.replace("(", " ( ").replace(")", " ) ")
        tokens.extend((tok, lineno) for tok in spaced.split())
    return tokens


def _parse_expr(tokens, pos, depth=0):
    tok, line = tokens[pos]
    check_budget(depth, MAX_RECIPE_DEPTH, f"line {line}: recipe nesting (MAX_RECIPE_DEPTH)", "levels")
    if tok != "(":
        raise ParseError(f"expected '(', got {tok!r}", line=line)
    pos += 1
    if pos >= len(tokens):
        raise ParseError("unexpected end of recipe", line=line)
    head, line = tokens[pos]
    pos += 1
    if head == "mono":
        start = pos
        while pos < len(tokens) and tokens[pos][0] not in ("(", ")"):
            pos += 1
        if pos >= len(tokens) or tokens[pos][0] != ")":
            raise ParseError("unterminated (mono ...)", line=line)
        alpha, c = parse_term(" ".join(tok for tok, _ in tokens[start:pos]), line)
        return RecipeLeaf(c, alpha), pos + 1
    if head in ("sum", "prod"):
        children = []
        while pos < len(tokens) and tokens[pos][0] != ")":
            child, pos = _parse_expr(tokens, pos, depth + 1)
            children.append(child)
        if pos >= len(tokens):
            raise ParseError(f"unterminated ({head} ...)", line=line)
        return RecipeNode(head, tuple(children)), pos + 1
    raise ParseError(f"unknown recipe node {head!r}", line=line)


def parse_recipe(text: str):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty recipe")
    expr, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        tok, line = tokens[pos]
        raise ParseError(f"trailing input {tok!r}", line=line)
    return expr
