"""Exception types and resource budgets shared across the package.

DomainError marks violated preconditions or contract misuse (CLI exit 1);
its subclass BudgetError marks an input whose work exceeds a resource
budget. ParseError marks malformed text input (CLI exit 2). Every budget
is a MAX_* constant below, and every refusal goes through check_budget
before the work it bounds starts.
"""

# MAX_BASIS**2 bounds the complex entries assembled at once (144 MB), so a
# full matrix has at most 3000 columns and no SVD is larger, and the entries
# one walk over the support's boxes visits. A product in disjoint variables
# is held to both factor by factor (hankel.factored).
MAX_BASIS = 3000
# Largest downward closure of a support, merged as integer codes and kept
# as Python tuples for the bases; every matrix, block and component is
# built on one (z1^m: m + 1 components).
MAX_CLOSURE = 30_000
# Largest tensor grid evaluated: the default d=4 grid refined, 128^4 points.
# A product in disjoint variables is held to it factor by factor.
MAX_GRID_POINTS = 1 << 28
# Largest grid held whole in one array, as every one-dimensional grid is
# (_grid_values slices only d > 1): hp-norm's refined grid at p = inf and
# psi's difference grid both peaked at 414 MB RSS at 2^23 points, about 46 B
# a point (2 vCPU, numpy 2.4.6).
MAX_1D_GRID_POINTS = 1 << 23
# Deepest recipe nesting the parser accepts, which bounds the recursion of
# every walk over a parsed tree.
MAX_RECIPE_DEPTH = 200
# Monte Carlo samples: ten times the CLI default; a 12-term symbol of full
# rank in T^8 takes about 0.2 s per 10^6 samples (2 vCPU, numpy 2.4.6)
MAX_SAMPLES = 10**7
# completion series terms per side: about 2 s and 611 MB at 10^7 (MAX_PSI_MB)
MAX_PSI_TRUNC = 10**7
# psi's peak memory beyond the interpreter, charged as 66 B per K plus 58 B
# per grid point. Alone, the 2K + 1 coefficients and frequencies peak at
# 64 B per K and the whole difference grid at 48 B a point; held together
# they peak higher (692 MB at K = 4 * 10^6 and 2^23 points, where those
# slopes give 628), and the charge bounds every peak measured (RSS, 2 vCPU,
# numpy 2.4.6). K = 10^7 at the default 512 points fits (611 MB), and so
# does K <= 2.79 * 10^6 at MAX_1D_GRID_POINTS; both budgets at once do not.
MAX_PSI_MB = 640
# cex_truncation blocks: 2^(K+1) - 2 terms, 2.3x the build time per block;
# K = 14 builds in 1.8-2.0 s (2 vCPU, numpy 2.4.6)
MAX_CEX_TRUNC = 14


class DomainError(ValueError):
    """An operation was called outside its documented domain."""


class BudgetError(DomainError):
    """The work an input asks for exceeds a resource budget."""


class ParseError(ValueError):
    """Malformed text input. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def check_budget(amount, limit, what, unit):
    """Raise BudgetError naming the budget, what, when amount exceeds limit."""
    if amount > limit:
        raise BudgetError(f"{what} exceeds the budget of {limit} {unit}")
