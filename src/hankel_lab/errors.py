"""Exception types and resource budgets shared across the package.

DomainError marks violated preconditions or contract misuse (CLI exit 1);
its subclass BudgetError marks an input whose work exceeds a resource
budget. ParseError marks malformed text input (CLI exit 2). Every budget
is a MAX_* constant below, and every refusal goes through check_budget
before the work it bounds starts.
"""

# Largest active basis of a full matrix: n^2 complex entries (144 MB at
# n = 3000) and an O(n^3) SVD. operator_norm, one SVD per connected
# component, keeps the same bound on the closure. A product in disjoint
# variables is held to it factor by factor (hankel.factored).
MAX_BASIS = 3000
# Largest closure of a homogeneous symbol, split into its components: each
# is small, but the closure is enumerated as Python tuples and z1^m alone
# has m + 1 one-by-one components. build_blocks keeps the same bound.
MAX_CLOSURE = 30_000
# Largest tensor grid evaluated: the default d=4 grid refined, 128^4 points.
# A product in disjoint variables is held to it factor by factor.
MAX_GRID_POINTS = 1 << 28
# Deepest recipe nesting the parser accepts, which bounds the recursion of
# every walk over a parsed tree.
MAX_RECIPE_DEPTH = 200
# Monte Carlo samples: ten times the CLI default; a 12-term symbol of full
# rank in T^8 takes about 0.7 s per 10^6 samples (2 vCPU, numpy 2.4.6)
MAX_SAMPLES = 10**7
# completion series terms per side: about 4 s and 640 MB at 10^7
MAX_PSI_TRUNC = 10**7
# cex_truncation blocks: 2^(K+1) - 2 terms, 2.3x the build time per block
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
