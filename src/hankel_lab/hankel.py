"""Finite matrices of small Hankel operators and their spectral norms.

For a polynomial symbol phi the operator f -> conj-analytic projection of
(conj(phi) * f) sends the monomial z^beta to

    sum_{gamma >= 0} conj(phihat(beta + gamma)) * conj(z)^gamma,

so its matrix over monomial bases has entries

    entry[gamma, beta] = conj(phihat(beta + gamma)).

An entry can only be nonzero when beta + gamma lies in the support of phi,
hence the operator is fully represented on the downward closure of the
support (all indices componentwise below some supported index). Everything
outside that finite block is identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import MAX_BASIS, MAX_CLOSURE, DomainError, check_budget
from .symbols import FACTOR_RTOL, Symbol, degree, grlex_key, split_factors

# elements per temporary array in _fill
_CHUNK = 1 << 16


@dataclass(frozen=True)
class NormEstimate:
    """A computed norm together with how it was obtained.

    method is one of "spectral-exact", "grid-quadrature", "arc-quadrature",
    "monte-carlo" or "closed-form"; metadata is a free-form description
    (grid sizes, seeds, refinement data) making the estimate
    self-describing.
    """

    value: float
    method: str
    error_bound: float
    metadata: str = ""


@dataclass
class HankelMatrix:
    """Dense matrix block of a Hankel operator on explicit monomial bases.

    column_basis indexes the analytic input side (beta), row_basis the
    conjugate-analytic output side (gamma). entries[i, j] depends only on
    row_basis[i] + column_basis[j], which is the Hankel structure.
    """

    column_basis: tuple
    row_basis: tuple
    entries: np.ndarray

    @property
    def shape(self):
        return self.entries.shape

    def dump_text(self) -> str:
        """Plain-text dump: 'rows <n> cols <m>' then one 're,im ...' line per row."""
        r, c = self.entries.shape
        lines = [f"rows {r} cols {c}"]
        for i in range(r):
            lines.append(
                " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in self.entries[i])
            )
        return "\n".join(lines) + "\n"


def _downward_closure(support, budget, what):
    """All multi-indices componentwise dominated by some element of support.

    Sorted in graded lex order. Raises BudgetError as soon as there are
    more than budget of them, before enumerating a box that large; its
    message names the budget, what.
    """
    closed = set()
    for alpha in support:
        check_budget(math.prod(e + 1 for e in alpha), budget, what, "monomials")
        closed.update(product(*(range(e + 1) for e in alpha)))
        check_budget(len(closed), budget, what, "monomials")
    return sorted(closed, key=grlex_key)


def active_bases(s: Symbol):
    """Column and row bases on which the operator of s can act nontrivially.

    Both sides equal the downward closure of the support, in graded lex
    order. The zero symbol yields empty bases. Raises BudgetError when the
    closure holds more than MAX_BASIS indices.
    """
    closure = tuple(_downward_closure(s.support, MAX_BASIS, "full active basis (MAX_BASIS)"))
    return closure, closure


def _fill(s: Symbol, rows, cols) -> HankelMatrix:
    """Matrix conj(phihat(beta + gamma)) for gamma in rows and beta in cols.

    Rows and columns lie in the downward closure of the support. Each
    multi-index is encoded in mixed radix, with radix M_j + 1 on axis j
    where M_j is the largest support exponent there, so beta + gamma is one
    integer addition, looked up among the sorted support codes. A sum whose
    digits carry can meet the code of another index, but every carry lowers
    the digit sum, so a hit counts only when the degrees add up too. Codes
    are int64 when twice the largest fits, Python ints otherwise.
    """
    entries = np.zeros((len(rows), len(cols)), dtype=complex)
    terms = s.terms()
    if entries.size == 0 or not terms:
        return HankelMatrix(tuple(cols), tuple(rows), entries)
    weights = [1] * s.dim
    for j in range(s.dim - 1, 0, -1):
        weights[j - 1] = weights[j] * (max(a[j] for a, _ in terms) + 1)
    largest = weights[0] * (max(a[0] for a, _ in terms) + 1) - 1
    dtype = np.int64 if 2 * largest <= np.iinfo(np.int64).max else object

    def encode(indices):
        codes = [sum(e * w for e, w in zip(a, weights)) for a in indices]
        return np.array(codes, dtype=dtype), np.array([degree(a) for a in indices], dtype=dtype)

    keys, key_degrees = encode([a for a, _ in terms])
    order = np.argsort(keys)
    keys, key_degrees = keys[order], key_degrees[order]
    values = np.conj(np.array([c for _, c in terms]))[order]
    row_codes, row_degrees = encode(rows)
    col_codes, col_degrees = encode(cols)
    step = max(1, _CHUNK // len(cols))
    for start in range(0, len(rows), step):
        sums = np.add.outer(row_codes[start:start + step], col_codes)
        found = np.minimum(np.searchsorted(keys, sums), len(keys) - 1)
        hit = keys[found] == sums
        hit &= key_degrees[found] == np.add.outer(row_degrees[start:start + step], col_degrees)
        entries[start:start + step][hit] = values[found[hit]]
    return HankelMatrix(tuple(cols), tuple(rows), entries)


def build_matrix(s: Symbol) -> HankelMatrix:
    """Matrix of the full operator of s on its active bases.

    All omitted rows and columns are identically zero, so the spectral norm
    of this finite matrix is the operator norm. The zero symbol gives an
    empty matrix. Raises BudgetError above MAX_BASIS columns.
    """
    cols, rows = active_bases(s)
    return _fill(s, rows, cols)


def build_blocks(s: Symbol, ks):
    """Blocks k in ks of an m-homogeneous symbol, from one closure.

    Block k has the degree-k indices of the closure as columns and the
    degree-(m-k) ones as rows; for k > m it is the zero operator, an empty
    matrix. The blocks partition the closure, which may hold MAX_CLOSURE
    indices, more than MAX_BASIS; a larger one raises BudgetError. Yields
    the blocks in the order of ks, one at a time.
    """
    m = s.is_homogeneous()
    if m is None:
        raise DomainError("build_block requires a homogeneous symbol")
    ks = list(ks)
    for k in ks:
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise DomainError(f"block index must be an integer >= 0, got {k!r}")
    levels = {}
    if any(k <= m for k in ks):
        for alpha in _downward_closure(s.support, MAX_CLOSURE, "block closure (MAX_CLOSURE)"):
            levels.setdefault(degree(alpha), []).append(alpha)
    for k in ks:
        if k > m:
            yield HankelMatrix((), (), np.zeros((0, 0), dtype=complex))
        else:
            yield _fill(s, levels.get(m - k, []), levels.get(k, []))


def build_block(s: Symbol, k: int) -> HankelMatrix:
    """Block of a homogeneous symbol: degree-k columns, degree-(m-k) rows.

    Requires s to be m-homogeneous. For k > m the block is the zero
    operator and an empty matrix is returned.
    """
    (block,) = build_blocks(s, [k])
    return block


def spectral_norm(matrix) -> NormEstimate:
    """Largest singular value, via dense SVD.

    Accepts a HankelMatrix or anything convertible to a 2-d array. LAPACK
    SVD is backward stable, so the relative error is far below the 1e-12
    budget reported here for matrices up to a few thousand rows.
    """
    entries = matrix.entries if isinstance(matrix, HankelMatrix) else np.asarray(matrix)
    if entries.size == 0:
        return NormEstimate(0.0, "spectral-exact", 0.0, "empty matrix")
    value = float(np.linalg.svd(entries, compute_uv=False)[0])
    return NormEstimate(
        value,
        "spectral-exact",
        1e-12 * value,
        f"dense SVD of a {entries.shape[0]}x{entries.shape[1]} matrix",
    )


def product_error(values, errors):
    """prod(v_i + e_i) - prod(v_i): how far prod t_i can be from prod v_i when |t_i - v_i| <= e_i.

    Summed as a telescoping series of non-negative terms, so a small
    difference is not lost to cancellation.
    """
    if math.inf in errors:
        return math.inf
    total, done = 0.0, 1.0
    for i, e in enumerate(errors):
        total += done * e * math.prod(values[i + 1:])
        done *= values[i] + e
    return total


def factored(s: Symbol, rule, residual) -> NormEstimate:
    """A norm of s as the product of its factors' norms, or rule(s).

    A product in disjoint variables, phi = f(z_A) g(z_B), has
    H_phi = H_f (x) H_g and, by Fubini, ||phi||_p = ||f||_p ||g||_p for
    every p, the sup included. split_factors finds the finest split and the
    fit residual delta; rule runs on each factor and the values multiply.
    The factors' bounds combine as prod(v_i + e_i) - prod(v_i)
    (product_error), and residual(delta), a bound on the norm of delta,
    is added. The method is the factors' common one, grid-quadrature where
    arc and grid factors mix, and the metadata reads
    "factored into <k> [<factor metadata>] ..., fit residual bound <r>".

    The whole symbol goes through rule instead when it does not split, when
    residual(delta) exceeds FACTOR_RTOL times the value, or when rule
    refuses a factor (any DomainError, BudgetError included). So a budget
    bounds the work done on each factor, and every refusal, with its
    message, is the whole symbol's.
    """
    factors, delta = split_factors(s)
    if len(factors) > 1:
        try:
            parts = [rule(f) for _, f in factors]
        except DomainError:
            return rule(s)
        values = [e.value for e in parts]
        value = math.prod(values)
        fit = residual(delta)
        if fit <= FACTOR_RTOL * value:
            methods = {e.method for e in parts}
            return NormEstimate(
                value,
                methods.pop() if len(methods) == 1 else "grid-quadrature",
                product_error(values, [e.error_bound for e in parts]) + fit,
                f"factored into {len(parts)} " + " ".join(f"[{e.metadata}]" for e in parts)
                + f", fit residual bound {fit:.3g}",
            )
    return rule(s)


def _dense_norm(s: Symbol) -> NormEstimate:
    mat = build_matrix(s)
    est = spectral_norm(mat)
    r, c = mat.shape
    return NormEstimate(est.value, est.method, est.error_bound, f"active basis {r}x{c}")


def operator_norm(s: Symbol) -> NormEstimate:
    """Operator norm of the Hankel operator of a polynomial symbol.

    A dense SVD on the active bases, or on each factor's for a product in
    disjoint variables (see factored). The fit residual delta adds
    ||H_delta|| <= sqrt(sum_alpha prod(alpha_j + 1) |delta_alpha|^2), its
    Frobenius norm, since alpha fills prod(alpha_j + 1) entries.
    """
    return factored(
        s,
        _dense_norm,
        lambda delta: math.sqrt(math.fsum(math.prod(e + 1 for e in a) * abs(c) ** 2 for a, c in delta.terms())),
    )
