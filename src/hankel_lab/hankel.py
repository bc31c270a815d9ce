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

Joining row gamma to column beta whenever entry[gamma, beta] is nonzero
splits the closure into connected components, each with its own row and
column basis. The operator is the direct sum of the components' blocks, so
its norm is the largest block norm (components); the degree-k block of an
m-homogeneous symbol is the direct sum of the components whose columns
have degree k.
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
# codes per array in _boxes
_PAIRS = 1 << 20
# Up to this many closure indices operator_norm takes one SVD of the whole
# matrix: finding the components costs some 0.15 ms of numpy calls, more
# than the SVDs it saves (2 vCPU, numpy 2.4: a 45-index closure in 9
# components, 0.39 ms whole and 0.74 ms split; 117 indices in 24, 5.4 ms
# whole and 3.4 ms split).
_SPLIT_MIN = 64


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


def _radix(support):
    """Mixed-radix weights for the closure of support, and the code dtype.

    Axis j has radix M_j + 1, where M_j is the largest support exponent
    there, so every closure index has one code and beta + gamma is one
    integer addition. Codes are int64 when twice the largest fits, Python
    ints otherwise.
    """
    radices = [max(column) + 1 for column in zip(*support)]
    weights = [1] * len(radices)
    for j in range(len(radices) - 1, 0, -1):
        weights[j - 1] = weights[j] * radices[j]
    largest = weights[0] * radices[0] - 1
    return weights, (np.int64 if 2 * largest <= np.iinfo(np.int64).max else object)


def _encode(indices, weights, dtype):
    """Codes of the multi-indices, as an array of dtype."""
    if dtype is object:
        return np.array([sum(e * w for e, w in zip(a, weights)) for a in indices], dtype=object)
    exponents = np.array(indices, dtype=np.int64).reshape(len(indices), len(weights))
    return exponents @ np.array(weights, dtype=np.int64)


def _lookup(s: Symbol):
    """What _fill looks entries up in: radix, sorted support codes, their degrees and values."""
    terms = s.terms()
    weights, dtype = _radix([a for a, _ in terms])
    keys = _encode([a for a, _ in terms], weights, dtype)
    order = np.argsort(keys)
    key_degrees = np.array([degree(a) for a, _ in terms], dtype=np.int64)[order]
    values = np.conj(np.array([c for _, c in terms]))[order]
    return weights, dtype, keys[order], key_degrees, values


def _fill(s: Symbol, rows, cols, lookup=None) -> HankelMatrix:
    """Matrix conj(phihat(beta + gamma)) for gamma in rows and beta in cols.

    Rows and columns lie in the downward closure of the support, whose
    indices have mixed-radix codes (_radix), so beta + gamma is one integer
    addition, looked up among the sorted support codes. A sum whose digits
    carry can meet the code of another index, but every carry lowers the
    digit sum, so a hit counts only when the degrees add up too. lookup,
    when given, is _lookup(s), shared by the calls on one symbol.
    """
    entries = np.zeros((len(rows), len(cols)), dtype=complex)
    if entries.size == 0 or s.is_zero:
        return HankelMatrix(tuple(cols), tuple(rows), entries)
    weights, dtype, keys, key_degrees, values = lookup or _lookup(s)
    row_codes, col_codes = _encode(rows, weights, dtype), _encode(cols, weights, dtype)
    row_degrees = np.array([degree(a) for a in rows], dtype=np.int64)
    col_degrees = np.array([degree(a) for a in cols], dtype=np.int64)
    step = max(1, _CHUNK // len(cols))
    for start in range(0, len(rows), step):
        sums = np.add.outer(row_codes[start:start + step], col_codes)
        found = np.minimum(np.searchsorted(keys, sums), len(keys) - 1)
        hit = keys[found] == sums
        hit &= key_degrees[found] == np.add.outer(row_degrees[start:start + step], col_degrees)
        entries[start:start + step][hit] = values[found[hit]]
    return HankelMatrix(tuple(cols), tuple(rows), entries)


def _boxes(support, weights, dtype):
    """The boxes {gamma <= alpha} of the alphas in support, some _PAIRS codes at a time.

    Yields (sizes, gamma): the box sizes prod(alpha_j + 1) of a run of
    consecutive alphas, and the codes of their boxes, one box after the
    other. Each box is expanded one axis at a time, so it lists its digit
    tuples in lexicographic order and alpha - gamma sits at the mirror
    position of gamma. The caller has checked that each box fits its budget.
    """
    radices = np.array(support, dtype=np.int64).reshape(len(support), len(weights)) + 1
    sizes = radices.prod(axis=1)
    ends = np.cumsum(sizes)
    start = 0
    while start < len(support):
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - sizes[start] + _PAIRS, side="right")))
        owner = np.arange(start, stop)
        gamma = np.zeros(len(owner), dtype=dtype)
        for j in np.flatnonzero(radices[start:stop].max(axis=0) > 1):
            counts = radices[owner, j]
            offsets = counts.cumsum() - counts
            digit = np.arange(offsets[-1] + counts[-1]) - offsets.repeat(counts)
            owner = owner.repeat(counts)
            gamma = gamma.repeat(counts) + digit.astype(dtype) * weights[j]
        yield sizes[start:stop], gamma
        start = stop


def _join(label, u, v):
    """Merge the sets of u[i] and v[i] for every i.

    label is a forest on the nodes in which every node points at a smaller
    one and a root at itself; it is left flat, every node at its root, so
    the root of a set is its smallest node. Each round hooks the larger
    root of every edge still apart onto the smaller one, then jumps
    pointers until the forest is flat again.
    """
    while True:
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label[:] = up
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return
        lu, lv = lu[apart], lv[apart]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))


def components(s: Symbol, budget=MAX_BASIS, what="full active basis (MAX_BASIS)"):
    """Row and column bases of the connected components of the operator's matrix.

    Each support index alpha gives the prod(alpha_j + 1) nonzero entries
    (gamma, alpha - gamma), gamma <= alpha. Joining row gamma to column
    beta on each of them, by a vectorised union-find over the boxes,
    splits the downward closure into components: every closure index is
    the column of exactly one component and the row of exactly one, and
    the matrix is the direct sum of the components' blocks. The closure,
    and its budget, are _downward_closure's; the entries are then walked
    a chunk of codes at a time, so memory stays at the closure plus one
    chunk.

    Returns (row_basis, column_basis) pairs, each basis in graded lex
    order, the pairs in the graded lex order of their first rows; the zero
    symbol has none. Raises BudgetError, naming what, when the closure
    holds more than budget indices.
    """
    return _split(s, _downward_closure(s.support, budget, what))


def _split(s: Symbol, closure):
    """components(s), given the closure of s's support in graded lex order."""
    support = s.support
    n = len(closure)
    if not n:
        return []
    weights, dtype = _radix(support)
    codes = _encode(closure, weights, dtype)
    by_code = np.argsort(codes)
    sorted_codes = codes[by_code]
    label = np.arange(2 * n)  # closure[i] is row node i and column node n + i
    for sizes, gamma in _boxes(support, weights, dtype):
        rows = by_code[np.searchsorted(sorted_codes, gamma)]
        mirror = np.repeat(2 * np.cumsum(sizes) - sizes - 1, sizes) - np.arange(len(gamma))
        _join(label, rows, n + rows[mirror])
    parts = {}  # by root, its smallest row, in the order of the first rows
    for index, root in zip(closure, label[:n].tolist()):
        parts.setdefault(root, ([], []))[0].append(index)
    for index, root in zip(closure, label[n:].tolist()):
        parts[root][1].append(index)
    return [(tuple(rows), tuple(cols)) for rows, cols in parts.values()]


def component_norms(s: Symbol, parts):
    """Spectral norm of each component's block, in the order of parts.

    parts are (row_basis, column_basis) pairs from components(s); each
    block is assembled on its own bases.
    """
    lookup = None if s.is_zero else _lookup(s)
    return [spectral_norm(_fill(s, rows, cols, lookup)).value for rows, cols in parts]


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
    operator_norm and classify_homogeneous call it once per connected
    component, so their matrices are the components' blocks (126x1 at most
    for cex_truncation(6), whose closure has 1087 indices); build_matrix
    and build_blocks hand it whole matrices and whole degree blocks.
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
    closure, _ = active_bases(s)
    parts = _split(s, closure) if len(closure) > _SPLIT_MIN else [(closure, closure)]
    value = max(component_norms(s, parts), default=0.0)
    n = len(closure)
    return NormEstimate(value, "spectral-exact", 1e-12 * value, f"active basis {n}x{n}")


def operator_norm(s: Symbol) -> NormEstimate:
    """Operator norm of the Hankel operator of a polynomial symbol.

    The largest norm among the connected components (components), one
    dense SVD each, or one SVD of the whole matrix when the closure has at
    most _SPLIT_MIN indices; or that of each factor for a product in
    disjoint variables (see factored). The metadata "active basis <n>x<n>"
    names the closure size n. The fit residual delta adds
    ||H_delta|| <= sqrt(sum_alpha prod(alpha_j + 1) |delta_alpha|^2), its
    Frobenius norm, since alpha fills prod(alpha_j + 1) entries.
    """
    return factored(
        s,
        _dense_norm,
        lambda delta: math.sqrt(math.fsum(math.prod(e + 1 for e in a) * abs(c) ** 2 for a, c in delta.terms())),
    )
