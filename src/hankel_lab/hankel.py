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

The closure and the nonzero entries come from one enumeration of the boxes
{gamma <= alpha} of the support indices alpha (_downward_closure): the
closure is the union of the boxes, and each gamma in a box gives the entry
at row gamma and column alpha - gamma. Every matrix here is the walk over
those entries scattered into zero blocks (_assemble): the whole matrix on
the closure (build_matrix), the degree blocks of a homogeneous symbol
(build_blocks), or the connected components (components). Joining row
gamma to column beta on every entry splits the closure into components,
each with its own row and column basis; the operator is the direct sum of
their blocks, so its norm is the largest block norm, and the degree-k
block of an m-homogeneous symbol is the direct sum of the components
whose columns have degree k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_BASIS, MAX_CLOSURE, DomainError, check_budget
from .symbols import FACTOR_RTOL, Symbol, _root_sum_squares, degree, split_factors

# entries per chunk of the walk: its temporaries stay near 1 MB, so
# build_matrix at MAX_BASIS peaks at the matrix plus the interpreter
_PAIRS = 1 << 14
# Up to this many closure indices operator_norm takes the whole matrix as
# one block and runs no union-find: splitting costs 0.1-0.3 ms of numpy
# calls, more than the SVDs it saves (2 vCPU, numpy 2.4, best of 7: a
# 45-index closure in 9 components, 0.49 ms whole and 0.69 ms split; 66
# indices in 11, 0.88 ms whole and 0.77 ms split; 120 in 15, 4.8 ms whole
# and 0.8 ms split).
_SPLIT_MIN = 64


@dataclass(frozen=True)
class NormEstimate:
    """A computed norm together with how it was obtained.

    method is one of "spectral-exact", "grid-quadrature", "arc-quadrature",
    "exact", "monte-carlo" or "closed-form"; metadata is a free-form description
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
        parts = float_texts(np.ascontiguousarray(self.entries, dtype=complex).view(float))
        pairs = list(map("{},{}".format, parts[0::2], parts[1::2]))
        lines = [f"rows {r} cols {c}"] + [" ".join(pairs[i * c : (i + 1) * c]) for i in range(r)]
        return "\n".join(lines) + "\n"


def float_texts(values: np.ndarray) -> list:
    """float.__repr__(x) for every x of a float64 array, in C order.

    Each distinct bit pattern is formatted once, so -0.0 stays -0.0 and a
    Hankel block, which holds few distinct coefficients, costs few reprs.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64).ravel()
    distinct, at = np.unique(bits, return_inverse=True)
    table = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
    return table[at].tolist()


def _boxes(radices, weights, dtype):
    """The boxes {gamma <= alpha} of the terms, some _PAIRS entries at a time.

    Yields (owner, gamma, box): each entry's term and the mixed-radix code
    of its gamma, and the sizes of the boxes listed. A box is expanded one
    axis at a time, so it lists its gammas in lexicographic, code, order.
    """
    sizes = radices.prod(axis=1)
    ends = np.cumsum(sizes)
    start = 0
    while start < len(sizes):
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - sizes[start] + _PAIRS, side="right")))
        owner = np.arange(start, stop)
        gamma = np.zeros(len(owner), dtype=dtype)
        for j in np.flatnonzero(radices[start:stop].max(axis=0) > 1):
            counts = radices[owner, j]
            offsets = counts.cumsum() - counts
            digit = np.arange(offsets[-1] + counts[-1]) - offsets.repeat(counts)
            owner = owner.repeat(counts)
            gamma = gamma.repeat(counts) + digit.astype(dtype) * weights[j]
        yield owner, gamma, sizes[start:stop]
        start = stop


def _downward_closure(s: Symbol):
    """The downward closure of the support and the walk of s's matrix on it.

    Returns (closure, walk). The closure is the distinct codes of the boxes
    (radix M_j + 1 on axis j, M_j the largest exponent there; Python ints
    from 2^63) in graded lex order. walk() lists the boxes again and yields
    (rows, cols, values) some _PAIRS entries at a time: the closure
    positions of row gamma, found by one search among those codes, and of
    column alpha - gamma, the mirror of gamma in its box, and the value
    conj(phihat(alpha)). BudgetError is raised before any box is listed if
    one exceeds MAX_CLOSURE or all exceed MAX_BASIS**2 entries, and as soon
    as the merged codes exceed MAX_CLOSURE.
    """
    terms = s.terms()
    boxes = [math.prod(e + 1 for e in alpha) for alpha, _ in terms]
    check_budget(max(boxes, default=0), MAX_CLOSURE, "closure (MAX_CLOSURE)", "monomials")
    check_budget(sum(boxes), MAX_BASIS**2, "walk (MAX_BASIS**2)", "entries")
    radices = np.array([a for a, _ in terms], dtype=np.int64).reshape(len(terms), s.dim) + 1
    top = radices.max(axis=0, initial=1).tolist()
    weights = [math.prod(top[j + 1:]) for j in range(s.dim)]
    dtype = object if math.prod(top) >= 1 << 63 else np.int64
    codes = np.zeros(0, dtype=dtype)
    for _, gamma, _ in _boxes(radices, weights, dtype):
        # sorted runs, the codes so far and each box: a stable sort merges them
        merged = np.sort(np.concatenate([codes, gamma]), kind="stable")
        codes = merged[np.append(True, merged[1:] != merged[:-1])]
        check_budget(len(codes), MAX_CLOSURE, "closure (MAX_CLOSURE)", "monomials")
    digits = np.array([codes // w % t for w, t in zip(weights, top)], dtype=np.int64).T
    # codes ascend in lexicographic order, so graded lex is by degree, then by descending code
    order = np.lexsort((-np.arange(len(codes)), digits.sum(axis=1)))
    closure = tuple(map(tuple, digits[order].tolist()))
    at = np.argsort(order)  # the closure position of each code
    values = np.conj(np.array([c for _, c in terms]))

    def walk():
        for owner, gamma, box in _boxes(radices, weights, dtype):
            rows = at[np.searchsorted(codes, gamma)]
            mirror = np.repeat(2 * np.cumsum(box) - box - 1, box) - np.arange(len(gamma))
            yield rows, rows[mirror], values[owner]

    return closure, walk


def active_bases(s: Symbol):
    """Column and row bases on which the operator of s can act nontrivially.

    Both sides equal the downward closure of the support, in graded lex
    order. The zero symbol yields empty bases. Raises BudgetError when the
    closure holds more than MAX_CLOSURE indices.
    """
    closure, _ = _downward_closure(s)
    return closure, closure


def _fill(closure, rows, cols, entries) -> HankelMatrix:
    """One assembled block, entries, on the closure indices at positions rows and cols."""
    return HankelMatrix(
        tuple(map(closure.__getitem__, cols.tolist())), tuple(map(closure.__getitem__, rows.tolist())), entries
    )


def _groups(part, count):
    """Positions grouped by part: (at, order, bounds).

    order[bounds[b]:bounds[b + 1]] are the positions of part b in
    increasing order, for b in range(count), and at[i] is the place of
    position i among those of its part. Part -1 is in no group.
    """
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(count + 1))
    at = np.empty(len(part), dtype=np.int64)
    at[order] = np.arange(len(part)) - bounds[part[order]]
    return at, order, bounds


def _assemble(closure, walk, row_part, col_part, count):
    """Blocks 0 .. count - 1 of the matrix on closure, one at a time.

    Block b has as rows the closure indices whose row_part is b and as
    columns those whose col_part is b, each in closure order; part -1 is in
    no block, and every nonzero entry in a block's rows lies in its
    columns. The walk is scattered into one zero buffer, the blocks one
    after the other, each a view; over MAX_BASIS**2 entries is BudgetError.
    """
    row_at, row_order, row_bounds = _groups(row_part, count)
    col_at, col_order, col_bounds = _groups(col_part, count)
    heights, widths = np.diff(row_bounds), np.diff(col_bounds)
    check_budget(int(heights @ widths), MAX_BASIS**2, "matrix (MAX_BASIS**2)", "entries")
    ends = np.cumsum(heights * widths)
    starts = ends - heights * widths
    # where each closure index's row starts in the buffer, -1 off the blocks
    row_start = np.where(row_part >= 0, starts[row_part] + row_at * widths[row_part], -1)
    flat = np.zeros(ends[-1] if count else 0, dtype=complex)
    for rows, cols, values in walk():
        at = row_start[rows]
        keep = at >= 0
        flat[at[keep] + col_at[cols[keep]]] = values[keep]
    for b in range(count):
        rows, cols = row_order[row_bounds[b]:row_bounds[b + 1]], col_order[col_bounds[b]:col_bounds[b + 1]]
        yield _fill(closure, rows, cols, flat[starts[b]:ends[b]].reshape(len(rows), len(cols)))


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


def _split(closure, walk):
    """The parts of the components: (row_part, col_part, count).

    A vectorised union-find joins row gamma to column beta on every entry
    of the walk; each closure index gets its component as a row and as a
    column, the components numbered in the order of their first rows.
    """
    n = len(closure)
    label = np.arange(2 * n)  # closure[i] is row node i and column node n + i
    for rows, cols, _ in walk():
        _join(label, rows, n + cols)
    # a root is the smallest node of its set, a row, so parts follow their first rows
    roots, part = np.unique(label, return_inverse=True)
    return part[:n], part[n:], len(roots)


def _whole(closure):
    """The parts of the whole matrix on closure, one block."""
    return np.zeros(len(closure), dtype=np.int64), np.zeros(len(closure), dtype=np.int64), 1


def components(s: Symbol):
    """The blocks of the connected components of the operator's matrix.

    Joining row gamma to column beta on every nonzero entry splits the
    downward closure into components: every closure index is the column of
    exactly one component and the row of exactly one, and the matrix is
    the direct sum of their blocks. Returns an iterator over the blocks,
    HankelMatrix objects with bases in graded lex order, in the order of
    their first rows; the zero symbol has none. BudgetError is raised above
    MAX_CLOSURE closure indices or MAX_BASIS**2 entries walked or assembled.
    """
    closure, walk = _downward_closure(s)
    return _assemble(closure, walk, *_split(closure, walk))


def build_matrix(s: Symbol) -> HankelMatrix:
    """Matrix of the full operator of s on its active bases.

    All omitted rows and columns are identically zero, so the spectral norm
    of this finite matrix is the operator norm. The zero symbol gives an
    empty matrix. Raises BudgetError above MAX_BASIS columns.
    """
    closure, walk = _downward_closure(s)
    return next(_assemble(closure, walk, *_whole(closure)))


def build_blocks(s: Symbol, ks):
    """Blocks k in ks of an m-homogeneous symbol, from one closure.

    Block k has the degree-k indices of the closure as columns and the
    degree-(m-k) ones as rows, ranges of the graded lex closure; for k > m
    it is the zero operator, an empty matrix. The blocks partition the
    closure, and BudgetError is raised above MAX_CLOSURE closure indices or
    MAX_BASIS**2 entries in the wanted blocks. Yields them in the order of ks.
    """
    m = s.is_homogeneous()
    if m is None:
        raise DomainError("build_block requires a homogeneous symbol")
    ks = list(ks)
    for k in ks:
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise DomainError(f"block index must be an integer >= 0, got {k!r}")
    wanted = [k for k in dict.fromkeys(ks) if k <= m]
    blocks = {}
    if wanted:
        closure, walk = _downward_closure(s)
        level = np.array([degree(a) for a in closure], dtype=np.int64)
        part = np.full(m + 1, -1)  # the block of each degree, -1 if not wanted
        part[wanted] = np.arange(len(wanted))
        blocks = dict(zip(wanted, _assemble(closure, walk, part[m - level], part[level], len(wanted))))
    for k in ks:
        yield blocks[k] if k <= m else HankelMatrix((), (), np.zeros((0, 0), dtype=complex))


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
    operator_norm and decisive_block_norms call it on component blocks
    (126x1 at most for cex_truncation(6), whose closure has 1087
    indices), and operator_norm on the whole matrix up to
    _SPLIT_MIN closure indices; the blocks command hands it whole degree
    blocks from build_blocks.
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


def _coarsest(methods):
    """The least precise of several quadrature rules: a product is only as exact as its coarsest factor."""
    return next(m for m in ("grid-quadrature", "arc-quadrature") if m in methods)


def factored(s: Symbol, rule, residual) -> NormEstimate:
    """A norm of s as the product of its factors' norms, or rule(s).

    A product in disjoint variables, phi = f(z_A) g(z_B), has
    H_phi = H_f (x) H_g and, by Fubini, ||phi||_p = ||f||_p ||g||_p for
    every p, the sup included. split_factors finds the finest split and the
    fit residual delta; rule runs on each factor and the values multiply.
    The factors' bounds combine as prod(v_i + e_i) - prod(v_i)
    (product_error), and residual(delta), a bound on the norm of delta,
    is added. The method is the factors' common one, or the coarsest of
    theirs where they differ (grid, then arc, then exact), and the metadata reads
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
                methods.pop() if len(methods) == 1 else _coarsest(methods),
                product_error(values, [e.error_bound for e in parts]) + fit,
                f"factored into {len(parts)} " + " ".join(f"[{e.metadata}]" for e in parts)
                + f", fit residual bound {fit:.3g}",
            )
    return rule(s)


def _frobenius_bound(delta: Symbol) -> float:
    """||H_delta|| <= sqrt(sum_alpha prod(alpha_j + 1) |delta_alpha|^2).

    The Frobenius norm of H_delta, since alpha fills prod(alpha_j + 1)
    entries; it bounds the norm of every block of H_delta too.
    """
    return _root_sum_squares((math.prod(e + 1 for e in a), c) for a, c in delta.terms())


def _dense_norm(s: Symbol) -> NormEstimate:
    closure, walk = _downward_closure(s)
    n = len(closure)
    blocks = _assemble(closure, walk, *(_split(closure, walk) if n > _SPLIT_MIN else _whole(closure)))
    value = max((spectral_norm(block).value for block in blocks), default=0.0)
    return NormEstimate(value, "spectral-exact", 1e-12 * value, f"active basis {n}x{n}")


def operator_norm(s: Symbol) -> NormEstimate:
    """Operator norm of the Hankel operator of a polynomial symbol.

    The largest norm among the connected components (components), one
    dense SVD each, or one SVD of the whole matrix when the closure has at
    most _SPLIT_MIN indices; or that of each factor for a product in
    disjoint variables (see factored). The metadata "active basis <n>x<n>"
    names the closure size n. The fit residual delta adds its Frobenius
    bound (_frobenius_bound). A norm beyond the double range is refused
    (DomainError).
    """
    est = factored(s, _dense_norm, _frobenius_bound)
    if not math.isfinite(est.value):
        raise DomainError(f"the operator norm exceeds the double range ({est.value})")
    return est


def _block_norms(s: Symbol, ks: range) -> list:
    """Norms of the blocks k in ks of an m-homogeneous symbol, in that order.

    Block k is the direct sum of the components whose columns have degree
    k, so its norm is the largest of theirs. The components of the other
    degrees are dropped before assembly.
    """
    closure, walk = _downward_closure(s)
    row_part, col_part, count = _split(closure, walk)
    # |gamma| + |beta| = m on every entry, so a component's columns share one degree
    first = np.unique(col_part, return_index=True)[1]
    level = np.array([degree(closure[i]) for i in first.tolist()], dtype=np.int64)
    keep = (level >= ks.start) & (level < ks.stop)
    renumber = np.where(keep, np.cumsum(keep) - 1, -1)
    blocks = _assemble(closure, walk, renumber[row_part], renumber[col_part], int(keep.sum()))
    norms = [0.0] * len(ks)
    for k, block in zip(level[keep].tolist(), blocks):
        norms[k - ks.start] = max(norms[k - ks.start], spectral_norm(block).value)
    return norms


def _factor_blocks(f: Symbol, top: int):
    """(norms, bounds) of the blocks 0 .. min(top, m) of an m-homogeneous factor.

    Block m - k is block k transposed, so only k <= m/2 take an SVD.
    """
    m = f.is_homogeneous()
    half = _block_norms(f, range(min(top, m // 2) + 1))
    norms = [half[min(k, m - k)] for k in range(min(top, m) + 1)]
    return norms, [1e-12 * v for v in norms]


def _max_times(a, b, top: int):
    """(norms, bounds) of the blocks 0 .. top of a product from its two factors'.

    ||B_k(fg)|| = max over i + j = k of ||B_i(f)|| ||B_j(g)||, and each
    pair's bound is product_error of the factors' bounds.
    """
    (na, ea), (nb, eb) = a, b
    norms, bounds = [], []
    for k in range(min(top, len(na) + len(nb) - 2) + 1):
        pairs = range(max(0, k - len(nb) + 1), min(k, len(na) - 1) + 1)
        norms.append(max(na[i] * nb[k - i] for i in pairs))
        bounds.append(max(product_error([na[i], nb[k - i]], [ea[i], eb[k - i]]) for i in pairs))
    return norms, bounds


def _factored_blocks(factors, delta, top: int):
    """The decisive NormEstimates of a product from its factors', or None where factored would refuse."""
    try:
        parts = [_factor_blocks(f, top) for _, f in factors]
    except DomainError:
        return None
    norms, bounds = functools.reduce(lambda a, b: _max_times(a, b, top), parts)
    fit = _frobenius_bound(delta)
    if fit > FACTOR_RTOL * max(norms[1:]):
        return None
    return [NormEstimate(v, "spectral-exact", e + fit) for v, e in zip(norms[1:], bounds[1:])]


def decisive_block_norms(s: Symbol) -> list:
    """Norms of the blocks k = 1 .. floor(m/2) of an m-homogeneous symbol.

    Block k has the degree-k indices as columns and the degree-(m-k) ones
    as rows. Each norm is the largest among the components whose columns
    have degree k (_block_norms), with bound 1e-12 times the value; the
    components of the other degrees are never assembled.

    A product in disjoint variables, phi = f(z_A) g(z_B), has block k equal
    to the direct sum over i + j = k of B_i(f) (x) B_j(g), so
    ||B_k(phi)|| = max over i + j = k of ||B_i(f)|| ||B_j(g)||. The factors
    of split_factors are folded pairwise by this rule, each factor's norms
    from its own components at k <= m_f/2 (block m_f - k is block k
    transposed). A block's bound is then the largest product_error of its
    pairs plus the Frobenius bound on the fit residual delta
    (_frobenius_bound). As in factored, the whole symbol takes the
    component path when it does not split, when that residual bound
    exceeds FACTOR_RTOL times the largest decisive norm, or when a factor
    is refused (any DomainError, BudgetError included). Returns
    NormEstimate objects, method "spectral-exact"; for m <= 1 there are none.
    """
    m = s.is_homogeneous()
    if m is None:
        raise DomainError("decisive_block_norms requires a homogeneous symbol")
    top = m // 2
    if top == 0:
        return []
    factors, delta = split_factors(s)
    product = _factored_blocks(factors, delta, top) if len(factors) > 1 else None
    if product is not None:
        return product
    return [NormEstimate(v, "spectral-exact", 1e-12 * v) for v in _block_norms(s, range(1, top + 1))]
