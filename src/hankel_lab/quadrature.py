"""Numerical H^p norms of polynomial symbols on the torus.

The workhorse is the uniform tensor grid, i.e. the periodic trapezoid
rule. |phi|^p has kink singularities at the zeros of phi, so convergence
is algebraic; the reported error bound always comes from comparing the
requested grid with its refinement to twice the points per dimension (the
returned value is the refined one). For p = 2 the rule is exact once the
grid has more points per dimension than the exponent spread; finite p on
coarser grids is rejected. All grid evaluation goes through _grid_values:
frequencies folded mod N, then one inverse FFT.

Before integrating, hp_norm reduces the torus (_reduce): |phi| depends on
theta only through the lattice spanned by the differences of its support
exponents, so a symbol whose lattice has rank r < d is integrated as a
trigonometric polynomial on T^r, with the same coefficients, exactly; the
grid's points per dimension then apply per reduced axis. The pair product
(z1+z2)(z3+z4) becomes (1+u)(1+v) on T^2, z1^3 + z2^3 becomes 1 + w, and a
monomial a constant. Full-rank symbols are gridded as given.

A reduced symbol of rank r <= 1 and degree at most _ARC_MAX_DEGREE is,
at finite p, a polynomial P on the circle, and the grid's algebraic
convergence at zeros of P on the circle is avoidable: _arc_stat cuts the
circle at the angles of the roots of P, grades panels geometrically
toward each cut, and integrates |P|^p by Gauss-Legendre with 16 and 32
nodes per panel, exact to rounding. Its bound is the grid's
refinement-difference formula. The spec's grid is still validated there
(budget, spread) but sets no node count; p = inf, rank r >= 2 and higher
degrees stay on the grid.

On the grid and on the arcs, a product in disjoint variables is the
product of its factors' norms (hankel.factored), each factor reduced,
checked and integrated on its own.

Monte Carlo sampling (counter-based Philox generator, explicit seed) is
available for any dimension, samples the same reduced torus T^r, is not
factored, and is the required path when the reduced rank exceeds 4.
_mc_stat evaluates phi per axis: one phasor e^{i theta_j} per sample and
axis, its powers for the axis's exponents by multiplication (powers by
squaring renormalised to modulus 1), then the terms summed into one
vector of samples, with no (samples x terms) matrix.

Every quadrature number comes from hp_norm: h1_norm_2hom (homogeneous
symbols in at most two variables, which reduce to rank r <= 1) is
hp_norm at p=1 with a spec of at least 2^16 points. The one number not
integrated is hq_norm_basic, the H^q norm of (z1+z2)/sqrt(2), which has a
closed form (Wallis) evaluated with log-gamma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MAX_GRID_POINTS, MAX_SAMPLES, DomainError, check_budget
from .hankel import NormEstimate, factored
from .symbols import Symbol

_EPS = np.finfo(float).eps
# full coefficient grids above this many points are evaluated slice by slice
_FULL_GRID_LIMIT = 1 << 22
# rank <= 1 symbols up to this degree are integrated on arcs (_arc_stat) at finite p
_ARC_MAX_DEGREE = 64
# Gauss-Legendre nodes per arc of the coarse rule; the refined rule has twice as many
_ARC_NODES = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate on the torus.

    points_per_dimension applies to the tensor-uniform grid; seed and
    samples apply to monte-carlo.
    """

    points_per_dimension: int = 256
    method: str = "tensor-uniform"
    seed: int = 0
    samples: int = 1_000_000

    def __post_init__(self):
        if self.method not in ("tensor-uniform", "monte-carlo"):
            raise DomainError(f"unknown quadrature method {self.method!r}")
        if self.points_per_dimension < 4:
            raise DomainError("points_per_dimension must be >= 4")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.method == "monte-carlo":
            if self.samples < 1000:
                raise DomainError("monte-carlo needs at least 1000 samples")
            check_budget(self.samples, MAX_SAMPLES, "monte-carlo samples (MAX_SAMPLES)", "samples")


def default_spec(dim: int) -> QuadratureSpec:
    """Default grid: 256 points per dimension up to d=2, 64 beyond."""
    return QuadratureSpec(points_per_dimension=256 if dim <= 2 else 64)


def _grid_values(freqs, coefs, n):
    """Values of sum_k c_k e^{i<alpha_k, theta>} on the uniform n^d grid.

    freqs is an (m, d) array of integer frequencies, possibly negative and
    beyond int64; they are folded mod n, which is exact on the grid, and
    the coefficients are scattered into one array for an inverse FFT.
    Yields the whole grid once, or, when d > 1 and n^d exceeds
    _FULL_GRID_LIMIT, one (d-1)-dimensional slice per first-axis index.
    """
    folded = np.asarray(freqs)
    if folded.dtype.kind not in "iu":  # ints beyond int64: fold them exactly
        folded = np.asarray(freqs, dtype=object)
    idx = (folded % n).astype(np.intp)
    d = idx.shape[1]
    if d == 1 or n**d <= _FULL_GRID_LIMIT:
        grid = np.zeros((n,) * d, dtype=complex)
        np.add.at(grid, tuple(idx.T), coefs)
        yield np.fft.ifftn(grid) * (n**d)
        return
    tail = tuple(idx[:, 1:].T)
    for t in range(n):
        grid = np.zeros((n,) * (d - 1), dtype=complex)
        np.add.at(grid, tail, coefs * np.exp(2j * np.pi * (t * idx[:, 0] % n) / n))
        yield np.fft.ifftn(grid) * (n ** (d - 1))


def _reduce(s: Symbol) -> Symbol:
    """The same coefficients on T^r, r the rank of the difference lattice.

    |phi| depends on theta only through <alpha - alpha_0, theta> for the
    support exponents alpha, i.e. through the lattice L they span. With an
    integer basis B of L, each alpha - alpha_0 = sum_i c_i b_i and
    |phi(theta)| = |psi(B theta)| for psi = sum_alpha phihat(alpha) w^c.
    theta -> B theta maps T^d onto T^r and pushes Haar measure to Haar
    measure, so every H^p norm and the sup of psi equal those of phi. B is
    an echelon basis from Euclid's algorithm on columns, in exact Python
    ints, then changed so that the axes of c are short; each axis of c is
    shifted to non-negative exponents. Returns s itself when r = d, and a
    dim-1 constant when r = 0 (a monomial).
    """
    support = s.support
    base = support[0]
    rows = [[a - b for a, b in zip(alpha, base)] for alpha in support[1:]]
    basis = []  # (pivot column, row); each row is zero before its pivot
    for j in range(s.dim):
        active = [r for r in rows if r[j]]
        if not active:
            continue
        rows = [r for r in rows if not r[j]]
        while len(active) > 1:
            pivot = min(active, key=lambda r: abs(r[j]))
            for r in active:
                if r is not pivot:
                    q = r[j] // pivot[j]
                    r[:] = [x - q * y for x, y in zip(r, pivot)]
            rows += [r for r in active if not r[j] and any(r)]
            active = [r for r in active if r[j]]
        basis.append((j, active[0]))
    if len(basis) == s.dim:
        return s
    if not basis:
        return Symbol(1, [((0,), s.coeff(base))])
    coords = []
    for alpha in support:
        v = [a - b for a, b in zip(alpha, base)]
        c = []
        for j, b in basis:
            q = v[j] // b[j]  # exact: v lies in the lattice
            v = [x - q * y for x, y in zip(v, b)]
            c.append(q)
        coords.append(c)
    # Any basis of the lattice the coordinate columns span is exact, and the
    # echelon one can be skewed; pairwise (Gauss) reduction shortens the
    # columns, hence the exponent spread and the grid it needs.
    axes = [list(axis) for axis in zip(*coords)]
    changed = True
    while changed:
        changed = False
        for i, k in itertools.permutations(range(len(axes)), 2):
            dot = sum(x * y for x, y in zip(axes[i], axes[k]))
            norm = sum(y * y for y in axes[k])
            if 2 * abs(dot) > norm:  # subtracting the nearest multiple shortens axes[i]
                q = (2 * dot + norm) // (2 * norm)
                axes[i] = [x - q * y for x, y in zip(axes[i], axes[k])]
                changed = True
    shifted = [[x - min(axis) for x in axis] for axis in axes]
    return Symbol(len(axes), [(c, s.coeff(alpha)) for c, alpha in zip(zip(*shifted), support)])


def _spread(s: Symbol) -> int:
    """Largest exponent spread max - min over the axes of the support."""
    return max(max(axis) - min(axis) for axis in zip(*s.support))


def _tensor_stat(s: Symbol, n: int, p):
    """Mean of |phi|^p over the n^d uniform grid, or the max for p=inf."""
    terms = s.terms()
    slices = _grid_values([a for a, _ in terms], np.array([c for _, c in terms]), n)
    if p == math.inf:
        return max(float(np.abs(v).max()) for v in slices)
    return sum(float((np.abs(v) ** p).sum()) for v in slices) / (n**s.dim)


def _sup_cushion(s: Symbol, n: int, grid_max: float):
    """Amount to add to a grid max to dominate the true sup.

    Bernstein's inequality per axis bounds each partial derivative by
    (axis degree) * sup, and the nearest grid point is within pi/n per
    axis, so sup <= grid_max / (1 - pi * sum(axis degrees) / n) whenever
    the grid is fine enough for that denominator to be positive.
    """
    axis_deg = [max((a[j] for a in s.support), default=0) for j in range(s.dim)]
    ratio = math.pi * sum(axis_deg) / n
    if ratio >= 1:
        return math.inf, "grid too coarse for a sup cushion"
    cushion = grid_max * (ratio / (1 - ratio))
    return cushion, f"Bernstein cushion with sum of axis degrees {sum(axis_deg)}"


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def _arc_ends(roots, degree: int):
    """Sorted panel ends on [0, 2 pi] for |P(e^{it})|^p, P with these roots.

    Each root r makes |P|^p singular at t = arg r +- i log|r|, about
    ||r| - 1| off the real axis. The ends cut [0, 2 pi) at every arg r and
    grade geometrically (ratio 4) away from it, starting at that distance
    (floored at 1e-14, where the panel's share is below rounding), so no
    panel comes closer to a singularity than a third of its width. A uniform
    spacing of at most 4 / degree keeps panels short against the
    oscillation of e^{i degree t}.
    """
    depth = np.maximum(np.abs(np.abs(roots) - 1.0), 1e-14)
    offsets = depth[:, None] * 4.0 ** np.arange(26)  # 1e-14 * 4^25 > pi
    near = offsets < math.pi
    angles = np.angle(roots)[:, None]
    cuts = np.concatenate([angles[:, 0], (angles + offsets)[near], (angles - offsets)[near]])
    uniform = np.linspace(0.0, 2.0 * math.pi, 2 + math.ceil(math.pi * degree / 2))
    return np.unique(np.concatenate([uniform, np.mod(cuts, 2.0 * math.pi)]))


def _arc_stat(s: Symbol, p):
    """Means of |phi|^p over T^1 by Gauss-Legendre on arcs split at the roots.

    s is a symbol on T^1 (a reduced symbol of rank <= 1). Returns the means
    with _ARC_NODES and 2 * _ARC_NODES nodes per arc, and the arc count.
    """
    low = min(a[0] for a in s.support)
    coefs = np.zeros(max(a[0] for a in s.support) - low + 1, dtype=complex)
    for a, c in s.terms():
        coefs[a[0] - low] = c
    desc = coefs[::-1]
    # a coefficient below rounding of |P| on the circle moves no root near it;
    # dropping it keeps the companion matrix finite (1 + 1e-320 w^2)
    kept = np.where(np.abs(desc) >= _EPS * np.abs(desc).max(), desc, 0)
    ends = _arc_ends(np.roots(kept), len(coefs) - 1)
    lefts, widths = ends[:-1, None], np.diff(ends)[:, None]
    means = []
    for n in (_ARC_NODES, 2 * _ARC_NODES):
        x, w = _gauss_legendre(n)
        values = np.abs(np.polyval(desc, np.exp(1j * (lefts + widths * (0.5 * (x + 1.0)))))) ** p
        means.append(float((widths * w * values).sum()) / (4.0 * math.pi))
    return means, len(ends) - 1


def _unit(z):
    """z, a fresh product of unit phasors, divided by its modulus in place."""
    z /= np.abs(z)
    return z


def _unit_power(u, e: int):
    """u^e for a vector of unit phasors u and an integer e >= 1.

    By repeated squaring, with every product divided by its modulus: a
    modulus error doubles at each squaring, and 1 + 1e-16 squared 77
    times (e near 10^23) overflows.
    """
    result, square = None, u
    while True:
        if e & 1:
            result = square if result is None else _unit(result * square)
        e >>= 1
        if not e:
            return result
        square = _unit(square * square)


def _mc_stat(s: Symbol, spec: QuadratureSpec, p):
    """Mean of |phi|^p over spec.samples points of T^d and 3 standard errors; the max at p=inf.

    The points are rows theta of uniform(0, 2 pi)^d from a Philox stream
    seeded with spec.seed. Each axis j takes one phasor
    u_j = e^{i theta_j} per sample, and its power table holds u_j^e for
    the axis's distinct nonzero exponents e in increasing order: each row
    is the one before times u_j^gap, the gap's power renormalised
    (_unit_power). A row's modulus then drifts by at most one rounding per
    row, as its phase does. phi is summed term by term,
    c_alpha prod_j u_j^alpha_j, into one vector of samples: d complex
    exponentials per sample instead of one per term, and no
    (samples x terms) matrix. A chunk holds at most 2^16 samples and its
    tables at most 2^20 entries; the stream is row-major, so the chunk
    size does not change the samples.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    exponents = [sorted({a[j] for a in s.support} - {0}) for j in range(s.dim)]
    rows = [{e: k for k, e in enumerate(axis)} for axis in exponents]
    constant = 0j
    products = []  # (coefficient, [(axis, table row), ...]) per nonconstant term
    for alpha, c in s.terms():
        factors = [(j, rows[j][e]) for j, e in enumerate(alpha) if e]
        if factors:
            products.append((c, factors))
        else:
            constant = c
    chunk = min(1 << 16, max(1, (1 << 20) // max(1, sum(map(len, exponents)))))
    total = 0.0
    total_sq = 0.0
    best = 0.0
    remaining = spec.samples
    while remaining > 0:
        m = min(chunk, remaining)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(m, s.dim))
        tables = [np.empty((len(axis), m), dtype=complex) for axis in exponents]
        for j, axis in enumerate(exponents):
            if not axis:
                continue
            u = np.exp(1j * theta[:, j])
            previous, gap = 0, 0
            for k, e in enumerate(axis):
                if e - previous != gap:  # equal gaps reuse the last step
                    gap = e - previous
                    step = _unit_power(u, gap)
                if k:
                    np.multiply(tables[j][k - 1], step, out=tables[j][k])
                else:
                    tables[j][0] = step
                previous = e
        values = np.full(m, constant, dtype=complex)
        term = np.empty(m, dtype=complex)
        for c, factors in products:
            (j, k), *rest = factors
            np.multiply(tables[j][k], c, out=term)
            for j, k in rest:
                term *= tables[j][k]
            values += term
        mags = np.abs(values)
        if p == math.inf:
            best = max(best, float(mags.max()))
        else:
            powered = mags**p
            total += float(powered.sum())
            total_sq += float((powered**2).sum())
        remaining -= m
    if p == math.inf:
        return best, 0.0
    mean = total / spec.samples
    variance = max(total_sq / spec.samples - mean**2, 0.0)
    sem = math.sqrt(variance / spec.samples)
    return mean, 3.0 * sem


def hp_norm(s: Symbol, p, spec: QuadratureSpec | None = None) -> NormEstimate:
    """H^p norm estimate (mean of |phi|^p on the grid, to the 1/p).

    The symbol is first reduced to T^r, r the rank of its
    exponent-difference lattice (see _reduce), in any dimension d, and
    both methods integrate on T^r. Tensor grids are limited to r <= 4; use
    a monte-carlo spec beyond that. The spec's points per dimension apply
    per reduced axis, as does the rule that they exceed the exponent
    spread for finite p; the metadata then says "d=<d> reduced to r=<r>".
    Symbols of full rank are evaluated as given. At finite p a reduced
    symbol of rank r <= 1 and degree <= _ARC_MAX_DEGREE is integrated on
    arcs split at its roots (method "arc-quadrature", see _arc_stat) after
    the same checks, so the points per dimension then set no node count;
    higher degrees use the grid. p = inf returns the grid
    (or sample) maximum, which is only a lower estimate of the sup; for
    tensor grids the error bound is a rigorous Bernstein cushion from the
    axis degrees of the reduced symbol, and a sample max has none (inf).

    A tensor-uniform spec on a product in disjoint variables takes the
    product of its factors' norms (hankel.factored), each factor reduced
    and checked on its own; the split is found on s as given, because a
    lattice basis can skew a product's coordinates. The fit residual delta
    adds sum |delta_alpha|. Monte Carlo is not factored.
    """
    if s.is_zero:
        raise DomainError("hp_norm requires a nonzero symbol")
    if p != math.inf and not p >= 1:
        raise DomainError(f"p must be >= 1 or inf, got {p}")
    if spec is None:
        spec = default_spec(s.dim)
    if spec.method == "monte-carlo":
        dim = s.dim
        s = _reduce(s)
        rank = s.dim if len(s.support) > 1 else 0
        stat, err3 = _mc_stat(s, spec, p)
        sampled = f"; d={dim} reduced to r={rank}" if rank < dim else ""
        if p == math.inf:
            return NormEstimate(
                stat,
                "monte-carlo",
                math.inf,
                f"sample max (lower estimate); philox seed={spec.seed} "
                f"samples={spec.samples}{sampled}",
            )
        value = stat ** (1.0 / p)
        err = err3 * value / (p * stat) if stat > 0 else 0.0
        return NormEstimate(
            value,
            "monte-carlo",
            err,
            f"philox seed={spec.seed} samples={spec.samples}; "
            f"3 standard errors, first-order in the 1/p power{sampled}",
        )
    n = spec.points_per_dimension
    est = factored(s, lambda f: _grid_or_arc(f, p, n), lambda delta: math.fsum(abs(c) for _, c in delta.terms()))
    return NormEstimate(est.value, est.method, est.error_bound, f"{est.metadata}, p={p}")


def _grid_or_arc(s: Symbol, p, n: int) -> NormEstimate:
    """||s||_p on the arcs or the tensor grid after reduction, with its checks.

    Raises DomainError for a reduced rank above 4 or a spread the grid does
    not resolve at finite p, and BudgetError for a grid above
    MAX_GRID_POINTS. The metadata names the rule and "d=<d>[ reduced to r=<r>]".
    """
    dim = s.dim
    s = _reduce(s)
    rank = s.dim if len(s.support) > 1 else 0
    where = f"d={dim} reduced to r={rank}" if rank < dim else f"d={dim}"
    if rank > 4:
        raise DomainError(f"tensor-uniform is limited to rank <= 4, got rank {rank}; use monte-carlo")
    check_budget((2 * n) ** s.dim, MAX_GRID_POINTS, "tensor grid (MAX_GRID_POINTS)", "points")
    spread = _spread(s)
    if p != math.inf and n <= spread:  # frequencies of |phi|^2 would alias onto 0
        raise DomainError(f"{n} points per dimension do not resolve the exponent spread {spread}")
    if p == math.inf:
        fine = _tensor_stat(s, 2 * n, p)
        cushion, note = _sup_cushion(s, 2 * n, fine)
        return NormEstimate(
            fine, "grid-quadrature", cushion, f"grid max on {2 * n}^{s.dim} (lower estimate); {note}, {where}"
        )
    if s.dim <= 1 and spread <= _ARC_MAX_DEGREE:
        (coarse, fine), arcs = _arc_stat(s, p)
        method = "arc-quadrature"
        rule = f"gauss-legendre {_ARC_NODES} refined to {2 * _ARC_NODES} nodes on {arcs} arcs cut at the roots"
    else:
        coarse, fine = _tensor_stat(s, n, p), _tensor_stat(s, 2 * n, p)
        method, rule = "grid-quadrature", f"tensor-uniform N={n} refined to {2 * n}"
    value = fine ** (1.0 / p)
    err = abs(value - coarse ** (1.0 / p)) + 32 * _EPS * (1.0 + value)
    return NormEstimate(value, method, err, f"{rule}, {where}")


# -- closed forms and thin wrappers ------------------------------------------


@lru_cache(maxsize=None)
def _hq_basic_cached(q: float):
    # Wallis: the mean of |(z1+z2)/sqrt(2)|^q over T^2 is
    # 2^(q/2) Gamma((q+1)/2) / (sqrt(pi) Gamma(q/2+1)). Its logarithm is a sum
    # of O(1) terms, each correct to a few ulps, so the value is too.
    log_mean = (
        0.5 * q * math.log(2.0)
        + math.lgamma(0.5 * (q + 1.0))
        - 0.5 * math.log(math.pi)
        - math.lgamma(0.5 * q + 1.0)
    )
    value = math.exp(log_mean / q)
    return value, 16 * _EPS * value


def hq_norm_basic(q: float) -> NormEstimate:
    """H^q norm of the normalized pair sum (z1+z2)/sqrt(2), 1 <= q <= 2.

    On the torus |(e^{it1}+e^{it2})/sqrt(2)| = sqrt(2)|cos((t2-t1)/2)|,
    whose q-th moment has the closed form (Wallis)
    2^(q/2) Gamma((q+1)/2) / (sqrt(pi) Gamma(q/2+1)); it is evaluated with
    log-gamma, and the error bound covers its rounding.
    """
    if not 1.0 <= q <= 2.0:
        raise DomainError(f"q must lie in [1, 2], got {q}")
    value, err = _hq_basic_cached(float(q))
    return NormEstimate(
        value,
        "closed-form",
        err,
        f"Wallis moment via log-gamma, q={q}",
    )


def hq_inverse_lower(q: float) -> float:
    """Closed-form lower bound for 1 / hq_norm_basic(q) on [1, 2].

    The bound 1 + (2 log 2 - 1)/8 * (2 - q) is the tangent line at q = 2
    of the inverse-norm curve; equality holds at q = 2.
    """
    if not 1.0 <= q <= 2.0:
        raise DomainError(f"q must lie in [1, 2], got {q}")
    return 1.0 + (2.0 * math.log(2.0) - 1.0) / 8.0 * (2.0 - q)


def hq_inverse_intermediate(q: float) -> float:
    """The cruder bound (1 + q/2)^(1/q) / sqrt(2) <= 1 / hq_norm_basic(q).

    Exposed for reference only; the tangent-line bound above is what the
    verification suite checks.
    """
    if not 1.0 <= q <= 2.0:
        raise DomainError(f"q must lie in [1, 2], got {q}")
    return (1.0 + q / 2.0) ** (1.0 / q) / math.sqrt(2.0)


def h1_norm_2hom(s: Symbol, spec: QuadratureSpec | None = None) -> NormEstimate:
    """H^1 norm of a homogeneous symbol in at most two active variables.

    Homogeneity makes |phi| a function of the difference of the two
    angles alone, so the symbol reduces to rank r <= 1 in any dimension;
    this is hp_norm at p=1 with a spec of at least 2^16 points (or the
    spec's count if larger), with its budget and spread checks and
    refinement bound. Up to degree _ARC_MAX_DEGREE the value comes from
    the arc rule and does not depend on that count; the 2^16 floor sets
    the grid only for the fallback above that degree.
    """
    if s.is_zero:
        raise DomainError("h1_norm_2hom requires a nonzero symbol")
    if s.is_homogeneous() is None:
        raise DomainError("h1_norm_2hom requires a homogeneous symbol")
    active = sorted(s.variable_support())
    if len(active) > 2:
        raise DomainError(
            f"h1_norm_2hom needs at most 2 active variables, got {len(active)}"
        )
    n = max(1 << 16, spec.points_per_dimension if spec is not None else 0)
    return hp_norm(s, 1, QuadratureSpec(points_per_dimension=n))
