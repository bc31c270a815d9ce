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
exponents, so a symbol whose lattice has rank r is integrated as a
trigonometric polynomial on T^r in lattice coordinates, with the same
coefficients, exactly; the grid's points per dimension then apply per
reduced axis, every axis starting at exponent 0. The pair product
(z1+z2)(z3+z4) becomes (1+u)(1+v) on T^2, z1^3 + z2^3 becomes 1 + w,
1 + z1^4 + z2^4 becomes 1 + w1 + w2, and a monomial a constant. At full
rank the exponents as given are exact coordinates too, and they are kept
unless the lattice basis gives a narrower spread, so no grid gets wider.

A reduced symbol of rank r <= 1 and degree at most _ARC_MAX_DEGREE is,
at finite p, a polynomial P on the circle, and the grid's algebraic
convergence at zeros of P on the circle is avoidable: _arc_stat cuts the
circle at the angles of the roots of P, grades panels geometrically
toward each cut, and integrates |P|^p by Gauss-Legendre with 16 and 32
nodes per panel, exact to rounding at small p. Its bound is the grid's
refinement-difference formula, looser at large p, where |P|^p is a peak
narrower than the panels. At p = 1 a self-reciprocal P
(c_k = u conj(c_(m-k)), |u| = 1) needs no nodes at all: it is e^{imt/2}
times a real trigonometric polynomial, so ||P||_1 is a sum of
antiderivative differences between its roots (_reciprocal_h1, method
"exact", a rounding bound); the nehari-search test functions
z1^2 + c z1 z2 + z2^2 are of this kind. A monomial (rank 0) has
||c z^alpha||_p = |c| at every finite p, also "exact". These paths read
no spec setting, so the points per dimension, the samples, the grid
budgets and the spread check do not apply to them; p = inf, rank r >= 2
and higher degrees take the grid, where they do, or the sampler. Both
rules take P's ascending coefficients as one row (_circle_coefs), with
its roots from np.roots (_circle_roots); at p = 1 hp_norm tries the
exact rule first, and a P that fails its gate takes the arc rule.

For every spec, a product in disjoint variables is the product of its
factors' norms (hankel.factored), each factor reduced, checked and
integrated on its own by one rule dispatch (_grid_or_arc).

Monte Carlo sampling (counter-based Philox generator, explicit seed) is
available for any dimension, samples the same reduced torus T^r, and is
the required path when the reduced rank exceeds 4; under a monte-carlo
spec it takes every piece that no exact or arc rule takes.
_mc_stat evaluates phi per axis: one phasor e^{i theta_j} per sample and
axis, from a table of 1024 turns times a Taylor step (_turn_phasors, no
complex exponential), its powers for the axis's exponents by
multiplication (powers by squaring renormalised to modulus 1), then the
terms summed into one vector of samples, with no (samples x terms)
matrix, in chunks of _MC_CHUNK samples whose arrays stay in cache.

Every rule takes its power mean the same way (_power_mean): the tensor
grid slice by slice, the arc rule per node set, Monte Carlo per chunk,
each as M mean((|phi| / M)^p)^(1/p) with M the largest |phi| it has
seen, its totals rescaled whenever a chunk raises M. So a large p
neither overflows nor loses a chunk, and p = inf is M alone.

Every printed quadrature number comes from hp_norm: h1_norm_2hom
(homogeneous symbols in at most two variables, which reduce to rank
r <= 1) is hp_norm at p=1 with 2^16 points per dimension. The
nehari-search coefficient c is a closed form (nehari.search_c2), and the
H^1 norm it prints is hp_norm's. The one number not integrated is
hq_norm_basic, the H^q norm of (z1+z2)/sqrt(2), which has a closed form
(Wallis) evaluated with log-gamma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MAX_1D_GRID_POINTS, MAX_GRID_POINTS, MAX_SAMPLES, DomainError, check_budget
from .hankel import NormEstimate, factored
from .symbols import FACTOR_RTOL, Symbol

_EPS = np.finfo(float).eps
# full coefficient grids above this many points are evaluated slice by slice
_FULL_GRID_LIMIT = 1 << 22
# rank <= 1 symbols up to this degree are integrated on arcs (_arc_stat) at finite p,
# or exactly at p = 1 when self-reciprocal (_reciprocal_h1)
_ARC_MAX_DEGREE = 64
# Gauss-Legendre nodes per arc of the coarse rule; the refined rule has twice as many
_ARC_NODES = 16
# Monte Carlo samples per chunk: a complex array of them is 128 KB and stays in
# cache. Of 2^12 .. 2^16, 2^13 was fastest; at 2^16 (1 MB arrays) a
# 100k-sample rank-3 call took 1.6 times as long (2 vCPU, numpy 2.4.6)
_MC_CHUNK = 1 << 13
# table entries per turn for the Monte Carlo phasors (_turn_phasors)
_TURNS = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate on the torus.

    points_per_dimension applies to the tensor-uniform grid; seed and
    samples to monte-carlo, on the pieces that no exact or arc rule takes.
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
    _FULL_GRID_LIMIT, one (d-1)-dimensional slice per first-axis index;
    a d = 1 grid is whole, and its callers hold it to MAX_1D_GRID_POINTS.
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
    ints, then changed so that the axes of c are short (pairwise Gauss
    reduction). Those axes are replaced by narrowed ones (each axis plus
    or minus another while that shrinks its max - min) only if the spread,
    the largest max - min over the axes, is strictly smaller. At r = d the
    exponents as given are coordinates of the same kind (B the identity),
    and they are kept unless the reduced axes are strictly narrower; so
    the spread never exceeds the input's. Each axis is shifted to start at
    exponent 0, which multiplies phi by a unimodular monomial. Returns a
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
    # Short axes can still be wide (max - min). narrow adds +-1 times another
    # axis while that narrows one: unimodular too, and the width of
    # axes[i] + t axes[k] is convex in t, so steps of one reach its minimum.
    # Ties go to the earlier candidate: at full rank the exponents as given
    # (exact coordinates too), then the Gauss axes, then narrow.
    narrow = [axis[:] for axis in axes]
    changed = True
    while changed:
        changed = False
        for (i, k), sign in itertools.product(itertools.permutations(range(len(narrow)), 2), (1, -1)):
            moved = [x + sign * y for x, y in zip(narrow[i], narrow[k])]
            if max(moved) - min(moved) < max(narrow[i]) - min(narrow[i]):
                narrow[i] = moved
                changed = True
    given = [[list(axis) for axis in zip(*support)]] if len(axes) == s.dim else []
    axes = min(given + [axes, narrow], key=lambda a: max(max(x) - min(x) for x in a))
    shifted = [[x - min(axis) for x in axis] for axis in axes]
    # distinct tuples of integers >= 0: the map from the support is one to one
    return Symbol._of(len(axes), dict(zip(zip(*shifted), map(s.coeff, support))))


def _spread(s: Symbol) -> int:
    """Largest exponent spread max - min over the axes of a reduced symbol: its largest exponent."""
    return max(map(max, s.support))


def _power_mean(parts, p, size, squares=False):
    """M, mean((v / M)^p) and mean((v / M)^(2p)) over magnitudes v >= 0 given in chunks.

    parts yields (mags, weights): an array of magnitudes, overwritten
    here, and weights that broadcast against it, or None for weight 1;
    each mean is its weighted sum divided by size. M is the largest v so
    far, and a chunk that raises it multiplies the totals by
    (M_old / M_new)^p and its square first. The norm is M mean^(1/p); at
    p = inf only M is taken and both means are 1.0, so that formula
    still gives M. The square mean, for an unweighted sample variance,
    is summed only if squares is set and is 0.0 otherwise.
    """
    top = total = total_sq = 0.0
    for mags, weights in parts:
        peak = float(mags.max())
        if peak > top:
            if p != math.inf:
                shrink = (top / peak) ** p
                total *= shrink
                total_sq *= shrink * shrink
            top = peak
        if p == math.inf or top == 0.0:
            continue
        mags /= top
        mags **= p
        if weights is not None:
            mags *= weights
        total += float(mags.sum())
        if squares:
            mags *= mags
            total_sq += float(mags.sum())
    if p == math.inf:
        return top, 1.0, 1.0
    return top, total / size, total_sq / size


def _tensor_stat(s: Symbol, n: int, p):
    """||phi||_p from the n^d uniform grid: its power mean (_power_mean), or its max at p = inf.

    The grid comes from _grid_values, whole or slice by slice, one chunk each.
    """
    terms = s.terms()
    slices = _grid_values([a for a, _ in terms], np.array([c for _, c in terms]), n)
    top, mean, _ = _power_mean(((np.abs(v), None) for v in slices), p, n**s.dim)
    return top * mean ** (1.0 / p)


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


def _circle_coefs(s: Symbol):
    """Ascending coefficients of a reduced symbol on T^1, whose lowest exponent is 0."""
    coefs = np.zeros(_spread(s) + 1, dtype=complex)
    for a, c in s.terms():
        coefs[a[0]] = c
    return coefs


def _circle_roots(coefs):
    """np.roots of P's ascending coefficients, those below rounding dropped.

    A coefficient below rounding of |P| on the circle moves no root near
    it; dropping it keeps the companion matrix finite (1 + 1e-320 w^2).
    As in np.roots, a zero stripped at the bottom is a root 0 and one
    stripped at the top is no root.
    """
    mags = np.abs(coefs)
    return np.roots(np.where(mags >= _EPS * mags.max(), coefs, 0)[::-1])


def _arc_stat(coefs, p):
    """||P||_p on T^1 by Gauss-Legendre on arcs split at the roots.

    coefs are P's ascending coefficients, one row (_circle_coefs of a
    reduced symbol of rank <= 1). Each node set, _ARC_NODES and
    2 * _ARC_NODES nodes per arc, is one chunk of _power_mean, weighted by
    arc width times Gauss-Legendre weight over 4 pi (the weights sum to 2
    per arc). Returns the two norms, coarse then fine, and the arc count.
    """
    desc = coefs[::-1]
    ends = _arc_ends(_circle_roots(coefs), len(coefs) - 1)
    lefts, widths = ends[:-1, None], np.diff(ends)[:, None]
    norms = []
    for n in (_ARC_NODES, 2 * _ARC_NODES):
        x, w = _gauss_legendre(n)
        mags = np.abs(np.polyval(desc, np.exp(1j * (lefts + widths * (0.5 * (x + 1.0))))))
        top, mean, _ = _power_mean([(mags, widths * w)], p, 4.0 * math.pi)
        norms.append(top * mean ** (1.0 / p))
    return norms, len(ends) - 1


def _reciprocal_h1(coefs):
    """||P||_1 by antiderivatives as (value, bound, arc count) if P is self-reciprocal, else None.

    coefs are P's ascending coefficients, one row. P = sum_k c_k w^k of
    degree m is self-reciprocal when c_k = u conj(c_(m-k)) for some
    |u| = 1. u is fitted at the largest |c_k|, and P is replaced by its
    projection q = (c + u conj(c reversed)) / 2, which is self-reciprocal
    exactly; the fit residual sum |c_k - q_k| bounds ||P - q||_1 and must
    be at most FACTOR_RTOL times the value. With v = sqrt(u),
    T(t) = conj(v) e^{-imt/2} q(e^{it}) is real, with antiderivative
    S(t) = Re sum_k (q_k / v) e^{i(k-m/2)t} / (i(k-m/2)), plus the middle
    coefficient times t for even m. T changes sign only at the angles of
    q's roots on the circle, so cutting [0, 2 pi] at the angles of all its
    roots gives ||P||_1 = (1/2pi) sum over arcs of |S(b) - S(a)|; a cut
    where T keeps its sign does no harm. A repeated cut adds an exact 0 to
    the sum, and the arc count is the number of distinct cuts less one.

    The bound is rounding only: the S evaluations, the cuts, and the fit
    residual. A cut misplaced by delta from a zero of T costs
    O(|T'| delta^2); taking the cuts as the sign changes of T moved by the
    roots' backward error eta = (m + 2) eps sum |q_k| in sup norm, which
    moves ||T||_1 by at most eta, the cuts cost at most 2 eta in all.

    The work is done on P times 2^-e, e the binary exponent of its largest
    real or imaginary part, and the value and bound are scaled back: a
    power of two is exact, so this changes no bit of an ordinary result,
    and the bound's terms (each near |q_k| (2 pi + m + 3)) stay finite for
    coefficients near the double range. DomainError if a value itself
    exceeds it.
    """
    parts = coefs.view(np.float64)
    shift = int(np.frexp(np.abs(parts).max())[1])
    c = np.ldexp(parts, -shift).view(complex)
    m = len(c) - 1
    k = int(np.abs(c).argmax())
    if c[m - k] == 0:  # no mirror coefficient to fit u at
        return None
    phase = np.angle(c)
    u = np.exp(1j * (phase[k] + phase[m - k]))  # no overflow at 1e-320
    q = 0.5 * (c + u * np.conj(c[::-1]))
    moduli = np.abs(q)
    residual = math.fsum(np.abs(c - q).tolist())
    size = math.fsum(moduli.tolist())
    if residual > FACTOR_RTOL * size:  # the value is at most size, so it would fail the value gate below
        return None
    spins, weights = _spins(m)
    a = q * np.conj(np.sqrt(u))
    b = np.divide(a, spins, out=np.zeros(m + 1, dtype=complex), where=spins != 0)
    middle = 0.0 if m % 2 else float(a[m // 2].real)
    ends = np.sort(np.concatenate([[0.0, 2.0 * math.pi], np.mod(np.angle(_circle_roots(q)), 2.0 * math.pi)]))
    antiderivative = (np.exp(ends[:, None] * spins) @ b).real + middle * ends
    value = math.fsum(np.abs(np.diff(antiderivative)).tolist()) / (2.0 * math.pi)
    if residual > FACTOR_RTOL * value:
        return None
    n = int(np.count_nonzero(np.diff(ends)))
    per_eval = _EPS * (math.fsum((moduli * weights).tolist()) + 6.0 * math.pi * abs(middle))
    cuts = 2.0 * (m + 2) * _EPS * size
    err = n * per_eval / math.pi + cuts + (n + 2) * _EPS * value + residual
    try:
        return math.ldexp(value, shift), math.ldexp(err, shift), n
    except OverflowError:
        raise DomainError("the H^1 norm exceeds the double range") from None


@lru_cache(maxsize=None)
def _spins(m: int):
    """i(k - m/2) for k = 0 .. m, and each k's weight in the exact rule's rounding bound.

    The weight is 2 pi + (m + 3) / |k - m/2| per evaluation of S (the
    phase, 2 pi |q_k| eps; exp and the dot product, (m + 3) eps |b_k|),
    and 0 at the middle k = m/2, whose term is the product with t.
    """
    omega = np.arange(m + 1) - 0.5 * m
    spin = omega != 0
    weights = np.zeros(m + 1)
    weights[spin] = 2.0 * math.pi + (m + 3) / np.abs(omega[spin])
    spins = 1j * omega
    spins.flags.writeable = weights.flags.writeable = False  # shared by every caller through the cache
    return spins, weights


def _refined(coarse: float, fine: float) -> float:
    """Error bound of a rule's refined norm: its distance to the coarse one, plus rounding."""
    return abs(fine - coarse) + 32 * _EPS * (1.0 + fine)


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


def _turn_table():
    """e^{2 pi i k / _TURNS} for k = 0 .. _TURNS, each within 1.3e-16.

    Only the first octant's angles are rounded (at most pi/4, so by less
    than 1e-16); the other entries follow from it by the exact maps
    e^{i(pi/2 - a)} = i conj(e^{ia}) and multiplication by powers of i.
    """
    a = (2.0 * math.pi / _TURNS) * np.arange(_TURNS // 8 + 1)
    octant = np.cos(a) + 1j * np.sin(a)
    quarter = np.concatenate([octant, 1j * np.conj(octant[-2::-1])])
    return np.concatenate([quarter[:-1] * 1j**q for q in range(4)] + [[1.0]])


_TURN_TABLE = _turn_table()


def _turn_phasors(x):
    """e^{2 pi i x} for an array x of turns in [0, 1).

    Tang's table method: with y = _TURNS x (exact) and n = rint(y), the
    phasor is the table entry n times e^{id}, d = 2 pi (y - n) / _TURNS
    (y - n is exact and |d| <= pi / _TURNS), and cos d and sin d are their
    Taylor series through d^6 and d^7, whose remainders are below 1e-21.
    x just below 1 rounds to n = _TURNS, the table's last entry. Against
    long double the error was at most 2.1e-16 on 10^6 random turns, where
    np.exp(2j * np.pi * x) erred by up to 7.4e-16 and took three to four
    times as long (2^13 turns, 2 vCPU, numpy 2.4.6).
    """
    y = x * _TURNS
    n = np.rint(y)
    d = np.subtract(y, n, out=y)
    d *= 2.0 * math.pi / _TURNS
    t = d * d
    u = np.empty(x.shape, dtype=complex)
    u.real = 1.0 + t * (-1.0 / 2.0 + t * (1.0 / 24.0 - t * (1.0 / 720.0)))
    u.imag = d * (1.0 + t * (-1.0 / 6.0 + t * (1.0 / 120.0 - t * (1.0 / 5040.0))))
    u *= _TURN_TABLE.take(n.astype(np.intp))
    return u


def _mc_stat(s: Symbol, spec: QuadratureSpec, p):
    """||phi||_p over spec.samples points of T^d and its 3-standard-error bound; the max and inf at p=inf.

    The points are rows theta = 2 pi x of x = random((samples, d)) from a
    Philox stream seeded with spec.seed, the doubles uniform(0, 2 pi)
    scales. Each axis j takes one phasor u_j = e^{2 pi i x_j} per sample
    (_turn_phasors, a table entry times a Taylor step), and its power
    table holds u_j^e for the axis's distinct nonzero exponents e in
    increasing order: each row is the one before times u_j^gap, the gap's
    power renormalised (_unit_power). A row's modulus then drifts by at
    most one rounding per row, as its phase does. phi is summed term by
    term, c_alpha prod_j u_j^alpha_j, into one vector of samples: no
    exponential at all, and no (samples x terms) matrix. A chunk holds at
    most _MC_CHUNK samples, so its arrays stay in cache, and its tables at
    most 2^20 entries; the stream is row-major, so the chunk size does not
    change the samples.

    Each chunk's |phi| goes to _power_mean with the square sums; the
    value is M mean^(1/p) and the bound 3 sem value / (p mean), in which
    the scale M cancels.
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
    chunk = min(_MC_CHUNK, max(1, (1 << 20) // max(1, sum(map(len, exponents)))))

    def chunks():
        remaining = spec.samples
        while remaining > 0:
            m = min(chunk, remaining)
            x = rng.random((m, s.dim))
            tables = [np.empty((len(axis), m), dtype=complex) for axis in exponents]
            for j, axis in enumerate(exponents):
                if not axis:
                    continue
                u = _turn_phasors(x[:, j])
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
            yield np.abs(values), None
            remaining -= m

    scale, mean, mean_sq = _power_mean(chunks(), p, spec.samples, squares=True)
    if p == math.inf:
        return scale, math.inf
    if scale == 0.0:  # phi vanished at every sample
        return 0.0, 0.0
    variance = max(mean_sq - mean**2, 0.0)
    value = scale * mean ** (1.0 / p)
    return value, 3.0 * math.sqrt(variance / spec.samples) * value / (p * mean)


def hp_norm(s: Symbol, p, spec: QuadratureSpec | None = None) -> NormEstimate:
    """H^p norm estimate (mean of |phi|^p on the grid, to the 1/p).

    The symbol is first reduced to T^r, r the rank of its
    exponent-difference lattice (see _reduce), in any dimension d, and
    every rule integrates on T^r; the metadata says "d=<d> reduced to
    r=<r>" when r < d. At finite p a monomial (r = 0) is exact, |c| with
    bound 0, and a reduced symbol of rank r <= 1 and degree <=
    _ARC_MAX_DEGREE is integrated on arcs split at its roots (method
    "arc-quadrature", see _arc_stat), or exactly at p = 1 when
    self-reciprocal, by antiderivatives between its roots (_reciprocal_h1,
    method "exact", a rounding bound). These rules read no spec setting.
    Any other symbol is sampled under a monte-carlo spec and otherwise
    takes the tensor grid, limited to r <= 4, whose points per dimension
    apply per reduced axis, as does the rule that they exceed the exponent
    spread for finite p. p = inf returns the grid (or sample) maximum,
    which is only a lower estimate of the sup; for tensor grids the error
    bound is a rigorous Bernstein cushion from the axis degrees of the
    reduced symbol, and a sample max has none (inf).

    Under either spec a product in disjoint variables is the product of its
    factors' norms (hankel.factored), each reduced and integrated on its own
    by the rules above, so only factors they leave are sampled; the split is
    found on s as given, since a lattice basis can skew a product's
    coordinates. The fit residual delta adds sum |delta_alpha|.

    Every |phi| is at most S = sum |c_alpha|, so no rule overflows while S
    is a double; a symbol whose S exceeds the double range is refused
    (DomainError) before any evaluation.
    """
    if s.is_zero:
        raise DomainError("hp_norm requires a nonzero symbol")
    if p != math.inf and not p >= 1:
        raise DomainError(f"p must be >= 1 or inf, got {p}")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs([c for _, c in s.terms()]).sum()):
            raise DomainError("the sum of the coefficient moduli, which bounds |phi|, exceeds the double range")
    if spec is None:
        spec = default_spec(s.dim)
    est = factored(s, lambda f: _grid_or_arc(f, p, spec), lambda delta: math.fsum(abs(c) for _, c in delta.terms()))
    return NormEstimate(est.value, est.method, est.error_bound, f"{est.metadata}, p={p}")


def _grid_or_arc(s: Symbol, p, spec: QuadratureSpec) -> NormEstimate:
    """||s||_p exactly, on the arcs, by sampling or on the tensor grid after reduction.

    At finite p a monomial is exact and a reduced rank r <= 1 up to degree
    _ARC_MAX_DEGREE takes the exact or the arc rule, reading no spec
    setting; a monte-carlo spec samples the rest (_mc_stat). Only the grid
    path checks its n points per dimension: DomainError for a reduced rank
    above 4, BudgetError for a grid above MAX_GRID_POINTS, DomainError for
    a spread the grid does not resolve at finite p, and BudgetError for a
    grid on T^1, held whole, above MAX_1D_GRID_POINTS, in that order. The
    metadata names the rule and "d=<d>[ reduced to r=<r>]".
    """
    dim = s.dim
    s = _reduce(s)
    rank = s.dim if len(s.support) > 1 else 0
    where = f"d={dim} reduced to r={rank}" if rank < dim else f"d={dim}"
    spread = _spread(s)
    if p != math.inf and rank == 0:
        return NormEstimate(abs(s.coeff(s.support[0])), "exact", 0.0, f"modulus of a monomial, {where}")
    if p != math.inf and s.dim == 1 and spread <= _ARC_MAX_DEGREE:
        coefs = _circle_coefs(s)
        found = _reciprocal_h1(coefs) if p == 1 else None
        if found is not None:
            value, err, arcs = found
            rule = f"self-reciprocal antiderivative on {arcs} arcs cut at the roots"
            return NormEstimate(value, "exact", err, f"{rule}, {where}")
        (coarse, fine), arcs = _arc_stat(coefs, p)
        rule = f"gauss-legendre {_ARC_NODES} refined to {2 * _ARC_NODES} nodes on {arcs} arcs cut at the roots"
        return NormEstimate(fine, "arc-quadrature", _refined(coarse, fine), f"{rule}, {where}")
    if spec.method == "monte-carlo":
        value, err = _mc_stat(s, spec, p)
        draws = f"philox seed={spec.seed} samples={spec.samples}"
        note = f"{draws}; 3 standard errors, first-order in the 1/p power"
        if p == math.inf:
            note = f"sample max (lower estimate); {draws}"
        return NormEstimate(value, "monte-carlo", err, f"{note}; {where}" if rank < dim else note)
    n = spec.points_per_dimension
    if rank > 4:
        raise DomainError(f"tensor-uniform is limited to rank <= 4, got rank {rank}; use monte-carlo")
    check_budget((2 * n) ** s.dim, MAX_GRID_POINTS, "tensor grid (MAX_GRID_POINTS)", "points")
    if p != math.inf and n <= spread:  # frequencies of |phi|^2 would alias onto 0
        raise DomainError(f"{n} points per dimension do not resolve the exponent spread {spread}")
    if s.dim == 1:  # a grid on T^1, held whole
        check_budget(2 * n, MAX_1D_GRID_POINTS, "one-dimensional grid (MAX_1D_GRID_POINTS)", "points")
    if p == math.inf:
        fine = _tensor_stat(s, 2 * n, p)
        cushion, note = _sup_cushion(s, 2 * n, fine)
        return NormEstimate(
            fine, "grid-quadrature", cushion, f"grid max on {2 * n}^{s.dim} (lower estimate); {note}, {where}"
        )
    coarse, fine = _tensor_stat(s, n, p), _tensor_stat(s, 2 * n, p)
    rule = f"tensor-uniform N={n} refined to {2 * n}"
    return NormEstimate(fine, "grid-quadrature", _refined(coarse, fine), f"{rule}, {where}")


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


def h1_norm_2hom(s: Symbol) -> NormEstimate:
    """H^1 norm of a homogeneous symbol in at most two active variables.

    Homogeneity makes |phi| a function of the difference of the two
    angles alone, so the symbol reduces to rank r <= 1 in any dimension;
    this is hp_norm at p=1 with 2^16 points per dimension. Up to degree
    _ARC_MAX_DEGREE no grid is read: the value is exact (rounding bound)
    for a self-reciprocal symbol, such as z1^2 + c z1 z2 + z2^2 with c
    real, and from the arc rule (refinement bound) otherwise. Above that
    degree the 2^16-point grid runs, with its budget and spread checks.
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
    return hp_norm(s, 1, QuadratureSpec(points_per_dimension=1 << 16))
