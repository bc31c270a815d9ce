"""Seeded inputs, op lists and reference checks for the benchmark workloads.

Every op is one whole CLI command. Its inputs are drawn from a
``random.Random`` seeded with (workload, seed, pass, op index), written to
files with the package's own ``format_symbol`` / ``format_recipe`` (which
round-trip exactly), and handed to the program by path only. The
reference each output is checked against is computed here, from the
drawn parameters, with closed forms or small numpy computations that share
no code with the package: products in disjoint variables factor, so norms
of large symbols reduce to norms of one- and two-variable pieces.

The op lists are fixed per workload; the seed changes coefficients, roots
and search parameters but not the sizes, so the cost of a pass does not
depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("hankel-dense", "torus-grid", "dual-search")

# The CLI's defaults, restated so that a changed default shows as a failed
# check rather than as a silently different workload.
CLI_TOL = 1e-9
PSI_GRID = 512
# Grid for the reference one-dimensional integrals and maxima.
REF_POINTS = 1 << 18
# Monte Carlo: the program states 3 sigma, and a 3-sigma gate fails 0.27%
# of correct estimates, which over the few hundred Monte Carlo ops of a
# benchmark campaign would fail correct code; the gate is 5 sigma. The
# share of the stated bound used is still recorded in tol_used_max.
MC_GATE = 5.0 / 3.0

C2_CLOSED = 5.0 * math.pi / (math.pi + 6.0 * math.sqrt(3.0))
SQRT6_OVER_PI = math.sqrt(6.0) / math.pi
PAIR_H1 = 2.0 * math.sqrt(2.0) / math.pi  # H^1 norm of (z1 + z2) / sqrt(2)


def set_broken_reference(broken: bool) -> None:
    """Corrupt one closed form (the Catalan-type C_2 constant) on purpose.

    Used by the self-test to prove that the checker can fail.
    """
    global C2_CLOSED
    C2_CLOSED = 5.0 * math.pi / (math.pi + 6.0 * math.sqrt(3.0)) * (1.01 if broken else 1.0)


# -- checking -----------------------------------------------------------------


class Checker:
    """Collects the outcome of every check made on one op's output."""

    def __init__(self):
        self.failures = []
        self.tol_used = 0.0

    def close(self, name, value, reference, tol, gate=1.0):
        """|value - reference| <= gate * tol; records the share of tol used."""
        diff = abs(value - reference)
        used = diff / tol if tol > 0 else (0.0 if diff == 0 else math.inf)
        if not used <= gate:  # also catches NaN
            self.failures.append(f"{name}: {value!r} vs reference {reference!r} (tol {tol:.3g} x {gate:g})")
        self.tol_used = max(self.tol_used, used) if used == used else math.inf

    def true(self, name, condition, detail=""):
        if not condition:
            self.failures.append(f"{name}: {detail}".rstrip(": "))


def _num(value):
    if isinstance(value, dict):
        return complex(value["re"], value["im"])
    if value == "inf":
        return math.inf
    return value


def _rows(payload):
    return {row["quantity"]: row for row in payload["reports"]}


@dataclass
class Op:
    """One CLI command with the check for its JSON output."""

    kind: str
    argv: list
    check: Callable = field(repr=False)
    expect_rc: int = 0


# -- seeded parameters ---------------------------------------------------------


def _cgauss(rng):
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def _factor(rng, m):
    """Ascending coefficients of c * prod (z - r_k), degree m.

    Every root lies at modulus 0.4-0.75 or 1.33-2.5, away from the unit
    circle, so |f|^p is smooth on the torus and a grid rule converges
    geometrically. Zeros close to the circle make the grid's refinement
    difference undershoot the true error (by 15x for a d=3 product on the
    default grid); those inputs are left out here, where the stated bound
    is the tolerance.
    """
    coeffs = [_cgauss(rng)]
    for _ in range(m):
        modulus = rng.uniform(0.4, 0.75) if rng.random() < 0.5 else rng.uniform(1.33, 2.5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        root = modulus * complex(math.cos(phase), math.sin(phase))
        coeffs = [a - root * b for a, b in zip([0j] + coeffs, coeffs + [0j])]
    return coeffs


def _index(dim, assignment):
    alpha = [0] * dim
    for var, exp in assignment:
        alpha[var] = exp
    return tuple(alpha)


def _expand(dim, factors):
    """Terms of a product of factors in disjoint variables.

    Each factor is a list of (assignment, coefficient) with assignment a
    tuple of (variable, exponent) pairs.
    """
    terms = []
    for combo in itertools.product(*factors):
        assignment = tuple(pair for part, _ in combo for pair in part)
        coeff = 1.0 + 0j
        for _, c in combo:
            coeff *= c
        terms.append((_index(dim, assignment), coeff))
    return terms


def _onevar_factor(var, coeffs):
    return [(((var, e),), c) for e, c in enumerate(coeffs)]


def _hom2_factor(var1, var2, coeffs):
    m = len(coeffs) - 1
    return [(((var1, j), (var2, m - j)), c) for j, c in enumerate(coeffs)]


# -- reference computations ------------------------------------------------------


def _sigma_max(matrix):
    return float(np.linalg.svd(matrix, compute_uv=False)[0]) if matrix.size else 0.0


def _hankel1_norm(coeffs):
    """Operator norm for a one-variable polynomial: an (m+1)^2 Hankel matrix."""
    m = len(coeffs) - 1
    c = np.conj(np.asarray(coeffs, dtype=complex))
    i, j = np.indices((m + 1, m + 1))
    return _sigma_max(np.where(i + j <= m, c[np.minimum(i + j, m)], 0))


def _hom2_blocks(coeffs):
    """Block norms k = 0..m of sum_j a_j z1^j z2^(m-j).

    Block k maps degree-k columns (b, k-b) to degree-(m-k) rows
    (g, m-k-g); the entry is conj(a_{b+g}), a Hankel matrix.
    """
    m = len(coeffs) - 1
    c = np.conj(np.asarray(coeffs, dtype=complex))
    out = []
    for k in range(m + 1):
        g, b = np.indices((m - k + 1, k + 1))
        out.append(_sigma_max(c[g + b]))
    return out


def _hom2_frobenius_sq(coeffs, k):
    m = len(coeffs) - 1
    a2 = np.abs(np.asarray(coeffs, dtype=complex)) ** 2
    g, b = np.indices((m - k + 1, k + 1))
    return float(a2[g + b].sum())


def _product_blocks(blocks1, blocks2):
    """Block norms of a product of homogeneous symbols in disjoint variables.

    Block k of f*g is the direct sum over k1 + k2 = k of B_k1(f) (x) B_k2(g),
    so its norm is the largest product of factor block norms.
    """
    m1, m2 = len(blocks1) - 1, len(blocks2) - 1
    return [
        max(blocks1[k1] * blocks2[k - k1] for k1 in range(max(0, k - m2), min(k, m1) + 1))
        for k in range(m1 + m2 + 1)
    ]


def _onevar_values(coeffs):
    grid = np.zeros(REF_POINTS, dtype=complex)
    grid[: len(coeffs)] = coeffs
    return np.abs(np.fft.ifft(grid) * REF_POINTS)


def _onevar_stat(coeffs, p):
    """||f||_p on the circle (the sup for p = inf) on a 2^18-point grid."""
    mags = _onevar_values(coeffs)
    if p == math.inf:
        return float(mags.max())
    return float(np.mean(mags**p)) ** (1.0 / p)


def _pair_hp(p):
    """||z1 + z2||_p on T^2: the mean of |2 cos(u/2)|^p, to the 1/p."""
    if p == math.inf:
        return 2.0
    mean = 2.0**p * math.gamma((p + 1.0) / 2.0) / (math.sqrt(math.pi) * math.gamma(p / 2.0 + 1.0))
    return mean ** (1.0 / p)


def _h2(coeffs):
    return math.sqrt(math.fsum(abs(c) ** 2 for c in coeffs))


# -- input files -----------------------------------------------------------------


class InputWriter:
    """Writes one pass's input files into a directory of its own."""

    def __init__(self, directory):
        from hankel_lab import Symbol, format_recipe, format_symbol

        self._symbol, self._format_symbol, self._format_recipe = Symbol, format_symbol, format_recipe
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._count = 0

    def _write(self, suffix, text):
        self._count += 1
        path = os.path.join(self.directory, f"in{self._count:03d}{suffix}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def symbol(self, dim, terms):
        return self._write(".sym", self._format_symbol(self._symbol(dim, terms)))

    def recipe(self, expr):
        return self._write(".recipe", self._format_recipe(expr))


# -- hankel-dense ------------------------------------------------------------------


def _op_check_full(rng, w, degs, dim):
    """check-minimal on a product of one-variable polynomials (not homogeneous).

    The active basis is the box prod(m_i + 1); the operator is a Kronecker
    product, so its norm is the product of the factor norms.
    """
    coeffs = [_factor(rng, m) for m in degs]
    path = w.symbol(dim, _expand(dim, [_onevar_factor(v, c) for v, c in enumerate(coeffs)]))
    opnorm = math.prod(_hankel1_norm(c) for c in coeffs)
    h2 = math.prod(_h2(c) for c in coeffs)

    def check(out, chk):
        rows = _rows(out)
        chk.true("path", rows["status"]["method"] == "full-matrix")
        chk.close("h2_norm", rows["h2_norm"]["value"], h2, 1e-12 * h2)
        chk.close("gap", rows["gap"]["value"], opnorm - h2, 1e-10 * opnorm)
        chk.true("status", rows["status"]["value"] == ("minimal" if opnorm - h2 <= CLI_TOL else "not-minimal"))

    return Op(f"check-minimal/full-{math.prod(m + 1 for m in degs)}", ["check-minimal", path], check)


def _op_check_hom(rng, w, degrees, dim):
    """check-minimal on a product of two-variable homogeneous polynomials."""
    coeffs = [[_cgauss(rng) for _ in range(m + 1)] for m in degrees]
    factors = [_hom2_factor(2 * i, 2 * i + 1, c) for i, c in enumerate(coeffs)]
    path = w.symbol(dim, _expand(dim, factors))
    blocks = _hom2_blocks(coeffs[0])
    for c in coeffs[1:]:
        blocks = _product_blocks(blocks, _hom2_blocks(c))
    h2 = math.prod(_h2(c) for c in coeffs)
    m = sum(degrees)
    decisive = blocks[1 : m // 2 + 1]

    def check(out, chk):
        rows = _rows(out)
        chk.true("path", rows["status"]["method"] == "homogeneous-blocks")
        chk.close("h2_norm", rows["h2_norm"]["value"], h2, 1e-12 * h2)
        for k, ref in enumerate(decisive, start=1):
            chk.close(f"block_norm_k={k}", rows[f"block_norm_k={k}"]["value"], ref, 1e-10 * blocks[0])
        gap = max(decisive) - h2
        chk.close("gap", rows["gap"]["value"], gap, 1e-10 * h2)
        chk.true("status", rows["status"]["value"] == ("minimal" if gap <= CLI_TOL else "not-minimal"))

    return Op(f"check-minimal/hom-{'x'.join(map(str, degrees))}", ["check-minimal", path], check)


# Recipe templates: a tree of ("sum"|"prod", children) with leaves given as
# tuples of exponents, one per fresh variable. Sizes are the active bases.
_RECIPES = (
    ("prod", [("sum", [(2,), (2,)])] * 4),  # 625, homogeneous of degree 8
    ("sum", [("prod", [("sum", [(2,), (2,)])] * 3), (3,), (1, 2)]),  # 133
    ("prod", [("sum", [(3,), (3,)]), ("sum", [(3,), (1, 2)]), ("sum", [(2,), (2,), (2,)])]),  # 441, homogeneous
    ("prod", [("sum", [(4,), (3,)]), ("sum", [(2,), (2,)]), ("sum", [(3,), (1,)]), ("sum", [(1,), (1,)])]),  # 600
    ("prod", [("sum", [(2,), (2,), (2,)]), ("sum", [(3,), (3,)]), ("sum", [(4,), (2, 2)])]),  # 637, homogeneous
    ("sum", [("prod", [("sum", [(2,), (2,)])] * 3), ("prod", [("sum", [(3,)])] * 3)]),  # 188
)


def _recipe_vars(node):
    if node[0] in ("sum", "prod"):
        return sum(_recipe_vars(child) for child in node[1])
    return len(node)


def _recipe_degree_set(node):
    if node[0] == "sum":
        return set().union(*(_recipe_degree_set(child) for child in node[1]))
    if node[0] == "prod":
        sets = [_recipe_degree_set(child) for child in node[1]]
        return {sum(combo) for combo in itertools.product(*sets)}
    return {sum(node)}


def _recipe_basis(node):
    if node[0] == "sum":
        return 1 + sum(_recipe_basis(child) - 1 for child in node[1])
    if node[0] == "prod":
        return math.prod(_recipe_basis(child) for child in node[1])
    return math.prod(e + 1 for e in node)


def _op_check_recipe(rng, w, template):
    """check-minimal --recipe: certified minimal, with a numeric gap below the cap."""
    from hankel_lab import RecipeLeaf, RecipeNode

    dim = _recipe_vars(template)
    fresh = itertools.count()

    def build(node):
        if node[0] in ("sum", "prod"):
            parts = [build(child) for child in node[1]]
            expr = RecipeNode(node[0], tuple(p for p, _ in parts))
            norms = [h for _, h in parts]
            h2 = math.sqrt(math.fsum(h * h for h in norms)) if node[0] == "sum" else math.prod(norms)
            return expr, h2
        coeff = _cgauss(rng)
        alpha = _index(dim, [(next(fresh), e) for e in node])
        return RecipeLeaf(coeff, alpha), abs(coeff)

    expr, h2 = build(template)
    path = w.recipe(expr)
    homogeneous = len(_recipe_degree_set(template)) == 1

    def check(out, chk):
        rows = _rows(out)
        chk.true("path", rows["status"]["method"] == ("homogeneous-blocks" if homogeneous else "full-matrix"))
        chk.true("status", rows["status"]["value"] == "minimal")
        chk.true("certified", "construction-certified" in rows["note"]["value"])
        chk.close("h2_norm", rows["h2_norm"]["value"], h2, 1e-12 * h2)
        # minimal norm: the gap is zero up to the SVD's rounding
        chk.close("gap", rows["gap"]["value"], 0.0, 1e-10 * h2)

    return Op(f"check-minimal/recipe-{_recipe_basis(template)}", ["check-minimal", path, "--recipe"], check)


def _op_blocks_dump(rng, w, m):
    """blocks --dump on a two-variable homogeneous polynomial of degree m."""
    dim = 2
    coeffs = [_cgauss(rng) for _ in range(m + 1)]
    path = w.symbol(dim, _expand(dim, [_hom2_factor(0, 1, coeffs)]))
    blocks = _hom2_blocks(coeffs)

    def check(out, chk):
        rows = _rows(out)
        scale = max(blocks)
        for k, ref in enumerate(blocks):
            row = rows[f"block_k={k}"]
            chk.close(f"block_k={k}", row["value"], ref, 1e-10 * scale)
            chk.true(f"shape_k={k}", row["shape"] == f"{m - k + 1}x{k + 1}", row["shape"])
            entries = np.asarray(row["matrix"], dtype=float)
            frob = float((entries**2).sum())
            ref_frob = _hom2_frobenius_sq(coeffs, k)
            chk.close(f"frobenius_k={k}", frob, ref_frob, 1e-12 * ref_frob)
        full = rows["operator_norm"]["value"]
        chk.close("operator_norm", full, scale, 1e-10 * scale)
        # the invariant: the largest block is the full operator norm
        chk.close("block_max", max(rows[f"block_k={k}"]["value"] for k in range(m + 1)), full, 1e-10 * full)

    return Op(f"blocks-dump/{m}", ["blocks", path, "--dump"], check)


def _op_cex(K):
    """cex --trunc K: closed-form H^2 norms and dual ratios, minimal at the end."""

    def check(out, chk):
        rows = _rows(out)
        for k in range(1, K + 1):
            ref = SQRT6_OVER_PI * math.sqrt(math.fsum(1.0 / j**2 for j in range(1, k + 1)))
            chk.close(f"h2_K={k}", rows[f"h2_K={k}"]["value"], ref, 1e-12 * ref)
        chk.true("classification", rows["classification"]["value"] == "minimal")
        chk.close("gap", rows["gap"]["value"], 0.0, CLI_TOL)
        for k in (1, 10, 100, 200):
            ref = SQRT6_OVER_PI / k * PAIR_H1 ** (-k)
            chk.close(f"dual_ratio_k={k}", rows[f"dual_ratio_k={k}_q=1"]["value"], ref, 1e-9 * ref)

    return Op(f"cex/{K}", ["cex", "--trunc", str(K)], check)


def _hankel_dense(rng_for, w, smoke):
    # Sizes are tiered so that the median op falls in the middle of the
    # seven 256-column checks and the tail (11th slowest) in the middle of
    # the seven 400-column checks, not on the edge between two kinds of op.
    specs = [
        lambda r: _op_cex(6),
        lambda r: _op_cex(5),
        lambda r: _op_check_full(r, w, [5, 5, 5, 4], 4),
        lambda r: _op_blocks_dump(r, w, 40),
        lambda r: _op_check_hom(r, w, (10, 9), 4),
    ]
    specs += [lambda r: _op_check_full(r, w, [4, 4, 4, 4], 4)]
    specs += [lambda r, t=t: _op_check_recipe(r, w, t) for t in _RECIPES]
    specs += [lambda r: _op_check_full(r, w, [4, 4, 3, 3], 4)] * 7
    specs += [lambda r: _op_check_hom(r, w, (8, 8), 4)] * 2
    specs += [lambda r: _op_check_full(r, w, [3, 3, 3, 3], 4)] * 7
    specs += [lambda r: _op_check_full(r, w, [4, 4, 3], 3)] * 4
    specs += [lambda r: _op_check_hom(r, w, (6, 6), 4)] * 2
    specs += [lambda r, m=m: _op_check_hom(r, w, (m,), 2) for m in (24, 32, 40)]
    specs += [lambda r: _op_blocks_dump(r, w, 20)] * 2
    if smoke:
        specs = [
            lambda r: _op_cex(4),
            lambda r: _op_check_full(r, w, [3, 3, 2], 4),
            lambda r: _op_check_recipe(r, w, _RECIPES[2]),
            lambda r: _op_check_hom(r, w, (4, 3), 5),
            lambda r: _op_blocks_dump(r, w, 8),
        ]
    return [spec(rng_for(i)) for i, spec in enumerate(specs)]


# -- torus-grid ------------------------------------------------------------------------


def _p_arg(p):
    return "inf" if p == math.inf else repr(p)


def _op_hp_factors(rng, w, degs, dim, p, grid=None, samples=None):
    """hp-norm of a product of one-variable polynomials: ||.||_p factors."""
    coeffs = [_factor(rng, m) for m in degs]
    path = w.symbol(dim, _expand(dim, [_onevar_factor(v, c) for v, c in enumerate(coeffs)]))
    h2 = math.prod(_h2(c) for c in coeffs)
    ref = h2 if p == 2 else math.prod(_onevar_stat(c, p) for c in coeffs)
    argv = ["hp-norm", path, _p_arg(p)]
    if grid is not None:
        argv += ["--grid", str(grid)]
    if samples is not None:
        argv += ["--samples", str(samples), "--seed", str(rng.randrange(1 << 30))]
    kind = f"hp-norm/{'mc' if samples else 'grid'}-d{dim}-p{_p_arg(p)}"
    return Op(kind, argv, _hp_check(p, ref, h2, samples is not None))


def _op_hp_pairs(rng, w, pairs, dim, p, grid=None):
    """hp-norm of c * prod (z_a + z_b): closed form |c| * ||z1 + z2||_p^pairs."""
    scale = _cgauss(rng)
    factors = [[(((2 * i, 1),), 1.0), (((2 * i + 1, 1),), 1.0)] for i in range(pairs)]
    factors[0] = [(a, c * scale) for a, c in factors[0]]
    path = w.symbol(dim, _expand(dim, factors))
    ref = abs(scale) * _pair_hp(p) ** pairs
    h2 = abs(scale) * math.sqrt(2.0) ** pairs
    argv = ["hp-norm", path, _p_arg(p)] + (["--grid", str(grid)] if grid is not None else [])
    grid_tag = grid if grid is not None else "default"
    return Op(f"hp-norm/pairs-d{dim}-p{_p_arg(p)}-g{grid_tag}", argv, _hp_check(p, ref, h2, False))


def _hp_check(p, ref, h2, monte_carlo):
    def check(out, chk):
        row = _rows(out)["hp_norm"]
        value, bound = row["value"], _num(row["error_bound"])
        if p == math.inf:
            # a grid or sample max never exceeds the sup; a grid max plus its
            # Bernstein cushion never falls below it
            chk.true("sup_lower", value <= ref * (1.0 + 1e-8), f"{value!r} > sup {ref!r}")
            chk.true("sup_upper", value + bound >= ref * (1.0 - 1e-8), f"{value!r} + {bound!r} < sup {ref!r}")
            chk.true("sup_vs_h2", value + bound >= h2 * (1.0 - 1e-12))
        elif monte_carlo:
            chk.close("hp_norm", value, ref, bound + 1e-12 * ref, MC_GATE)
        else:
            chk.close("hp_norm", value, ref, bound + 1e-12 * (1.0 + ref))

    return check


def _op_norm(rng, w, degs, dim):
    """norm: Parseval h2, the factored operator norm, and h2 <= ||H|| <= sup."""
    coeffs = [_factor(rng, m) for m in degs]
    path = w.symbol(dim, _expand(dim, [_onevar_factor(v, c) for v, c in enumerate(coeffs)]))
    h2 = math.prod(_h2(c) for c in coeffs)
    opnorm = math.prod(_hankel1_norm(c) for c in coeffs)
    sup = math.prod(_onevar_stat(c, math.inf) for c in coeffs)

    def check(out, chk):
        rows = _rows(out)
        chk.close("h2_norm", rows["h2_norm"]["value"], h2, 1e-12 * h2)
        chk.close("operator_norm", rows["operator_norm"]["value"], opnorm, 1e-10 * opnorm)
        sup_value, cushion = rows["sup_estimate"]["value"], _num(rows["sup_estimate"]["error_bound"])
        chk.true("sup_lower", sup_value <= sup * (1.0 + 1e-8))
        chk.true("sandwich", h2 <= opnorm * (1.0 + 1e-12) and opnorm <= (sup_value + cushion) * (1.0 + 1e-12))

    return Op(f"norm/d{dim}", ["norm", path], check)


def _op_psi(K):
    """psi: grid max against pi/2 within the envelope N / (2 pi K) it reports."""
    envelope = PSI_GRID / (2.0 * math.pi * K)
    terms = min(K, 10**5)
    origin = math.fsum((-1.0) ** k / (1.0 - 2.0 * k) for k in range(-terms, terms + 1))

    def check(out, chk):
        rows = _rows(out)
        chk.close("envelope", _num(rows["sup_gridmax"]["error_bound"]), envelope, 1e-12 * envelope)
        chk.close("sup_gridmax", rows["sup_gridmax"]["value"], math.pi / 2.0, envelope)
        chk.true("projection", rows["projection"]["value"] == "1*z1 + 1*z2", rows["projection"]["value"])
        chk.close("origin_value", abs(_num(rows["origin_value"]["value"]) - origin), 0.0, 1e-9)

    return Op(f"psi/{K}", ["psi", "--trunc", str(K)], check)


def _torus_grid(rng_for, w, smoke):
    # Tiered like hankel-dense: eight heavy ops, then the five d=3 grids
    # (the 11th slowest sits in their middle), then four d=4 16-point grids
    # (the median sits among them), then d <= 2.
    inf = math.inf
    specs = [lambda r: _op_hp_pairs(r, w, 2, 4, 1.0)]  # default grid: 128^4 points, sliced
    specs += [lambda r, p=p: _op_hp_factors(r, w, [6], 1, p) for p in (1.0, 2.0, 3.5, inf)]
    specs += [lambda r, p=p: _op_hp_factors(r, w, [3, 4], 2, p) for p in (1.0, 2.0, 3.5, inf)]
    specs += [lambda r, p=p: _op_hp_pairs(r, w, 1, 2, p) for p in (1.0, 3.5)]
    specs += [lambda r, p=p: _op_hp_factors(r, w, [2, 3, 2], 3, p) for p in (1.0, 2.0, 3.5, inf)]
    specs += [lambda r, p=p: _op_hp_pairs(r, w, 2, 4, p, grid=16) for p in (1.0, 2.0, 3.5, inf)]  # 32^4, whole
    specs += [lambda r, p=p: _op_hp_factors(r, w, [2, 2, 1, 1], 4, p, grid=32) for p in (2.0, 3.5, inf)]  # 64^4, sliced
    specs += [
        lambda r, d=d, p=p: _op_hp_factors(r, w, [1, 2, 1], d, p, samples=100_000)
        for d, p in ((6, 1.0), (7, 2.0), (8, 3.5))
    ]
    specs += [lambda r, d=d: _op_norm(r, w, d, len(d)) for d in ([3, 4], [2, 3, 2], [5, 2])]
    specs += [lambda r: _op_psi(10**4)]
    if smoke:
        specs = [
            lambda r: _op_hp_pairs(r, w, 2, 4, 1.0, grid=8),
            lambda r: _op_hp_pairs(r, w, 2, 4, inf, grid=32),
            lambda r: _op_hp_factors(r, w, [3, 4], 2, 2.0),
            lambda r: _op_hp_factors(r, w, [1, 2, 1], 6, 1.0, samples=2000),
            lambda r: _op_norm(r, w, [3, 4], 2),
            lambda r: _op_psi(100),
        ]
    return [spec(rng_for(i)) for i, spec in enumerate(specs)]


# -- dual-search ---------------------------------------------------------------------------


def _op_search(a):
    """nehari-search --a: the tuned bound is self-consistent and beats c = 1."""
    hankel = math.sqrt(2.0 + a * a)  # minimal norm for 0 <= a <= 1/2
    # on the torus |z1^2 + c z1 z2 + z2^2| = |1 + c w + w^2| with w = e^{i(t2 - t1)}
    at_one = abs(2.0 + a) / (hankel * _onevar_stat([1.0, 1.0, 1.0], 1.0))

    def check(out, chk):
        rows = _rows(out)
        c = rows["best_c"]["value"]
        pairing = _num(rows["pairing"]["value"])
        h1_row = rows["h1_norm"]
        h1_ref = _onevar_stat([1.0, c, 1.0], 1.0)
        chk.close("pairing", abs(pairing - (2.0 + a * c)), 0.0, 1e-12 * abs(pairing))
        chk.close("hankel_norm", rows["hankel_norm"]["value"], hankel, 1e-12 * hankel)
        chk.close("h1_norm", h1_row["value"], h1_ref, h1_row["error_bound"] + 1e-9 * h1_ref)
        # the bound is the ratio of the reported parts
        bound = rows["bound_value"]["value"]
        ref = abs(2.0 + a * c) / (hankel * h1_row["value"])
        chk.close("bound_value", bound, ref, 1e-11 * ref)
        chk.true("beats_c=1", bound >= at_one - 1e-9, f"{bound!r} < {at_one!r}")
        if a == 0.5:
            chk.true("c2_closed_form", bound >= C2_CLOSED - 1e-5, f"{bound!r} < {C2_CLOSED!r} - 1e-5")

    return Op(f"nehari-search/{a:.3g}", ["nehari-search", "--a", repr(a)], check)


def _op_bound_pair(rng, w, grid):
    """nehari-bound f phi on random quadratics in two variables.

    f = sum_j a_j z1^j z2^(2-j) has |f| = |sum_j a_j w^j| on the torus, so
    its H^1 norm is a circle mean.
    """
    a = _factor(rng, 2)
    b = [_cgauss(rng) for _ in range(3)]
    f_path = w.symbol(2, _expand(2, [_hom2_factor(0, 1, a)]))
    phi_path = w.symbol(2, _expand(2, [_hom2_factor(0, 1, b)]))
    pairing = sum(x * y.conjugate() for x, y in zip(a, b))
    hankel = max(_hom2_blocks(b))
    h1 = _onevar_stat(a, 1.0)

    def check(out, chk):
        rows = _rows(out)
        chk.close("pairing", abs(_num(rows["pairing"]["value"]) - pairing), 0.0, 1e-12 * abs(pairing))
        chk.close("hankel_norm", rows["hankel_norm"]["value"], hankel, 1e-10 * hankel)
        row = rows["h1_norm"]
        chk.close("h1_norm", row["value"], h1, row["error_bound"] + 1e-12 * (1.0 + h1))
        # the bound is the ratio of the reported parts
        ref = abs(pairing) / (hankel * row["value"])
        chk.close("bound_value", rows["bound_value"]["value"], ref, 1e-11 * ref)

    return Op(f"nehari-bound/pair-g{grid}", ["nehari-bound", f_path, phi_path, "--grid", str(grid)], check)


def _op_bound_d(d):
    def check(out, chk):
        rows = _rows(out)
        quad, pairsum = C2_CLOSED ** (d / 2), (math.pi**2 / 8.0) ** (d / 4)
        chk.close("quadratic", rows["quadratic_witness_lower"]["value"], quad, 1e-12 * quad)
        chk.close("pairsum", rows["pairsum_witness_lower"]["value"], pairsum, 1e-12 * pairsum)

    return Op(f"nehari-bound/d{d}", ["nehari-bound", "--d", str(d)], check)


# Rows of `reproduce` whose reference the harness restates independently.
_REPRODUCE_REFS = {
    "pairsum_h2": lambda: math.sqrt(2.0),
    "pair_product_opnorm_d=1": lambda: math.sqrt(2.0),
    "pair_product_opnorm_d=2": lambda: 2.0,
    "pair_product_opnorm_d=3": lambda: 2.0**1.5,
    "c2_dual_bound": lambda: C2_CLOSED,
    "c2_lower_closed": lambda: C2_CLOSED,
    "pairsum_dual_bound": lambda: math.pi / (2.0 * math.sqrt(2.0)),
    "witness_h1": lambda: 1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi,
    "hq_norm_q1": lambda: PAIR_H1,
    "cex_h2_K3": lambda: SQRT6_OVER_PI * math.sqrt(1.0 + 0.25 + 1.0 / 9.0),
}


def _op_reproduce():
    """reproduce is known-red: exit 1, every row pass but psi_sup_gridmax.

    That row is checked against pi/2 within the envelope N/(2 pi K) that
    psi reports at the same K = 10^4, N = 512.
    """
    envelope = PSI_GRID / (2.0 * math.pi * 10**4)

    def check(out, chk):
        rows = _rows(out)
        for name, row in rows.items():
            computed, reference, tol = row["computed"], row["reference"], row["tol"]
            if name == "psi_sup_gridmax":
                chk.true("psi_known_red", row["status"] == "FAIL")
                chk.close(name, computed, math.pi / 2.0, envelope)
                continue
            chk.true(f"{name}_status", row["status"] == "pass", row["status"])
            chk.close(name, computed, reference, tol)
            if name in _REPRODUCE_REFS:
                ref = _REPRODUCE_REFS[name]()
                chk.close(f"{name}_reference", reference, ref, 1e-12 * abs(ref))
        chk.true("rows", len(rows) >= 20 and "psi_sup_gridmax" in rows, f"{len(rows)} rows")

    return Op("reproduce", ["reproduce"], check, expect_rc=1)


def _dual_search(rng_for, w, smoke):
    specs = [lambda r: _op_search(0.5)]
    specs += [lambda r: _op_search(round(r.uniform(0.1, 0.5), 6))] * 2
    specs += [lambda r: _op_reproduce()]
    # the median and the 11th slowest op both fall among the grid-1024 bounds
    specs += [lambda r: _op_bound_pair(r, w, 1024)] * 14
    specs += [lambda r: _op_bound_d(2 * r.randint(1, 6))] * 10
    if smoke:
        specs = [
            lambda r: _op_bound_pair(r, w, 64),
            lambda r: _op_bound_d(4),
            lambda r: _op_reproduce(),
        ]
    return [spec(rng_for(i)) for i, spec in enumerate(specs)]


_BUILDERS = {"hankel-dense": _hankel_dense, "torus-grid": _torus_grid, "dual-search": _dual_search}


def build_pass(workload, seed, pass_index, directory, smoke=False):
    """The op list of one pass, with its input files written to directory.

    The order is a fixed shuffle, the same for every seed: the machine's
    speed drifts over seconds, and ops of one kind run back to back would
    all see the same drift, which then moves the median and tail together.
    """
    writer = InputWriter(directory)

    def rng_for(i):
        return random.Random(f"{workload}:{seed}:{pass_index}:{i}")

    ops = _BUILDERS[workload](rng_for, writer, smoke)
    random.Random(workload).shuffle(ops)
    return ops


def tail_percentile(ops_per_pass):
    """Highest whole percentile with at least ten of one pass's ops beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / ops_per_pass)))
