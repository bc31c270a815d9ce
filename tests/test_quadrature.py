import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from hankel_lab import (
    MAX_1D_GRID_POINTS,
    MAX_SAMPLES,
    BudgetError,
    DomainError,
    QuadratureSpec,
    build_recipe,
    default_spec,
    h1_norm_2hom,
    hp_norm,
    hq_inverse_intermediate,
    hq_inverse_lower,
    hq_norm_basic,
    make_symbol,
    operator_norm,
    parse_recipe,
    split_factors,
)
from hankel_lab.quadrature import (
    _EPS,
    _MC_CHUNK,
    _TURNS,
    _arc_stat,
    _circle_coefs,
    _mc_stat,
    _reciprocal_h1,
    _reduce,
    _sup_cushion,
    _tensor_stat,
    _turn_phasors,
)
from helpers import (
    RECIPE_PRODUCT,
    circle_factor,
    embedded_product,
    grid_max_abs,
    grid_mean_abs_pow,
    hom2_product,
    one_variable_product,
    pair_product,
    permuted_product,
    perturbed,
    phi2,
    random_symbol,
    z,
)

H1_QUADRATIC = 1 / 3 + 2 * math.sqrt(3) / math.pi  # (1/2pi) int |1 + 2 cos u| du


def hq_gamma_oracle(q):
    """Independent closed form via the cosine moment integral."""
    moment = (math.sqrt(math.pi) / 2) * gamma((q + 1) / 2) / gamma(q / 2 + 1)
    return (math.sqrt(2) ** q * (2 / math.pi) * moment) ** (1 / q)


class TestSpec:
    def test_defaults(self):
        assert default_spec(2).points_per_dimension == 256
        assert default_spec(3).points_per_dimension == 64

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(points_per_dimension=2)
        with pytest.raises(DomainError):
            QuadratureSpec(method="simpson")
        with pytest.raises(DomainError):
            QuadratureSpec(method="monte-carlo", samples=10)
        assert QuadratureSpec(method="monte-carlo", samples=MAX_SAMPLES).samples == MAX_SAMPLES
        with pytest.raises(BudgetError, match="MAX_SAMPLES"):
            QuadratureSpec(method="monte-carlo", samples=MAX_SAMPLES + 1)


class TestOneDimensionalGridBudget:
    """A grid on T^1 is one array, so its refined points are held to MAX_1D_GRID_POINTS before any is built."""

    OVER = QuadratureSpec(points_per_dimension=MAX_1D_GRID_POINTS // 2 + 1)
    W = make_symbol(1, [((0,), 1.0), ((1,), 1.0)])

    @pytest.mark.parametrize(
        "s, p",
        [
            (W, math.inf),  # the grid max
            (make_symbol(1, [((3,), 2.0)]), math.inf),  # a monomial's grid max
            (make_symbol(2, [((3, 0), 1.0), ((0, 3), 1.0)]), math.inf),  # reduces to 1 + w
            (make_symbol(1, [((0,), 1.0), ((1,), 1.0), ((65,), 1.0)]), 1),  # above _ARC_MAX_DEGREE
        ],
        ids=["one-plus-w", "monomial", "reduced", "high-degree"],
    )
    def test_grid_paths_are_refused(self, s, p):
        with pytest.raises(BudgetError, match=r"one-dimensional grid \(MAX_1D_GRID_POINTS\)"):
            hp_norm(s, p, self.OVER)

    @pytest.mark.parametrize("p, method", [(1, "exact"), (2, "arc-quadrature"), (3.5, "arc-quadrature")])
    def test_arc_and_exact_paths_evaluate_no_grid(self, p, method):
        assert hp_norm(self.W, p, self.OVER).method == method
        assert hp_norm(make_symbol(1, [((3,), 2.0)]), p, self.OVER).value == 2.0


class TestGridChecksOnlyOnTheGrid:
    """The monomial, exact and arc rules read no grid; the grid path keeps its checks and their order."""

    @pytest.mark.parametrize(
        "s, p, method",
        [
            (make_symbol(3, [((2, 5, 1), -0.5j)]), 2, "exact"),  # a monomial
            (phi2(1.0), 1, "exact"),  # self-reciprocal
            (make_symbol(1, [((0,), 1.0), ((1,), 0.5)]), 1, "arc-quadrature"),
            (make_symbol(1, [((0,), 1.0), ((1,), 1.0), ((10,), 1.0)]), 2, "arc-quadrature"),  # spread 10
            (make_symbol(1, [((0,), 1.0), ((1,), 1.0), ((64,), 1.0)]), 3.5, "arc-quadrature"),  # _ARC_MAX_DEGREE
            (one_variable_product(np.random.default_rng(429), [2, 5]), 1, "arc-quadrature"),  # factored
        ],
        ids=["monomial", "exact", "arc", "arc-spread-10", "arc-degree-64", "factored-arcs"],
    )
    def test_gridless_rules_ignore_the_grid(self, s, p, method):
        start = time.perf_counter()
        estimates = [hp_norm(s, p, QuadratureSpec(points_per_dimension=n)) for n in (4, 256, 10**10)]
        assert time.perf_counter() - start < 1.0
        assert estimates[0].method == method
        assert estimates[1:] == estimates[:-1]

    GRID = "tensor grid (MAX_GRID_POINTS) exceeds the budget of 268435456 points"

    @pytest.mark.parametrize(
        "s, p, n, message",
        [
            # rank first: rank 5 at a grid over MAX_GRID_POINTS
            (
                make_symbol(5, [((0,) * 5, 1.0)] + [(tuple(int(i == j) for i in range(5)), 1.0) for j in range(5)]),
                1, 10**10, "tensor-uniform is limited to rank <= 4, got rank 5; use monte-carlo",
            ),
            (make_symbol(2, [((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)]), 1, 10**10, GRID),  # rank 2
            # MAX_GRID_POINTS before the spread: 200^4 points, spread 200 at N = 100
            (
                make_symbol(4, [((0,) * 4, 1.0), ((200, 0, 0, 0), 1.0), ((0, 1, 0, 0), 1.0),
                                ((0, 0, 1, 0), 1.0), ((0, 0, 0, 1), 1.0), ((1, 0, 0, 0), 1.0)]),
                1, 100, GRID,
            ),
            # spread 100, above _ARC_MAX_DEGREE, at N = 100
            (make_symbol(1, [((0,), 1.0), ((1,), 1.0), ((100,), 1.0)]), 2, 100,
             "100 points per dimension do not resolve the exponent spread 100"),
            # the spread before MAX_1D_GRID_POINTS (TestOneDimensionalGridBudget): 2N = 2 * 10^8 is over it
            (make_symbol(1, [((0,), 1.0), ((1,), 1.0), ((10**23,), 1.0)]), 1, 10**8,
             "100000000 points per dimension do not resolve the exponent spread 100000000000000000000000"),
        ],
        ids=["rank", "budget", "budget-before-spread", "spread", "spread-before-line"],
    )
    def test_grid_path_keeps_its_refusals(self, s, p, n, message):
        start = time.perf_counter()
        with pytest.raises(DomainError) as err:
            hp_norm(s, p, QuadratureSpec(points_per_dimension=n))
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == message


class TestHpNorm:
    def test_p2_matches_parseval(self):
        rng = np.random.default_rng(101)
        for dim in (1, 2, 3):
            for _ in range(5):
                s = random_symbol(rng, dim, max_degree=4)
                est = hp_norm(s, 2, QuadratureSpec(points_per_dimension=64))
                assert abs(est.value - s.h2_norm()) <= est.error_bound

    def test_p1_pair_sum(self):
        est = hp_norm(z(2, 0) + z(2, 1), 1, QuadratureSpec(points_per_dimension=1024))
        assert est.value == pytest.approx(4 / math.pi, abs=1e-6)
        assert abs(est.value - 4 / math.pi) <= est.error_bound

    def test_p1_quadratic_witness(self):
        f = phi2(1.0)
        est = hp_norm(f, 1, QuadratureSpec(points_per_dimension=1024))
        assert est.value == pytest.approx(H1_QUADRATIC, abs=1e-6)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            s = random_symbol(rng, 2, max_degree=3)
            spec = QuadratureSpec(points_per_dimension=64)
            values = [hp_norm(s, p, spec) for p in (1, 1.5, 2, 3)]
            for lo, hi in zip(values, values[1:]):
                assert lo.value <= hi.value + lo.error_bound + hi.error_bound
            sup = hp_norm(s, math.inf, spec)
            assert values[-1].value <= sup.value + values[-1].error_bound + sup.error_bound

    def test_sup_cushion_dominates_operator_norm(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            s = random_symbol(rng, 2, max_degree=3)
            est = hp_norm(s, math.inf, QuadratureSpec(points_per_dimension=256))
            assert operator_norm(s).value <= est.value + est.error_bound + 1e-10

    def test_tensor_dimension_limit(self):
        # the limit is on the reduced rank: 1 + z1 + ... + z5 has rank 5
        full = make_symbol(5, [((0,) * 5, 1.0)] + [(tuple(int(i == j) for i in range(5)), 1.0) for j in range(5)])
        with pytest.raises(DomainError, match="rank <= 4"):
            hp_norm(full, 2, QuadratureSpec())
        # z1 + z5 in d=5 has rank 1 and is gridded, exactly at p=2
        s = make_symbol(5, [((1, 0, 0, 0, 0), 1.0), ((0, 0, 0, 0, 1), 1.0)])
        grid = hp_norm(s, 2, QuadratureSpec())
        assert abs(grid.value - s.h2_norm()) <= grid.error_bound
        assert "d=5 reduced to r=1" in grid.metadata
        est = hp_norm(s, 2, QuadratureSpec(method="monte-carlo", seed=7, samples=200_000))
        assert est.value == pytest.approx(s.h2_norm(), abs=3 * est.error_bound + 1e-2)
        assert "d=5 reduced to r=1" in est.metadata

    def test_monte_carlo_deterministic(self):
        s = make_symbol(2, [((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)])  # 1 + z1 + z2, rank 2: sampled
        spec = QuadratureSpec(method="monte-carlo", seed=42, samples=50_000)
        first = hp_norm(s, 1, spec)
        second = hp_norm(s, 1, spec)
        assert first.value == second.value
        other = hp_norm(s, 1, QuadratureSpec(method="monte-carlo", seed=43, samples=50_000))
        assert other.value != first.value
        assert "seed=42" in first.metadata

    def test_monte_carlo_sup_has_no_upper_bound(self):
        # a sample max is only a lower estimate of the sup, 2 here
        est = hp_norm(z(2, 0) + z(2, 1), math.inf, QuadratureSpec(method="monte-carlo", seed=1, samples=20_000))
        assert est.method == "monte-carlo" and est.error_bound == math.inf
        assert est.metadata == "sample max (lower estimate); philox seed=1 samples=20000; d=2 reduced to r=1, p=inf"
        assert 1.99 < est.value <= 2.0 + 1e-15

    def test_monte_carlo_memory_bounded_by_terms(self):
        import tracemalloc

        # the 120 lowest exponents in d=8 (1, the z_j, ...) span the full lattice
        exponents = sorted((a for a in np.ndindex(*(4,) * 8) if sum(a) <= 3), key=lambda a: (sum(a), a))[:120]
        rng = np.random.default_rng(151)
        wide = make_symbol(8, [(a, complex(*rng.uniform(-1, 1, size=2))) for a in exponents])
        assert len(wide.support) == 120 and _reduce(wide) == wide
        # 1000 of the 6^6 exponents below 6 in d=6
        picked = rng.choice(6**6, size=1000, replace=False)
        many = make_symbol(6, [(tuple(map(int, np.unravel_index(i, (6,) * 6))), complex(*rng.normal(size=2))) for i in picked])
        assert len(many.support) == 1000 and _reduce(many) == many
        for s in (wide, many):
            tracemalloc.start()
            try:
                est = hp_norm(s, 2, QuadratureSpec(method="monte-carlo", seed=5, samples=20_000))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 48e6
            assert abs(est.value - s.h2_norm()) <= est.error_bound

    def test_zero_and_bad_p(self):
        from hankel_lab import Symbol

        with pytest.raises(DomainError):
            hp_norm(Symbol.zero(2), 2, QuadratureSpec())
        with pytest.raises(DomainError):
            hp_norm(z(1, 0), 0.5, QuadratureSpec())

    def test_big_grid_slicing_consistent(self):
        # force the sliced evaluation path and compare with the direct path
        rng = np.random.default_rng(109)
        s = random_symbol(rng, 4, max_degree=2, n_terms=3)
        # the slices differ only through the first-axis exponents
        mixed = make_symbol(
            4, [((1, 0, 2, 0), 1.0), ((0, 1, 0, 1), 0.5j), ((3, 0, 0, 0), -0.7), ((0, 0, 0, 0), 0.3)]
        )
        import hankel_lab.quadrature as quad

        for sym in (s, mixed):
            for p in (1, 3.5, math.inf):
                direct = _tensor_stat(sym, 12, p)
                old = quad._FULL_GRID_LIMIT
                try:
                    quad._FULL_GRID_LIMIT = 1
                    sliced = _tensor_stat(sym, 12, p)
                finally:
                    quad._FULL_GRID_LIMIT = old
                assert sliced == pytest.approx(direct, rel=1e-12)

    def test_under_resolved_grid_raises(self):
        # 1 + z1 + z2 + z2^10 (rank 2, so on the grid) needs more than 10 points
        # per dimension; at 11 p=2 is exact
        s = make_symbol(2, [((0, 10), 1.0), ((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), 1.0)])
        with pytest.raises(DomainError):
            hp_norm(s, 2, QuadratureSpec(points_per_dimension=10))
        est = hp_norm(s, 2, QuadratureSpec(points_per_dimension=11))
        assert est.method == "grid-quadrature"
        assert est.value == pytest.approx(2.0, abs=1e-14)
        # every grid point aliases z1^(10**23) to 1, so p = 1 and 2 would read 2.5
        huge = make_symbol(1, [((10**23,), 1.0), ((1,), 1.0), ((0,), 0.5)])
        for p in (1, 2):
            with pytest.raises(DomainError):
                hp_norm(huge, p, QuadratureSpec())

    def test_huge_exponent_sup_has_infinite_cushion(self):
        # the fold must not squeeze exponents through int64
        huge = make_symbol(1, [((10**23,), 1.0), ((1,), 1.0), ((0,), 0.5)])
        est = hp_norm(huge, math.inf, QuadratureSpec())
        assert est.value == 2.5
        assert est.error_bound == math.inf


def circle_polynomial(coefs):
    """sum_k coefs[k] w^k as a symbol on T^1."""
    return make_symbol(1, [((k,), complex(c)) for k, c in enumerate(coefs)])


def fft_circle_abs(coefs, n=1 << 20):
    """|P| at the n-th roots of unity, for an independent trapezoid-rule reference."""
    return np.abs(np.fft.ifft(np.asarray(coefs, dtype=complex), n) * n)


class TestArcQuadrature:
    def test_quadratic_witness_to_rounding(self):
        est = hp_norm(phi2(1.0), 1)  # z1^2 + z1 z2 + z2^2, self-reciprocal
        assert est.method == "exact"
        assert abs(est.value - H1_QUADRATIC) <= 1e-14
        assert est.error_bound <= 1e-13
        assert "d=2 reduced to r=1" in est.metadata

    def test_roots_near_the_circle_match_fft_reference(self):
        rng = np.random.default_rng(157)
        for degree in range(1, 7):
            for modulus in (0.9, 0.99, 0.999, 1.001, 1.01, 1.1):
                roots = modulus * np.exp(2j * np.pi * rng.uniform(size=degree))
                coefs = np.poly(roots)[::-1] * complex(*rng.normal(size=2))
                s, mags = circle_polynomial(coefs), fft_circle_abs(coefs)
                for p in (1, 1.5, 2, 3.5):
                    est = hp_norm(s, p)
                    assert est.method == "arc-quadrature"
                    assert abs(est.value - float(np.mean(mags**p)) ** (1 / p)) <= est.error_bound

    def test_rank1_symbols_match_grid_within_refinement_bound(self):
        rng = np.random.default_rng(163)
        every_p = {1, 2, 3.5}
        symbols = [  # symbol, the p at which it is integrated exactly
            (z(2, 0) + z(2, 1), {1}),  # self-reciprocal
            (phi2(1.0), {1}),
            (phi2(0.5), {1}),
            (make_symbol(1, [((10,), 1.0), ((0,), 1.0)]), {1}),
            (make_symbol(2, [((3, 0), 1.0), ((0, 3), 2.0)]), set()),
            (make_symbol(2, [((1, 1), 1.0)]), every_p),  # a monomial: rank 0
        ]
        randoms = [s for s in (rank_deficient(rng, 3) for _ in range(40)) if _reduce(s).dim == 1][:8]
        symbols += [(s, every_p if len(s.support) == 1 else set()) for s in randoms]
        n = 1024
        for s, exact in symbols:
            reduced = _reduce(s)
            for p in every_p:
                est = hp_norm(s, p, QuadratureSpec(points_per_dimension=n))
                assert est.method == ("exact" if p in exact else "arc-quadrature")
                fine = _tensor_stat(reduced, 2 * n, p)
                grid_bound = abs(fine - _tensor_stat(reduced, n, p)) + 32 * _EPS * (1 + fine)
                assert abs(est.value - fine) <= grid_bound + est.error_bound

    def test_negligible_leading_coefficient(self):
        # the roots of 1 + 1e-320 w^2 lie near 1e160, beyond a finite companion matrix
        est = hp_norm(make_symbol(1, [((0,), 1.0), ((2,), 1e-320)]), 1)
        assert abs(est.value - 1.0) <= est.error_bound

    def test_grid_beyond_arc_degree(self):
        # degree 65 > _ARC_MAX_DEGREE stays on the grid; p = inf always does
        s = make_symbol(1, [((65,), 1.0), ((1,), 1.0), ((0,), 1.0)])
        est = hp_norm(s, 2, QuadratureSpec(points_per_dimension=128))
        assert est.method == "grid-quadrature" and est.value == pytest.approx(math.sqrt(3), abs=1e-14)
        assert hp_norm(z(2, 0) + z(2, 1), math.inf).method == "grid-quadrature"


def trinomial_h1(c):
    """||1 + c w + w^2||_1 for real c: the mean of |c + 2 cos t|, integrated by hand."""
    if abs(c) > 2:
        return abs(c)
    return (2 * c * math.acos(-c / 2) + 2 * math.sqrt(4 - c * c)) / math.pi - c


def binomial_power_h1(m):
    """||(1 + w)^m||_1 = 2^m times the mean of |cos|^m (Wallis)."""
    return 2**m * math.gamma((m + 1) / 2) / (math.sqrt(math.pi) * math.gamma(m / 2 + 1))


def arc_rule(s, p=1):
    """The arc rule's value and bound on s, as hp_norm reports them for a symbol that is not self-reciprocal."""
    (coarse, fine), _ = _arc_stat(_circle_coefs(_reduce(s)), p)
    return fine, abs(fine - coarse) + 32 * _EPS * (1 + fine)


M6_F = [1, -0.82439, 0.66883, -0.67071, 0.66883, -0.82439, 1]  # a symmetric degree-6 test function


class TestArcLargeP:
    ONE_PLUS_W = make_symbol(1, [((0,), 1.0), ((1,), 1.0)])
    HALF_W = make_symbol(1, [((0,), 1.0), ((1,), 0.5)])

    @pytest.mark.parametrize("p", [2000, 10**4, 10**6])
    def test_binomial_reference(self, p):
        # ||1 + w||_p^p = binom(p, p/2) for even p; |1 + w|^p overflows a double near p = 1024
        reference = math.exp((math.lgamma(p + 1) - 2 * math.lgamma(p / 2 + 1)) / p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = hp_norm(self.ONE_PLUS_W, p)
        assert est.method == "arc-quadrature"
        assert abs(est.value - reference) <= est.error_bound + 1e-9 * reference

    def test_zero_free_symbol_at_huge_p(self):
        # no zero on the circle: the trapezoid rule of log-scaled |1 + w/2|^p converges
        # geometrically, and 2^16 points resolve the peak's width of about 1e-3
        p = 10**6
        logs = p * np.log(fft_circle_abs([1.0, 0.5], 1 << 16))
        top = logs.max()
        reference = math.exp((top + math.log(float(np.mean(np.exp(logs - top))))) / p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = hp_norm(self.HALF_W, p)
        assert abs(est.value - reference) <= est.error_bound + 1e-9 * reference

    def test_moderate_p_within_the_unscaled_rule(self):
        # value and bound of the arc rule before its means were scaled by the node max
        unscaled = {
            (1.0, 1.5): (1.3529987270358828, 1.6941106132406123e-14),
            (1.0, 3.5): (1.5365142139871828, 1.8245062093933363e-14),
            (1.0, 10): (1.7383613363123431, 1.9679272158955592e-14),
            (1.0, 400): (1.9839539719985797, 9.774289494913536e-12),
            (0.5, 1.5): (1.0920467846026967, 1.508693106162224e-14),
            (0.5, 3.5): (1.1814710791741994, 1.572232889070477e-14),
            (0.5, 10): (1.3124209828391646, 1.665278391868103e-14),
            (0.5, 400): (1.4881851496372305, 9.007010386846656e-09),
        }
        for (c, p), (value, bound) in unscaled.items():
            est = hp_norm(self.ONE_PLUS_W if c == 1.0 else self.HALF_W, p)
            assert est.method == "arc-quadrature"
            assert abs(est.value - value) <= est.error_bound + bound


class TestTensorLargeP:
    ONE_Z1_Z2 = make_symbol(2, [((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)])
    # ||1 + z1 + z2||_p by the trapezoid rule of (|phi| / 3)^p on 8192^2 points,
    # rows summed with math.fsum; 2048^2 points give the same digits
    TRAPEZOID = {400: 2.9539864812680467, 1000: 2.978780757093691, 10**4: 2.9971812203819406}

    @pytest.mark.parametrize("p", [400, 1000, 10**4])
    def test_trapezoid_reference(self, p):
        # 3^p overflows a double from p = 646
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = hp_norm(self.ONE_Z1_Z2, p)
        assert est.method == "grid-quadrature" and "N=256 refined to 512" in est.metadata
        slack = 0.0 if p == 400 else 1e-12
        assert abs(est.value - self.TRAPEZOID[p]) <= est.error_bound + slack

    def test_huge_p_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = hp_norm(self.ONE_Z1_Z2, 10**6)
        assert math.isfinite(est.value) and math.isfinite(est.error_bound)
        assert 2.99 < est.value <= 3.0


class TestTensorStatOracle:
    """_tensor_stat against plain loops over the grid (helpers), which share no code with it."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_power_mean_and_max(self, dim):
        rng = np.random.default_rng(223 + dim)
        for n in (8, 9, 10, 11, 12):
            s = random_symbol(rng, dim)
            for p in (1, 2.5, 7):
                assert _tensor_stat(s, n, p) == pytest.approx(grid_mean_abs_pow(s, n, p) ** (1 / p), rel=1e-12)
            assert _tensor_stat(s, n, math.inf) == pytest.approx(grid_max_abs(s, n), rel=1e-12)


class TestExactH1:
    def assert_exact(self, s, reference, ref_error=0.0):
        est = hp_norm(s, 1)
        assert est.method == "exact"
        assert "self-reciprocal antiderivative on" in est.metadata
        assert abs(est.value - reference) <= est.error_bound + ref_error
        assert est.error_bound <= 1e-13 * est.value
        return est

    def test_trinomials_match_closed_form(self):
        rng = np.random.default_rng(181)
        # c = +-2: a double root at -+1
        for c in [0.0, 1.0, -1.0, 2.0, -2.0, 2.5, -2.5, *rng.uniform(-3, 3, size=40)]:
            est = self.assert_exact(phi2(float(c)), trinomial_h1(c))
            assert "d=2 reduced to r=1" in est.metadata
        self.assert_exact(circle_polynomial([1, 1]), 4 / math.pi)
        self.assert_exact(z(2, 0) + z(2, 1), 4 / math.pi)
        assert h1_norm_2hom(phi2(1.0)).method == "exact"

    def test_odd_degree_and_unimodular_factor(self):
        for m in (1, 3, 5, 6):
            coefs = [math.comb(m, k) for k in range(m + 1)]
            for u in (1, 1j, -1, complex(0.6, -0.8)):
                self.assert_exact(circle_polynomial([u * c for c in coefs]), binomial_power_h1(m))
        # i times a real symmetric polynomial of odd degree: roots at e^{+-0.7i}, -1 and the pair 0.5, 2
        real = np.real(np.poly([np.exp(0.7j), np.exp(-0.7j), -1.0, 0.5, 2.0]))[::-1]
        assert np.allclose(real, real[::-1])
        s = circle_polynomial(1j * real)
        self.assert_exact(s, *arc_rule(s))

    def test_root_pairs_off_the_circle(self):
        rng = np.random.default_rng(191)
        for _ in range(20):
            roots = []
            for _ in range(int(rng.integers(1, 4))):  # r and 1/conj(r) together
                r = rng.uniform(0.3, 0.8) * np.exp(2j * np.pi * rng.uniform())
                roots += [r, 1 / np.conj(r)]
            coefs = np.poly(roots)[::-1] * np.exp(2j * np.pi * rng.uniform())
            # no zero on the circle: the trapezoid rule converges geometrically
            mags = fft_circle_abs(coefs, 1 << 12)
            self.assert_exact(circle_polynomial(coefs), float(np.mean(mags)), 1e-14 * float(np.mean(mags)))

    def test_agrees_with_arc_rule(self):
        f = make_symbol(2, [((6 - k, k), c) for k, c in enumerate(M6_F)])
        arc_value, arc_bound = arc_rule(f)
        est = self.assert_exact(f, arc_value, arc_bound)
        assert "d=2 reduced to r=1" in est.metadata
        rng = np.random.default_rng(193)
        for _ in range(20):
            half = rng.normal(size=4)
            coefs = np.concatenate([half, half[-2::-1]]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            s = circle_polynomial(coefs)
            self.assert_exact(s, *arc_rule(s))

    def test_perturbations_take_one_path_or_the_other(self):
        rng = np.random.default_rng(197)
        f = make_symbol(2, [((6 - k, k), c) for k, c in enumerate(M6_F)])
        clean = hp_norm(f, 1)
        for eps in (1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-9, 1e-6):
            for _ in range(5):
                s = perturbed(rng, f, eps)
                est = hp_norm(s, 1)
                arc_value, arc_bound = arc_rule(s)
                assert abs(est.value - arc_value) <= est.error_bound + arc_bound
                assert abs(est.value - clean.value) <= est.error_bound + clean.error_bound + 10 * eps
                if est.method == "exact":
                    assert eps <= 1e-12
                    if eps >= 1e-13:  # the fit residual is in the bound
                        assert est.error_bound > clean.error_bound
                else:
                    assert est.method == "arc-quadrature" and eps >= 1e-12
                    assert (est.value, est.error_bound) == (arc_value, arc_bound)

    @pytest.mark.parametrize("coefs, value", [([1, 1e20, 1], 1e20), ([1e-20, 1, 1e-20], 1.0)])
    def test_ends_trimmed_below_rounding_leave_one_arc(self, coefs, value):
        # both ends drop below eps * max|c|: one root 0, no other cut
        for est in (
            hp_norm(make_symbol(1, [((k,), c) for k, c in enumerate(coefs)]), 1),
            h1_norm_2hom(make_symbol(2, [((2 - k, k), c) for k, c in enumerate(coefs)])),
        ):
            assert est.method == "exact" and est.value == value
            assert "on 1 arcs cut at the roots" in est.metadata

    def test_middle_trimmed_below_rounding_is_cut_at_the_roots_of_one_plus_w_squared(self):
        # 1 + w^2 alone reduces to 1 + w (two arcs); a 1e-300 middle keeps the exponent 1
        for est in (
            hp_norm(make_symbol(1, [((0,), 1.0), ((1,), 1e-300), ((2,), 1.0)]), 1),
            h1_norm_2hom(phi2(1e-300)),
        ):
            assert est.method == "exact" and "on 3 arcs cut at the roots" in est.metadata
            assert abs(est.value - 4 / math.pi) <= est.error_bound

    def test_exact_h1_of_a_pair_sum_near_the_double_range(self):
        est = h1_norm_2hom(make_symbol(2, [((1, 0), 1e307), ((0, 1), 1e307)]))
        assert est.method == "exact"
        assert est.value == pytest.approx(1e307 * (4 / math.pi), rel=1e-14)
        assert 0 < est.error_bound < 1e-13 * est.value

    def test_random_complex_quadratics_keep_the_arc_rule(self):
        rng = np.random.default_rng(199)
        for _ in range(20):
            coefs = rng.normal(size=3) + 1j * rng.normal(size=3)
            s = make_symbol(2, [((2 - k, k), complex(c)) for k, c in enumerate(coefs)])
            est = h1_norm_2hom(s)
            assert est.method == "arc-quadrature"
            assert (est.value, est.error_bound) == arc_rule(s)

    def test_a_product_is_as_exact_as_its_coarsest_factor(self):
        pair = [((1, 0), 1.0), ((0, 1), 1.0)]  # z1 + z2, exact at p = 1
        for other, method in (
            ([((0,), 1.0), ((1,), 2.0)], "arc-quadrature"),  # 1 + 2 z3
            ([((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)], "grid-quadrature"),  # 1 + z3 + z4, full rank
        ):
            s = make_symbol(2 + len(other[0][0]), [(a + b, c * d) for a, c in pair for b, d in other])
            est = hp_norm(s, 1, QuadratureSpec(points_per_dimension=64))
            assert est.metadata.startswith("factored into 2 [self-reciprocal antiderivative on 2 arcs")
            assert est.method == method


class TestMonomials:
    def test_modulus_at_every_finite_p(self):
        for s in (make_symbol(1, [((0,), 1.0)]), make_symbol(2, [((0, 0), 1.0)]), make_symbol(3, [((2, 5, 1), -0.5j)])):
            (c,) = [abs(c) for _, c in s.terms()]
            for p in (1, 1.5, 2, 3.5):
                est = hp_norm(s, p)
                assert (est.value, est.method, est.error_bound) == (c, "exact", 0.0)
                assert est.metadata == f"modulus of a monomial, d={s.dim} reduced to r=0, p={p}"

    def test_sup_and_monte_carlo_unchanged(self):
        s = make_symbol(2, [((1, 1), 2.0)])
        assert hp_norm(s, math.inf).method == "grid-quadrature"
        # a monte-carlo spec samples only what no exact rule takes
        assert hp_norm(s, 1, QuadratureSpec(method="monte-carlo", samples=1000)).method == "exact"


def rank_deficient(rng, dim, scale=2):
    """Random symbol whose exponent differences span a lattice of rank < dim."""
    rank = int(rng.integers(0, dim))
    generators = rng.integers(-scale, scale + 1, size=(rank, dim))
    base = rng.integers(0, 3, size=dim)
    exponents = [base + rng.integers(-2, 3, size=rank) @ generators for _ in range(int(rng.integers(1, 6)))]
    low = np.min(exponents, axis=0)
    return make_symbol(dim, [
        (tuple(int(e) for e in a - low), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for a in exponents
    ])


def full_rank(rng, dim):
    """Random symbol of 3-8 terms, exponents at most 6, whose exponent differences span a lattice of rank dim."""
    while True:
        exponents = rng.integers(0, 7, size=(int(rng.integers(3, 9)), dim))
        s = make_symbol(dim, [(tuple(map(int, a)), complex(*rng.uniform(-2, 2, size=2))) for a in exponents])
        diffs = np.array(s.support[1:]) - np.array(s.support[0])
        if np.linalg.matrix_rank(diffs) == dim:
            return s


def spread(s):
    return max(max(axis) - min(axis) for axis in zip(*s.support))


class TestLatticeReduction:
    def test_pair_product_and_common_factor(self):
        reduced = _reduce(pair_product(2))
        assert reduced.dim == 2
        assert reduced.support == ((0, 0), (1, 0), (0, 1), (1, 1))
        cubes = make_symbol(2, [((3, 0), 1.0), ((0, 3), 2.0)])
        assert _reduce(cubes).terms() == [((0,), 1.0), ((1,), 2.0)]  # 1 + 2w
        monomial = make_symbol(3, [((2, 5, 1), -0.5j)])
        assert _reduce(monomial).terms() == [((0,), -0.5j)]

    def test_full_rank_is_never_wider(self):
        rng = np.random.default_rng(131)
        for dim in (1, 2, 3):
            for _ in range(10):
                s = random_symbol(rng, dim, max_degree=4, n_terms=6)
                diffs = np.array(s.support[1:]) - np.array(s.support[0])
                if len(diffs) and np.linalg.matrix_rank(diffs) == dim:
                    assert _reduce(s).dim == dim and spread(_reduce(s)) <= spread(s)
                    assert "reduced" not in hp_norm(s, 1, QuadratureSpec(points_per_dimension=16)).metadata

    def test_matches_unreduced_grid_within_bounds(self):
        rng = np.random.default_rng(137)
        n = 16
        for dim in (1, 2, 3):
            for _ in range(12):
                s = rank_deficient(rng, dim)
                reduced = _reduce(s)
                assert reduced is not s and len(reduced.support) == len(s.support)
                for p in (1, 2, 3.5, math.inf):
                    est = hp_norm(s, p, QuadratureSpec(points_per_dimension=n))
                    assert "reduced to r=" in est.metadata
                    coarse, fine = _tensor_stat(s, n, p), _tensor_stat(s, 2 * n, p)
                    if p == math.inf:
                        cushion, _ = _sup_cushion(s, 2 * n, fine)
                        assert fine <= est.value + est.error_bound + 1e-12
                        assert est.value <= fine + cushion + 1e-12
                        continue
                    value = fine
                    bound = abs(value - coarse) + 32 * _EPS * (1 + value)
                    assert abs(est.value - value) <= est.error_bound + bound

    def test_spread_never_grows(self):
        def spread(s):
            return max(max(axis) - min(axis) for axis in zip(*s.support))

        # the echelon basis alone gives this lattice the spread 117, not 16
        s = make_symbol(3, [((0, 5, 0), 1.0), ((8, 4, 7), 2.0), ((13, 1, 9), 3.0), ((16, 0, 11), 4.0)])
        assert spread(_reduce(s)) <= 16
        assert "reduced to r=2" in hp_norm(s, 1, QuadratureSpec(points_per_dimension=32)).metadata
        rng = np.random.default_rng(149)
        for _ in range(300):
            s = rank_deficient(rng, int(rng.integers(2, 5)), scale=6)
            assert spread(_reduce(s)) <= spread(s)

    def test_pairwise_width_step(self):
        # Gauss leaves this rank-2 lattice the axes (1,1,0,3,2,4) and (0,1,2,0,1,0),
        # spread 4; adding twice the second axis to the first gives spread 3
        support = [(3, 1, 0), (1, 3, 0), (1, 2, 1), (0, 4, 0), (0, 3, 1), (0, 2, 2)]
        s = make_symbol(3, [(alpha, 1.0 + k) for k, alpha in enumerate(support)])
        reduced = _reduce(s)
        assert reduced.dim == 2 and spread(reduced) == 3
        est = hp_norm(s, 2, QuadratureSpec(points_per_dimension=4))
        assert est.value == pytest.approx(s.h2_norm(), rel=1e-12)
        assert "d=3 reduced to r=2" in est.metadata
        # the narrowed coordinates are exact: p = 2 just past the reduced spread is the H^2 norm
        rng = np.random.default_rng(151)
        for _ in range(100):
            s = rank_deficient(rng, int(rng.integers(3, 5)), scale=6)
            reduced = _reduce(s)
            assert spread(reduced) <= spread(s)
            spec = QuadratureSpec(points_per_dimension=max(4, spread(reduced) + 1))
            assert hp_norm(s, 2, spec).value == pytest.approx(s.h2_norm(), rel=1e-12)

    def test_exponents_beyond_int64(self):
        # the difference lattice is spanned by (10**23, -10**23): 1 + w on T^1
        s = make_symbol(2, [((10**23, 0), 1.0), ((0, 10**23), 1.0)])
        est = hp_norm(s, 1)
        assert abs(est.value - 4 / math.pi) <= est.error_bound
        assert "d=2 reduced to r=1" in est.metadata

    def test_sup_cushion_dominates_operator_norm(self):
        rng = np.random.default_rng(139)
        for dim in (2, 3):
            for _ in range(8):
                s = rank_deficient(rng, dim)
                est = hp_norm(s, math.inf, QuadratureSpec(points_per_dimension=64))
                assert operator_norm(s).value <= est.value + est.error_bound + 1e-10


class TestFullRankReduction:
    def test_random_symbols_meet_the_exact_oracles(self):
        # |phi|^2 and |phi|^4 = |phi^2|^2 are trigonometric polynomials, so the
        # grid is exact at p = 2 past the spread and at p = 4 past twice it
        rng = np.random.default_rng(439)
        changed = narrower = 0
        for dim in (1, 2, 3):
            for _ in range(25):
                s = full_rank(rng, dim)
                reduced = _reduce(s)
                assert reduced.dim == dim and len(reduced.support) == len(s.support)
                assert all(min(axis) == 0 for axis in zip(*reduced.support))
                assert spread(reduced) <= spread(s)
                changed += reduced.support != s.support
                narrower += spread(reduced) < spread(s)
                spec = QuadratureSpec(points_per_dimension=max(4, 2 * spread(reduced) + 1))
                assert hp_norm(s, 2, spec).value == pytest.approx(s.h2_norm(), rel=1e-12)
                assert hp_norm(s, 4, spec).value == pytest.approx((s * s).h2_norm() ** 0.5, rel=1e-12)
        assert changed >= 40 and narrower >= 15  # most inputs move; 52 and 24 of 75 here

    def test_index_four_lattice_at_four_points(self):
        # 1 + z1^4 + z2^4 is 1 + w1 + w2 in lattice coordinates: spread 1, not 4
        s = make_symbol(2, [((0, 0), 1.0), ((4, 0), 1.0), ((0, 4), 1.0)])
        assert _reduce(s).support == ((0, 0), (1, 0), (0, 1))
        est = hp_norm(s, 1, QuadratureSpec(points_per_dimension=4))
        reference = hp_norm(s, 1, QuadratureSpec(points_per_dimension=256))
        assert reference.value == pytest.approx(1.5745972, abs=1e-7) and reference.error_bound < 1e-7
        assert abs(est.value - reference.value) <= est.error_bound
        assert "reduced" not in est.metadata
        product = s.embed(4) * (z(4, 2) + z(4, 3))
        assert hp_norm(product, 1, QuadratureSpec(points_per_dimension=4)).metadata.startswith("factored into 2 ")

    @pytest.mark.parametrize("p", [1, 2])
    def test_huge_exponent_binomial(self, p):
        # 0.5 + z^(10^23) is 0.5 + w on T^1
        s = make_symbol(1, [((0,), 0.5), ((10**23,), 1.0)])
        expected = math.sqrt(1.25) if p == 2 else float(fft_circle_abs([0.5, 1.0], 1 << 12).mean())
        est = hp_norm(s, p)
        assert abs(est.value - expected) <= est.error_bound

    @pytest.mark.parametrize("e", [2**63, 10**23])
    def test_product_beyond_int64(self, e):
        # (1 + z1^e)(1 + z2) factors into two copies of 1 + w
        s = make_symbol(2, [((0, 0), 1.0), ((e, 0), 1.0), ((0, 1), 1.0), ((e, 1), 1.0)])
        est = hp_norm(s, 2)
        assert est.metadata.startswith("factored into 2 ")
        assert abs(est.value - 2.0) <= est.error_bound

    def test_permuted_terms_give_identical_norms(self):
        s, r = permuted_product()
        for p in (1, 2, 3.5, math.inf):
            assert hp_norm(s, p).value == hp_norm(r, p).value


class TestDoubleRange:
    BIG = [
        make_symbol(1, [((0,), 1e308), ((1,), 1e308)]),
        make_symbol(2, [((0, 0), 1e308), ((1, 0), 1e308), ((0, 1), 1e308)]),
    ]

    @pytest.mark.parametrize("s", BIG)
    @pytest.mark.parametrize("p", [1, 2, 3.5, math.inf])
    def test_refused_before_evaluation(self, s, p):
        # a RuntimeWarning from an overflow would fail the test (pytest.ini_options)
        with pytest.raises(DomainError, match="double range"):
            hp_norm(s, p)
        with pytest.raises(DomainError, match="double range"):
            hp_norm(s, p, QuadratureSpec(method="monte-carlo", samples=1000))

    def test_finite_sum_still_computes(self):
        s = make_symbol(1, [((0,), 5e307), ((1,), 5e307)])
        assert hp_norm(s, 2).value == pytest.approx(5e307 * math.sqrt(2), rel=1e-12)
        assert hp_norm(s, math.inf).value == pytest.approx(1e308, rel=1e-12)

    @pytest.mark.parametrize("c", [1e307, 5e307])
    def test_exact_h1_near_the_double_range(self, c):
        # ||1 + w||_1 = 4/pi; the rounding bound's terms near |c| (2 pi + 8) would overflow unscaled
        est = hp_norm(make_symbol(1, [((0,), c), ((1,), c)]), 1)
        assert est.method == "exact"
        assert est.value == pytest.approx(c * (4 / math.pi), rel=1e-14)
        assert 0 < est.error_bound < 1e-13 * est.value

    def test_exact_h1_scales_by_powers_of_two_bit_for_bit(self):
        s = (0.6 - 0.8j) * make_symbol(2, [((2, 0), 1.0), ((1, 1), 0.7), ((0, 2), 1.0)])
        est = hp_norm(s, 1)
        assert est.method == "exact"
        for k in (-900, -3, 5, 1000):
            scaled = hp_norm(math.ldexp(1.0, k) * s, 1)
            assert (scaled.value, scaled.error_bound) == (math.ldexp(est.value, k), math.ldexp(est.error_bound, k))

    def test_exact_h1_beyond_the_double_range_is_refused(self):
        # hp_norm refuses these coefficients first; the exact rule's own guard names the value
        with pytest.raises(DomainError, match="double range"):
            _reciprocal_h1(np.array([1.5e308, 1.5e308], dtype=complex))


class TestHqBasic:
    def test_q2_is_one(self):
        est = hq_norm_basic(2.0)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_q1_closed_form(self):
        est = hq_norm_basic(1.0)
        assert est.value == pytest.approx(2 * math.sqrt(2) / math.pi, abs=1e-11)
        assert 1 / est.value == pytest.approx(math.pi * math.sqrt(2) / 4, abs=1e-10)

    @pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.8, 2.0])
    def test_matches_gamma_oracle(self, q):
        est = hq_norm_basic(q)
        assert est.value == pytest.approx(hq_gamma_oracle(q), abs=1e-11)
        assert est.error_bound <= 1e-10

    @pytest.mark.parametrize("q", [1.0, 1.3, 1.7, 2.0])
    def test_matches_pair_sum_grid(self, q):
        # an independent check of the closed form: hp_norm on T^2, which
        # reduces the pair sum to 1 + w and integrates it on arcs
        pair = (z(2, 0) + z(2, 1)) * (1 / math.sqrt(2))
        arcs = hp_norm(pair, q, QuadratureSpec(points_per_dimension=1 << 14))
        est = hq_norm_basic(q)
        assert est.method == "closed-form"
        assert arcs.error_bound <= 1e-12
        assert abs(est.value - arcs.value) <= est.error_bound + arcs.error_bound

    def test_domain(self):
        with pytest.raises(DomainError):
            hq_norm_basic(0.9)
        with pytest.raises(DomainError):
            hq_norm_basic(2.1)


class TestInverseBounds:
    def test_endpoints(self):
        assert hq_inverse_lower(2.0) == 1.0
        assert hq_inverse_lower(1.0) == pytest.approx(1 + (2 * math.log(2) - 1) / 8, abs=1e-15)
        assert hq_inverse_lower(1.5) == pytest.approx(1 + (2 * math.log(2) - 1) / 16, abs=1e-15)

    @pytest.mark.parametrize("q", [1.0, 1.25, 1.5, 1.75, 2.0])
    def test_tangent_bound_holds(self, q):
        assert 1 / hq_norm_basic(q).value >= hq_inverse_lower(q) - 1e-8

    @pytest.mark.parametrize("q", [1.0, 1.3, 1.7, 2.0])
    def test_intermediate_bound_holds(self, q):
        assert hq_inverse_intermediate(q) <= 1 / hq_norm_basic(q).value + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            hq_inverse_lower(0.5)
        with pytest.raises(DomainError):
            hq_inverse_intermediate(2.5)


class TestH1Reduction:
    def test_quadratic_witness_value(self):
        est = h1_norm_2hom(phi2(1.0))
        assert est.value == pytest.approx(H1_QUADRATIC, abs=1e-8)
        assert abs(est.value - H1_QUADRATIC) <= est.error_bound + 1e-9

    def test_pair_sum(self):
        assert h1_norm_2hom(z(2, 0) + z(2, 1)).value == pytest.approx(4 / math.pi, abs=1e-8)

    def test_unimodular_monomial(self):
        s = make_symbol(2, [((1, 1), 1.0)])
        assert h1_norm_2hom(s).value == pytest.approx(1.0, abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            h1_norm_2hom(make_symbol(3, [((1, 1, 1), 1.0), ((3, 0, 0), 1.0)]))
        from hankel_lab import Symbol

        with pytest.raises(DomainError):
            h1_norm_2hom(Symbol.one(2) + z(2, 0))
        with pytest.raises(DomainError):
            h1_norm_2hom(Symbol.zero(2))

    def test_under_resolved_reduction_raises(self):
        # z1^(2^17) + z2^(2^17) reduces to 1 + w, which the default grid
        # resolves (the 2^16 and 2^17 grids of the unreduced frequencies 0
        # and 2^17 fold them onto one point and read 2.0 for 4/pi)
        s = make_symbol(2, [((1 << 17, 0), 1.0), ((0, 1 << 17), 1.0)])
        est = h1_norm_2hom(s)
        assert abs(est.value - 4 / math.pi) <= est.error_bound
        # a gcd of 1 keeps the spread 2^17, which the default grid cannot resolve
        tight = make_symbol(2, [((1 << 17, 0), 1.0), (((1 << 17) - 1, 1), 1.0), ((0, 1 << 17), 1.0)])
        with pytest.raises(DomainError, match="spread 131072"):
            h1_norm_2hom(tight)
        est = hp_norm(s, 1, QuadratureSpec(points_per_dimension=(1 << 17) + 1))
        assert est.value == pytest.approx(4 / math.pi, abs=1e-8)
        edge = make_symbol(2, [(((1 << 16) - 1, 0), 1.0), ((0, (1 << 16) - 1), 1.0)])
        assert h1_norm_2hom(edge).value == pytest.approx(4 / math.pi, abs=1e-8)
        # the largest reduced spread the default grid resolves, checked against a finer grid
        S = (1 << 16) - 1
        edge = make_symbol(2, [((S, 0), 1.0), ((S - 1, 1), 1.0), ((0, S), 1.0)])
        est, fine = h1_norm_2hom(edge), hp_norm(edge, 1, QuadratureSpec(points_per_dimension=1 << 18))
        assert abs(est.value - fine.value) <= est.error_bound + fine.error_bound

    def test_any_dimension(self):
        # two active variables of a d=6 symbol reduce to rank 1
        s = make_symbol(6, [((0, 2, 0, 0, 0, 0), 1.0), ((0, 1, 0, 0, 1, 0), 1.0), ((0, 0, 0, 0, 2, 0), 1.0)])
        est = h1_norm_2hom(s)
        assert abs(est.value - H1_QUADRATIC) <= est.error_bound + 1e-9
        assert "d=6 reduced to r=1" in est.metadata
        assert "d=6 reduced to r=1" in hp_norm(s, 1, QuadratureSpec(points_per_dimension=1024)).metadata

    def test_matches_full_grid(self):
        # the grid is the independent reference: 2^16 points refined to 2^17
        rng = np.random.default_rng(113)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            s = random_symbol(rng, 2, homogeneous=m, complex_coeffs=False)
            est = h1_norm_2hom(s)
            reduced = _reduce(s)
            coarse, fine = _tensor_stat(reduced, 1 << 16, 1), _tensor_stat(reduced, 1 << 17, 1)
            grid_bound = abs(fine - coarse) + 32 * _EPS * (1 + fine)
            assert abs(est.value - fine) <= est.error_bound + grid_bound


def unfactored(s, p, n):
    """The tensor grid on the reduced symbol, refined: hp_norm's value and bound without factoring."""
    r = _reduce(s)
    fine = _tensor_stat(r, 2 * n, p)
    if p == math.inf:
        return fine, _sup_cushion(r, 2 * n, fine)[0]
    value = fine
    return value, abs(value - _tensor_stat(r, n, p)) + 32 * _EPS * (1 + value)


class TestFactoredHpNorm:
    def assert_agrees(self, s, p, n):
        """hp_norm against the unfactored grid, within the sum of both stated bounds."""
        est = hp_norm(s, p, QuadratureSpec(points_per_dimension=n))
        value, bound = unfactored(s, p, n)
        assert abs(est.value - value) <= est.error_bound + bound
        if p == math.inf:  # the tensor grid's max is the product of the axis grids' maxima
            assert est.value == pytest.approx(value, rel=1e-12)
        return est

    @pytest.mark.parametrize("p", [1, 2, 3.5, math.inf])
    def test_products_split_finest(self, p):
        rng = np.random.default_rng(421)
        r1 = "d=2 reduced to r=1"
        cases = [  # symbol, (arcs, degree, where) per factor, fit residual bound
            (one_variable_product(rng, [2, 3, 2]), [(15, 2, "d=1"), (21, 3, "d=1"), (13, 2, "d=1")], "4.59e-14"),
            (
                one_variable_product(rng, [2, 2, 1, 1]),
                [(13, 2, "d=1"), (11, 2, "d=1"), (8, 1, "d=1"), (8, 1, "d=1")],
                "2.09e-13",
            ),
            (pair_product(2), [((54, 2), 1, r1), ((54, 2), 1, r1)], "0"),  # arcs of the arc rule, of the exact one
            (hom2_product(rng, [2, 3]), [(15, 2, r1), (15, 3, r1)], "3.26e-16"),
            (build_recipe(parse_recipe(RECIPE_PRODUCT)), [(6, 1, r1), (7, 1, "d=3 reduced to r=1")], "0"),
        ]

        def rule(arcs, degree):
            if p == math.inf:
                return f"grid max on 32^1 (lower estimate); Bernstein cushion with sum of axis degrees {degree}"
            if isinstance(arcs, tuple):  # a self-reciprocal factor, exact at p = 1
                if p == 1:
                    return f"self-reciprocal antiderivative on {arcs[1]} arcs cut at the roots"
                arcs = arcs[0]
            return f"gauss-legendre 16 refined to 32 nodes on {arcs} arcs cut at the roots"

        for s, factors, residual in cases:
            est = self.assert_agrees(s, p, 16)
            assert est.metadata == (
                f"factored into {len(factors)} "
                + " ".join(f"[{rule(arcs, degree)}, {where}]" for arcs, degree, where in factors)
                + f", fit residual bound {residual}, p={p}"
            )
            reciprocal = p == 1 and all(isinstance(arcs, tuple) for arcs, _, _ in factors)
            assert est.method == ("grid-quadrature" if p == math.inf else "exact" if reciprocal else "arc-quadrature")

    @pytest.mark.parametrize("p", [1, 2, 3.5, math.inf])
    def test_product_support_with_other_coefficients_is_not_factored(self, p):
        s = make_symbol(2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])
        est = self.assert_agrees(s, p, 16)
        assert "factored" not in est.metadata and est.value == unfactored(s, p, 16)[0]

    @pytest.mark.parametrize("p", [1, 2, 3.5, math.inf])
    def test_perturbed_products(self, p):
        rng = np.random.default_rng(423)
        for eps in (1e-15, 1e-12, 1e-9, 1e-6):
            s = perturbed(rng, one_variable_product(rng, [2, 3, 2]), eps)
            est = self.assert_agrees(s, p, 32)
            if eps == 1e-15:
                assert "factored into 3 " in est.metadata
            elif eps == 1e-6:  # above the constant: the whole grid
                assert "factored" not in est.metadata

    def test_products_over_the_whole_budget_compute(self):
        # rank 5 is over the grid's rank limit and 258^4 over MAX_GRID_POINTS;
        # each one-variable factor takes the arc rule
        rng = np.random.default_rng(427)
        for degrees, n in (([1, 1, 1, 1, 1], 16), ([1, 1, 1, 1], 129)):
            factors = [circle_factor(rng, m) for m in degrees]
            s = embedded_product(len(degrees), [((j,), f) for j, f in enumerate(factors)])
            est = hp_norm(s, 1, QuadratureSpec(points_per_dimension=n))
            assert est.method == "arc-quadrature"
            assert est.metadata.startswith(f"factored into {len(degrees)} [gauss-legendre")
            # the references' roots lie off the circle, so a 4096-point trapezoid is exact to rounding
            expected = math.prod(grid_mean_abs_pow(f, 4096, 1) for f in factors)
            assert abs(est.value - expected) <= est.error_bound + 1e-13 * expected

    def test_refused_factor_sends_the_whole_symbol(self):
        spec = QuadratureSpec(points_per_dimension=4)
        # the factor 1 + z1^4 + z2^4 reduces to 1 + w1 + w2 (spread 1), so it
        # computes at N=4 on its own, and so does its product with z3 + z4
        factor = [((0, 0), 1.0), ((4, 0), 1.0), ((0, 4), 1.0)]
        alone = hp_norm(make_symbol(2, factor), 1, spec)
        assert alone.metadata == "tensor-uniform N=4 refined to 8, d=2, p=1"
        s = make_symbol(4, [(a + b, 1.0) for a, _ in factor for b in ((1, 0), (0, 1))])  # times z3 + z4
        assert len(split_factors(s)[0]) == 2
        est = hp_norm(s, 1, spec)
        assert est.metadata.startswith("factored into 2 [tensor-uniform N=4 refined to 8, d=2] [")
        assert est.value == alone.value * hp_norm(make_symbol(2, [((1, 0), 1.0), ((0, 1), 1.0)]), 1).value
        # a factor the grid refuses sends the whole symbol, with the whole's refusal:
        # 1 + z1 + z2 + z2^5 has rank 2 and spread 5, so N=4 refuses it on the grid
        refused = [((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0), ((0, 5), 1.0)]
        with pytest.raises(DomainError) as err:
            hp_norm(make_symbol(2, refused), 1, spec)
        assert str(err.value) == "4 points per dimension do not resolve the exponent spread 5"
        for other, message in (
            ([((1, 0, 0), 1.0), ((0, 1, 0), 1.0)], "4 points per dimension do not resolve the exponent spread 5"),
            (  # 1 + z3 + z4 + z5 computes at N=4 on its own; the whole has rank 5
                [((0, 0, 0), 1.0), ((1, 0, 0), 1.0), ((0, 1, 0), 1.0), ((0, 0, 1), 1.0)],
                "tensor-uniform is limited to rank <= 4, got rank 5; use monte-carlo",
            ),
        ):
            s = make_symbol(5, [(a + b, 1.0) for a, _ in refused for b, _ in other])
            assert len(split_factors(s)[0]) == 2
            with pytest.raises(DomainError) as err:
                hp_norm(s, 1, spec)
            assert str(err.value) == message
        rank5_sum = make_symbol(5, [((0,) * 5, 1.0)] + [(tuple(int(i == j) for i in range(5)), 1.0) for j in range(5)])
        with pytest.raises(DomainError) as err:
            hp_norm(rank5_sum, 1, QuadratureSpec(points_per_dimension=16))
        assert str(err.value) == "tensor-uniform is limited to rank <= 4, got rank 5; use monte-carlo"


class TestFactoredMonteCarlo:
    """A monte-carlo spec factors too, and samples only the factors that no exact or arc rule takes."""

    PAIR = [((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)]  # 1 + z1 + z2, rank 2

    @pytest.mark.parametrize("p", [1, 2, 3.5])
    def test_rank_one_factors_take_their_rules(self, p):
        # [1, 2, 1] in d = 6, 7, 8, as the benchmark's Monte Carlo ops
        for dim in (6, 7, 8):
            s = one_variable_product(np.random.default_rng(439 + dim), [1, 2, 1] + [0] * (dim - 3))
            grid = hp_norm(s, p)
            runs = [
                hp_norm(s, p, QuadratureSpec(method="monte-carlo", seed=seed, samples=samples))
                for seed, samples in ((1, 1000), (2, 100_000))
            ]
            for est in runs:
                assert est.method != "monte-carlo" and "philox" not in est.metadata
                assert est.metadata.startswith("factored into 3 ")
                assert abs(est.value - grid.value) <= est.error_bound + grid.error_bound
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("p", [1, 3.5])
    def test_only_the_rank_two_factor_is_sampled(self, p):
        for other, second in (
            ([((0,), 1.0), ((1,), 2.0)], "gauss-legendre"),  # 1 + 2 z3, the arc rule
            ([((1, 0), 1.0), ((0, 1), 1.0)], "self-reciprocal" if p == 1 else "gauss-legendre"),  # z3 + z4
        ):
            s = make_symbol(2 + len(other[0][0]), [(a + b, c * d) for a, c in self.PAIR for b, d in other])
            est = hp_norm(s, p, QuadratureSpec(method="monte-carlo", seed=5, samples=200_000))
            assert est.metadata.startswith("factored into 2 [philox seed=5 samples=200000; 3 standard errors")
            assert est.metadata.count("philox seed=") == 1 and f"] [{second}" in est.metadata
            assert est.method == "monte-carlo"  # coarser than exact and arc
            grid = hp_norm(s, p, QuadratureSpec(points_per_dimension=64))
            assert abs(est.value - grid.value) <= est.error_bound + grid.error_bound

    def test_every_factor_is_sampled_at_the_sup(self):
        pair_product = make_symbol(3, [(a + b, c * d) for a, c in self.PAIR for b, d in (((0,), 1.0), ((1,), 2.0))])
        rank1_product = make_symbol(3, [
            ((i, j, 2 * k), a * b * c) for i, a in ((0, 1.0), (1, 1.0)) for j, b in ((0, 1.0), (1, -2.0))
            for k, c in ((0, 1.0), (1, 0.5j))
        ])  # (1 + z1)(1 - 2 z2)(1 + 0.5i z3^2)
        for s, factors in ((pair_product, 2), (rank1_product, 3)):
            est = hp_norm(s, math.inf, QuadratureSpec(method="monte-carlo", seed=9, samples=20_000))
            assert est.metadata.startswith(f"factored into {factors} [sample max (lower estimate); philox seed=9")
            assert est.metadata.count("philox seed=9 samples=20000") == factors
            assert est.method == "monte-carlo" and est.error_bound == math.inf
            assert 8.5 < est.value <= 9.0 * (1 + 1e-15)  # the sup is 3 * 3 = 2 * 3 * 1.5 = 9

    def test_unsplit_rank_two_symbol_keeps_its_samples(self):
        # value and bound pinned from the whole-symbol sampler; the relative
        # tolerance only leaves room for libm rounding across platforms
        s = make_symbol(3, [((0, 0, 0), 1.0), ((2, 0, 1), 0.5 - 1j), ((0, 1, 2), 2.0), ((2, 1, 3), 0.25j)])
        assert len(split_factors(s)[0]) == 1
        draws = "philox seed=7 samples=20000"
        sem = f"{draws}; 3 standard errors, first-order in the 1/p power"
        for p, value, bound, note in (
            (1, 2.3362147301377787, 0.01957733278488905, sem),
            (3.5, 2.699770738441119, 0.016237596844470466, sem),
            (math.inf, 3.9229689780217885, math.inf, f"sample max (lower estimate); {draws}"),
        ):
            est = hp_norm(s, p, QuadratureSpec(method="monte-carlo", seed=7, samples=20_000))
            assert est.value == pytest.approx(value, rel=1e-13, abs=0)
            assert est.error_bound == pytest.approx(bound, rel=1e-13, abs=0)
            assert est.method == "monte-carlo" and est.metadata == f"{note}; d=3 reduced to r=2, p={p}"


def mc_complex_phases(s, spec, p):
    """hp_norm's Monte Carlo value and bound, with one exponential per term: exp(1j * theta @ alphas.T).

    At p=inf, the sample max and inf.
    """
    s = _reduce(s)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    alphas = np.array([a for a, _ in s.terms()], dtype=float)
    coefs = np.array([c for _, c in s.terms()])
    total = total_sq = best = 0.0
    remaining = spec.samples
    while remaining > 0:
        m = min(131072, max(1, (1 << 20) // len(coefs)), remaining)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(m, s.dim))
        mags = np.abs(np.exp(1j * theta @ alphas.T) @ coefs)
        if p == math.inf:
            best = max(best, float(mags.max()))
        else:
            powered = mags**p
            total += float(powered.sum())
            total_sq += float((powered**2).sum())
        remaining -= m
    if p == math.inf:
        return best, math.inf
    mean = total / spec.samples
    value = mean ** (1 / p)
    sem = math.sqrt(max(total_sq / spec.samples - mean**2, 0.0) / spec.samples)
    return value, 3 * sem * value / (p * mean)


class TestMonteCarloPhases:
    """The per-axis phasor evaluation against one exponential per term, on the same samples."""

    @staticmethod
    def assert_agrees(s, p, seed, samples):
        spec = QuadratureSpec(method="monte-carlo", seed=seed, samples=samples)
        value, bound = mc_complex_phases(s, spec, p)
        # the sampler itself: hp_norm would take a product's rank-1 factors to their rules
        est_value, est_bound = _mc_stat(_reduce(s), spec, p)
        assert est_value == pytest.approx(value, rel=1e-12, abs=0)
        assert est_bound == (math.inf if p == math.inf else pytest.approx(bound, rel=1e-9))

    def test_real_phases_agree_with_complex_phases(self):
        rng = np.random.default_rng(151)
        exponents = sorted((a for a in np.ndindex(*(4,) * 8) if sum(a) <= 3), key=lambda a: (sum(a), a))[:120]
        wide = make_symbol(8, [(a, complex(*rng.uniform(-1, 1, size=2))) for a in exponents])
        product = one_variable_product(np.random.default_rng(431), [1, 2, 1, 0, 0, 0])
        cases = [
            (z(2, 0) + z(2, 1), 1, 42, 50_000),
            (z(5, 0) + z(5, 4), 2, 7, 200_000),
            (wide, 2, 5, 20_000),
            (product, 1, 11, 100_000),
            # one chunk exactly, one chunk and one sample, the fewest samples allowed
            (z(2, 0) + z(2, 1), 2, 3, _MC_CHUNK),
            (product, 3.5, 19, _MC_CHUNK + 1),
            (wide, 1, 37, 1000),
        ]
        for case in cases:
            self.assert_agrees(*case)

    def test_turn_phasors_match_the_complex_exponential(self):
        # 0; just below 1, which rounds to the table's last entry; the rint
        # ties halfway between table entries; and random turns
        x = np.concatenate(
            [[0.0, 1.0 - 2.0**-53], (np.arange(_TURNS) + 0.5) / _TURNS, np.random.default_rng(437).random(100_000)]
        )
        u = _turn_phasors(x)
        assert u[0] == 1.0
        # the reference rounds its argument 2 pi x, by up to (pi + 2) eps near
        # x = 1, and its exponential adds about one more
        assert np.abs(u - np.exp(2j * np.pi * x)).max() <= 8 * _EPS
        assert np.abs(np.abs(u) - 1.0).max() <= 4 * _EPS

    def test_gapped_exponents_on_one_axis(self):
        s = make_symbol(1, [((0,), 1.0), ((5,), 0.5 - 0.25j), ((37,), 0.75j)])
        self.assert_agrees(s, 3, 13, 100_000)

    @pytest.mark.parametrize("p", [3.5, math.inf])
    def test_benchmark_shaped_product(self, p):
        # [1, 2, 1] in d=8, as the benchmark's Monte Carlo ops; at p=inf the
        # sample maxima agree, since the samples are the same
        self.assert_agrees(one_variable_product(np.random.default_rng(433), [1, 2, 1, 0, 0, 0, 0, 0]), p, 17, 100_000)

    def test_sparse_symbol_with_more_exponents_than_terms(self):
        s = random_symbol(np.random.default_rng(435), 4, max_degree=1000, n_terms=100)
        assert len(s.support) == 100 and _reduce(s).dim == 4
        assert sum(len({a[j] for a in s.support}) for j in range(4)) > len(s.support)
        self.assert_agrees(s, 1.5, 23, 50_000)

    @pytest.mark.parametrize("e", [2**40, 10**23])
    def test_huge_exponent_stays_finite(self, e):
        # lattice Z^2, so _reduce keeps the exponent e; u^e by unnormalised
        # squaring overflows to nan
        s = make_symbol(2, [((0, 0), 1.0), ((1, 0), 1.0), ((e, 0), 1.0), ((0, 1), 1.0)])
        assert _reduce(s) == s
        est = hp_norm(s, 2, QuadratureSpec(method="monte-carlo", seed=29, samples=100_000))
        assert math.isfinite(est.value) and math.isfinite(est.error_bound)
        assert abs(est.value - 2.0) <= 3 * est.error_bound
