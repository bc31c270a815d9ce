import math

import numpy as np
import pytest
from scipy.special import gamma

from hankel_lab import (
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
from hankel_lab.quadrature import _EPS, _reduce, _sup_cushion, _tensor_stat
from helpers import (
    RECIPE_PRODUCT,
    circle_factor,
    embedded_product,
    grid_mean_abs_pow,
    hom2_product,
    one_variable_product,
    pair_product,
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
        s = z(2, 0) + z(2, 1)
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
        assert est.metadata == "sample max (lower estimate); philox seed=1 samples=20000; d=2 reduced to r=1"
        assert 1.99 < est.value <= 2.0 + 1e-15

    def test_monte_carlo_memory_bounded_by_terms(self):
        import tracemalloc

        # the 120 lowest exponents in d=8 (1, the z_j, ...) span the full lattice
        exponents = sorted((a for a in np.ndindex(*(4,) * 8) if sum(a) <= 3), key=lambda a: (sum(a), a))[:120]
        rng = np.random.default_rng(151)
        wide = make_symbol(8, [(a, complex(*rng.uniform(-1, 1, size=2))) for a in exponents])
        assert len(wide.support) == 120 and _reduce(wide) is wide
        # 1000 of the 6^6 exponents below 6 in d=6
        picked = rng.choice(6**6, size=1000, replace=False)
        many = make_symbol(6, [(tuple(map(int, np.unravel_index(i, (6,) * 6))), complex(*rng.normal(size=2))) for i in picked])
        assert len(many.support) == 1000 and _reduce(many) is many
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
        # z^10 + 1 needs more than 10 points per dimension; at 11 p=2 is exact
        s = make_symbol(1, [((10,), 1.0), ((0,), 1.0)])
        with pytest.raises(DomainError):
            hp_norm(s, 2, QuadratureSpec(points_per_dimension=10))
        est = hp_norm(s, 2, QuadratureSpec(points_per_dimension=11))
        assert est.value == pytest.approx(math.sqrt(2), abs=1e-14)
        # every grid point aliases z1^(10**23) to 1, so p = 1 and 2 would read 1.5
        huge = make_symbol(1, [((10**23,), 1.0), ((0,), 0.5)])
        for p in (1, 2):
            with pytest.raises(DomainError):
                hp_norm(huge, p, QuadratureSpec())

    def test_huge_exponent_sup_has_infinite_cushion(self):
        # the fold must not squeeze exponents through int64
        huge = make_symbol(1, [((10**23,), 1.0), ((0,), 0.5)])
        est = hp_norm(huge, math.inf, QuadratureSpec())
        assert est.value == 1.5
        assert est.error_bound == math.inf


def circle_polynomial(coefs):
    """sum_k coefs[k] w^k as a symbol on T^1."""
    return make_symbol(1, [((k,), complex(c)) for k, c in enumerate(coefs)])


def fft_circle_abs(coefs, n=1 << 20):
    """|P| at the n-th roots of unity, for an independent trapezoid-rule reference."""
    return np.abs(np.fft.ifft(np.asarray(coefs, dtype=complex), n) * n)


class TestArcQuadrature:
    def test_quadratic_witness_to_rounding(self):
        est = hp_norm(phi2(1.0), 1)  # z1^2 + z1 z2 + z2^2
        assert est.method == "arc-quadrature"
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
        symbols = [
            z(2, 0) + z(2, 1),
            phi2(1.0),
            phi2(0.5),
            make_symbol(1, [((10,), 1.0), ((0,), 1.0)]),
            make_symbol(2, [((3, 0), 1.0), ((0, 3), 2.0)]),
            make_symbol(2, [((1, 1), 1.0)]),
        ]
        symbols += [s for s in (rank_deficient(rng, 3) for _ in range(40)) if _reduce(s).dim == 1][:8]
        n = 1024
        for s in symbols:
            reduced = _reduce(s)
            for p in (1, 2, 3.5):
                est = hp_norm(s, p, QuadratureSpec(points_per_dimension=n))
                assert est.method == "arc-quadrature"
                fine = _tensor_stat(reduced, 2 * n, p) ** (1 / p)
                grid_bound = abs(fine - _tensor_stat(reduced, n, p) ** (1 / p)) + 32 * _EPS * (1 + fine)
                assert abs(est.value - fine) <= grid_bound + est.error_bound

    def test_negligible_leading_coefficient(self):
        # the roots of 1 + 1e-320 w^2 lie near 1e160, beyond a finite companion matrix
        est = hp_norm(make_symbol(1, [((0,), 1.0), ((2,), 1e-320)]), 1)
        assert abs(est.value - 1.0) <= est.error_bound

    def test_grid_beyond_arc_degree(self):
        # degree 65 > _ARC_MAX_DEGREE stays on the grid; p = inf always does
        s = make_symbol(1, [((65,), 1.0), ((0,), 1.0)])
        est = hp_norm(s, 2, QuadratureSpec(points_per_dimension=128))
        assert est.method == "grid-quadrature" and est.value == pytest.approx(math.sqrt(2), abs=1e-14)
        assert hp_norm(z(2, 0) + z(2, 1), math.inf).method == "grid-quadrature"


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


class TestLatticeReduction:
    def test_pair_product_and_common_factor(self):
        reduced = _reduce(pair_product(2))
        assert reduced.dim == 2
        assert reduced.support == ((0, 0), (1, 0), (0, 1), (1, 1))
        cubes = make_symbol(2, [((3, 0), 1.0), ((0, 3), 2.0)])
        assert _reduce(cubes).terms() == [((0,), 1.0), ((1,), 2.0)]  # 1 + 2w
        monomial = make_symbol(3, [((2, 5, 1), -0.5j)])
        assert _reduce(monomial).terms() == [((0,), -0.5j)]

    def test_full_rank_is_untouched(self):
        rng = np.random.default_rng(131)
        for dim in (1, 2, 3):
            for _ in range(10):
                s = random_symbol(rng, dim, max_degree=4, n_terms=6)
                diffs = np.array(s.support[1:]) - np.array(s.support[0])
                if len(diffs) and np.linalg.matrix_rank(diffs) == dim:
                    assert _reduce(s) is s
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
                    value = fine ** (1 / p)
                    bound = abs(value - coarse ** (1 / p)) + 32 * _EPS * (1 + value)
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
        est = h1_norm_2hom(s, QuadratureSpec(points_per_dimension=(1 << 17) + 1))
        assert est.value == pytest.approx(4 / math.pi, abs=1e-8)
        edge = make_symbol(2, [(((1 << 16) - 1, 0), 1.0), ((0, (1 << 16) - 1), 1.0)])
        assert h1_norm_2hom(edge).value == pytest.approx(4 / math.pi, abs=1e-8)
        # the largest reduced spread the default grid resolves, checked against a finer grid
        S = (1 << 16) - 1
        edge = make_symbol(2, [((S, 0), 1.0), ((S - 1, 1), 1.0), ((0, S), 1.0)])
        est, fine = h1_norm_2hom(edge), h1_norm_2hom(edge, QuadratureSpec(points_per_dimension=1 << 18))
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
    value = fine ** (1 / p)
    return value, abs(value - _tensor_stat(r, n, p) ** (1 / p)) + 32 * _EPS * (1 + value)


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
            (pair_product(2), [(54, 1, r1), (54, 1, r1)], "0"),
            (hom2_product(rng, [2, 3]), [(15, 2, r1), (15, 3, r1)], "3.26e-16"),
            (build_recipe(parse_recipe(RECIPE_PRODUCT)), [(6, 1, r1), (7, 1, "d=3 reduced to r=1")], "0"),
        ]

        def rule(arcs, degree):
            if p == math.inf:
                return f"grid max on 32^1 (lower estimate); Bernstein cushion with sum of axis degrees {degree}"
            return f"gauss-legendre 16 refined to 32 nodes on {arcs} arcs cut at the roots"

        for s, factors, residual in cases:
            est = self.assert_agrees(s, p, 16)
            assert est.metadata == (
                f"factored into {len(factors)} "
                + " ".join(f"[{rule(arcs, degree)}, {where}]" for arcs, degree, where in factors)
                + f", fit residual bound {residual}, p={p}"
            )
            assert est.method == ("grid-quadrature" if p == math.inf else "arc-quadrature")

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

    def test_monte_carlo_is_not_factored(self):
        s = one_variable_product(np.random.default_rng(425), [1, 2, 1, 1])
        est = hp_norm(s, 2, QuadratureSpec(method="monte-carlo", seed=3, samples=20_000))
        assert est.method == "monte-carlo" and "factored" not in est.metadata
        assert abs(est.value - s.h2_norm()) <= est.error_bound

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
        # the factor 1 + z1^4 + z2^4 has full rank, so it keeps its spread 4;
        # the whole reduces to r=3 with spread 1
        factor = [((0, 0), 1.0), ((4, 0), 1.0), ((0, 4), 1.0)]
        with pytest.raises(DomainError) as err:
            hp_norm(make_symbol(2, factor), 1, spec)
        assert str(err.value) == "4 points per dimension do not resolve the exponent spread 4"
        s = make_symbol(4, [(a + b, 1.0) for a, _ in factor for b in ((1, 0), (0, 1))])  # times z3 + z4
        assert len(split_factors(s)[0]) == 2
        est = hp_norm(s, 1, spec)
        assert est.value == unfactored(s, 1, 4)[0]
        assert est.metadata == "tensor-uniform N=4 refined to 8, d=4 reduced to r=3, p=1"
        with pytest.raises(DomainError) as err:
            hp_norm(one_variable_product(np.random.default_rng(429), [2, 5]), 1, spec)
        assert str(err.value) == "4 points per dimension do not resolve the exponent spread 5"
        rank5_sum = make_symbol(5, [((0,) * 5, 1.0)] + [(tuple(int(i == j) for i in range(5)), 1.0) for j in range(5)])
        with pytest.raises(DomainError) as err:
            hp_norm(rank5_sum, 1, QuadratureSpec(points_per_dimension=16))
        assert str(err.value) == "tensor-uniform is limited to rank <= 4, got rank 5; use monte-carlo"


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
        est = hp_norm(s, p, spec)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0)
        assert est.error_bound == (math.inf if p == math.inf else pytest.approx(bound, rel=1e-9))

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
        ]
        for case in cases:
            self.assert_agrees(*case)

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
        assert len(s.support) == 100 and _reduce(s) is s
        assert sum(len({a[j] for a in s.support}) for j in range(4)) > len(s.support)
        self.assert_agrees(s, 1.5, 23, 50_000)

    @pytest.mark.parametrize("e", [2**40, 10**23])
    def test_huge_exponent_stays_finite(self, e):
        # full rank, so _reduce keeps the exponent e; u^e by unnormalised
        # squaring overflows to nan
        s = make_symbol(2, [((0, 0), 1.0), ((e, 0), 1.0), ((0, 1), 1.0)])
        assert _reduce(s) is s
        est = hp_norm(s, 2, QuadratureSpec(method="monte-carlo", seed=29, samples=100_000))
        assert math.isfinite(est.value) and math.isfinite(est.error_bound)
        assert abs(est.value - math.sqrt(3)) <= 3 * est.error_bound
