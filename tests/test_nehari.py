import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from hankel_lab import (
    MAX_1D_GRID_POINTS,
    MAX_CEX_TRUNC,
    MAX_PSI_MB,
    MAX_PSI_TRUNC,
    BudgetError,
    DomainError,
    PsiSeries,
    QuadratureSpec,
    Symbol,
    cex_ratio,
    cex_truncation,
    classify,
    dual_bound,
    h1_norm_2hom,
    hq_norm_basic,
    make_symbol,
    operator_norm,
    pairing,
    pairsum_witness_lower,
    psi_evaluate,
    psi_projection,
    psi_sup_estimate,
    quadratic_witness_lower,
    search_c2,
)
from helpers import phi2, z

C2_QUADRATIC = 5 * math.pi / (math.pi + 6 * math.sqrt(3))
C2_PAIRSUM = math.pi / (2 * math.sqrt(2))
SQRT6_OVER_PI = math.sqrt(6) / math.pi


class TestDualBound:
    def test_quadratic_witness(self):
        f = phi2(1.0)
        phi = phi2(0.5)
        report = dual_bound(f, phi, QuadratureSpec(points_per_dimension=1024))
        assert report.witness.pairing == 2.5
        assert report.witness.hankel_norm.value == pytest.approx(1.5, abs=1e-10)
        assert report.bound_value == pytest.approx(C2_QUADRATIC, abs=1e-5)
        assert report.method == "dual-pairing"

    def test_pair_sum_self(self):
        pair = z(2, 0) + z(2, 1)
        report = dual_bound(pair, pair, QuadratureSpec(points_per_dimension=1024))
        assert report.witness.pairing == 2.0
        assert report.bound_value == pytest.approx(C2_PAIRSUM, abs=1e-5)

    def test_monomial_gives_one(self):
        s = z(1, 0)
        report = dual_bound(s, s, QuadratureSpec(points_per_dimension=64))
        assert report.bound_value == pytest.approx(1.0, abs=1e-12)

    def test_reconstructible_from_witness(self):
        f = phi2(0.8)
        phi = phi2(0.3)
        report = dual_bound(f, phi, QuadratureSpec(points_per_dimension=256))
        w = report.witness
        assert report.bound_value == pytest.approx(
            abs(w.pairing) / (w.hankel_norm.value * w.h1.value), rel=1e-15
        )

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            dual_bound(Symbol.zero(2), z(2, 0), QuadratureSpec())

    def test_denominator_past_the_double_range(self):
        # ||H_phi|| * ||f||_1 = 1.5 * 1.6e308 overflows, which read 0.0
        f = make_symbol(2, [((2, 0), 1.6e308), ((0, 2), 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = dual_bound(f, phi2(0.5))
        assert report.bound_value == pytest.approx(1.6e308 / 1.5 / 1.6e308, rel=1e-12)

    @pytest.mark.parametrize("lead, phi_lead", [(1e200, 1e200), (1.5e308 + 1.5e308j, 1.0)])
    def test_pairing_past_the_double_range_rejected(self, lead, phi_lead):
        # <f, f> = 1e400 + 1 overflows, which read inf and a NaN bound; the
        # other pairing has finite parts, but its modulus is past the double range
        f = make_symbol(2, [((2, 0), lead), ((0, 2), 1.0)])
        phi = make_symbol(2, [((2, 0), phi_lead), ((0, 2), 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="pairing"):
                dual_bound(f, phi)

    def test_pairing_conjugates_second_argument(self):
        f = make_symbol(1, [((1,), 2j)])
        g = make_symbol(1, [((1,), 1 + 1j)])
        assert pairing(f, g) == 2j * (1 - 1j)


class TestClosedFormBounds:
    def test_base_values(self):
        assert quadratic_witness_lower(2).bound_value == pytest.approx(C2_QUADRATIC, abs=1e-15)
        assert pairsum_witness_lower(2).bound_value == pytest.approx(C2_PAIRSUM, abs=1e-15)

    def test_power_law(self):
        for d in range(2, 22, 2):
            assert quadratic_witness_lower(d).bound_value == pytest.approx(
                quadratic_witness_lower(2).bound_value ** (d / 2), rel=1e-14
            )
            assert pairsum_witness_lower(d).bound_value == pytest.approx(
                pairsum_witness_lower(2).bound_value ** (d / 2), rel=1e-14
            )

    def test_quadratic_beats_pairsum(self):
        for d in range(2, 22, 2):
            assert quadratic_witness_lower(d).bound_value > pairsum_witness_lower(d).bound_value

    @pytest.mark.parametrize("d", [0, 1, 3, -2])
    def test_odd_rejected(self, d):
        with pytest.raises(DomainError):
            quadratic_witness_lower(d)
        with pytest.raises(DomainError):
            pairsum_witness_lower(d)

    def test_method_tags(self):
        assert quadratic_witness_lower(4).method == "quadratic-witness"
        assert pairsum_witness_lower(4).method == "pairsum-witness"

    @pytest.mark.parametrize(
        "bound, last, method",
        [(quadratic_witness_lower, 9528, "quadratic-witness"), (pairsum_witness_lower, 13518, "pairsum-witness")],
    )
    def test_past_the_double_range_refused(self, bound, last, method):
        # the last even d whose bound is a double, and the next
        assert math.isfinite(bound(last).bound_value) and bound(last).bound_value > 1e308
        with pytest.raises(DomainError) as err:
            bound(last + 2)
        assert str(err.value) == f"the {method} lower bound for d={last + 2} exceeds the double range"


class TestSearch:
    def test_optimal_c_in_expected_window(self):
        best_c, _, report = search_c2(0.5)
        assert 0.8 < best_c < 0.9
        assert report.method == "search"
        # the report is the dual bound at best_c with the search's own H^1 norm
        f, phi = phi2(best_c), phi2(0.5)
        h1 = h1_norm_2hom(f)
        assert report.witness.h1 == h1
        assert report.witness.pairing == pairing(f, phi)
        assert report.bound_value == abs(pairing(f, phi)) / (operator_norm(phi).value * h1.value)

    def test_search_dominates_fixed_point(self):
        _, _, report = search_c2(0.5)
        fixed = dual_bound(phi2(1.0), phi2(0.5), QuadratureSpec(points_per_dimension=1024))
        assert report.bound_value >= fixed.bound_value - 1e-9

    def test_large_a_rejected(self):
        with pytest.raises(DomainError):
            search_c2(0.6)

    @pytest.mark.parametrize("a", [0.0, 0.005])
    def test_small_a_on_the_default_interval(self, a):
        # c* = 2 sin(theta*) is about 2a
        best_c, _, report = search_c2(a)
        assert 0.0 <= best_c <= 2.0 * a
        if a == 0.0:
            assert best_c == 0.0
            assert report.bound_value == pytest.approx(pairsum_witness_lower(2).bound_value, rel=1e-14)

    def test_closed_form_against_brentq(self):
        rng = np.random.default_rng(283)
        for a in [0.0, 0.1, 0.25, 0.5, *rng.uniform(0.0, 0.5, size=5)]:
            a = float(a)
            theta = brentq(lambda t: t - a * math.cos(t), 0.0, math.pi / 2, xtol=1e-300) if a else 0.0
            best_c, bound, report = search_c2(a)
            assert bound == 4 * math.ulp(best_c)
            assert abs(best_c - 2 * math.sin(theta)) <= bound
            closed = math.pi / (2 * math.cos(theta) * math.sqrt(2 + a * a))
            assert report.bound_value == pytest.approx(closed, rel=1e-14)

    @pytest.mark.parametrize("a", [5e-324, 0.5 - 2**-54])
    def test_newton_ends_at_the_range_ends(self, a):
        best_c, _, report = search_c2(a)
        assert 0.0 < best_c < 0.8702617180734190 and math.isfinite(report.bound_value)


def symbol_search(a):
    """A zoomed scan, the reference for search_c2's closed form.

    Rounds of 101 evenly spaced c, first on [0, 2] and then on the two grid
    cells around the last round's peak, scored with ||f||_1 from
    h1_norm_2hom of each f as a Symbol; returns the best c, its round's
    grid step and the report.
    """
    lo, hi = 0.0, 2.0
    best_score, width = -math.inf, math.inf
    while True:
        grid = np.linspace(lo, hi, 101)
        scores = [abs(2.0 + a * c) / h1_norm_2hom(phi2(c)).value for c in grid]
        peak = int(np.argmax(scores))
        if scores[peak] > best_score:
            best_score, best_c, step = scores[peak], float(grid[peak]), float(hi - lo) / 100
        width = hi - lo
        lo, hi = grid[max(peak - 1, 0)], grid[min(peak + 1, 100)]
        if not 1e-6 < hi - lo < width:
            break
    report = dual_bound(phi2(best_c), phi2(a))
    return best_c, max(step, math.ulp(best_c)), replace(report, method="search")


class TestSearchOnCoefficients:
    """The closed form against the exact H^1 rule and against the zoomed scan over Symbols."""

    def test_closed_form_h1_norm_is_h1_norm_2hom(self):
        # |z1^2 + c z1 z2 + z2^2| = |c + 2 cos t| on the torus
        for c in [*np.linspace(-5.0, 5.0, 1001), -2.0, 2.0]:
            c = float(c)
            if abs(c) <= 2.0:
                closed = 2 / math.pi * (c * math.asin(c / 2) + math.sqrt(4 - c * c))
            else:
                closed = abs(c)
            assert h1_norm_2hom(phi2(c)).value == pytest.approx(closed, rel=1e-13)

    def test_search_matches_the_symbol_search(self):
        rng = np.random.default_rng(211)
        for a in [0.5, 0.25, *rng.uniform(0.1, 0.5, size=3)]:
            best_c, _, report = search_c2(float(a))
            scan_c, scan_step, scan_report = symbol_search(float(a))
            assert report.bound_value >= scan_report.bound_value * (1 - 1e-15)
            assert abs(best_c - scan_c) <= scan_step


class TestCexFamily:
    def test_first_truncation(self):
        s = cex_truncation(1)
        assert s.dim == 2
        expected = SQRT6_OVER_PI / math.sqrt(2)
        assert s.coeff((1, 0)) == pytest.approx(expected, rel=1e-15)
        assert s.coeff((0, 1)) == pytest.approx(expected, rel=1e-15)
        assert s.h2_norm() == pytest.approx(SQRT6_OVER_PI, rel=1e-14)

    def test_h2_follows_partial_sums(self):
        previous = 0.0
        for K in range(1, 7):
            s = cex_truncation(K)
            assert s.dim == K * (K + 1)
            expected = SQRT6_OVER_PI * math.sqrt(sum(1 / k**2 for k in range(1, K + 1)))
            assert s.h2_norm() == pytest.approx(expected, abs=1e-13)
            assert s.h2_norm() > previous
            previous = s.h2_norm()
        assert previous < 1.0

    def test_truncations_are_minimal(self):
        for K in (1, 2, 3):
            v = classify(cex_truncation(K))
            assert v.status == "minimal"
            assert abs(v.gap) <= 1e-9

    def test_bad_order(self):
        with pytest.raises(DomainError):
            cex_truncation(0)
        with pytest.raises(BudgetError, match="MAX_CEX_TRUNC"):
            cex_truncation(MAX_CEX_TRUNC + 1)


class TestCexRatio:
    def test_first_value(self):
        assert cex_ratio(1, 1.0) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_consecutive_identity(self):
        r = hq_norm_basic(1.0).value
        for k in (2, 5, 50):
            assert cex_ratio(k, 1.0) / cex_ratio(k - 1, 1.0) == pytest.approx(
                (k - 1) / k / r, rel=1e-12
            )

    def test_divergence_at_q1(self):
        values = [cex_ratio(k, 1.0) for k in range(1, 201)]
        assert max(values) > 1e3
        assert values[-1] > values[-2] > values[-3]

    def test_divergence_near_q2(self):
        # the step ratio (k/(k+1))/r crosses 1 exactly once, so growth
        # starts at some k0 and never stops afterwards
        values = [cex_ratio(k, 1.99) for k in range(1, 5001)]
        k0 = next(i for i in range(1, len(values)) if values[i] > values[i - 1])
        assert k0 < 4000
        assert all(values[i + 1] > values[i] for i in range(k0, len(values) - 1))

    def test_domain(self):
        with pytest.raises(DomainError):
            cex_ratio(1, 2.0)
        with pytest.raises(DomainError):
            cex_ratio(1, 2.5)
        with pytest.raises(DomainError):
            cex_ratio(0, 1.0)


def leibniz_partial(K):
    """Independent oracle for the origin value of the truncated series."""
    total = 1.0
    for m in range(1, K + 1):
        total += (-1.0) ** m * (1 / (1 - 2 * m) + 1 / (1 + 2 * m))
    return total


class TestPsi:
    def test_projection_is_pair_sum(self):
        pair = z(2, 0) + z(2, 1)
        for K in (1, 2, 7, 100):
            assert psi_projection(PsiSeries(K)) == pair

    def test_origin_value_matches_oracle(self):
        for K in (1, 5, 50, 500):
            got = psi_evaluate(PsiSeries(K), 0.0, 0.0)
            assert got == pytest.approx(leibniz_partial(K), abs=1e-12)
        assert psi_evaluate(PsiSeries(10**5), 0.0, 0.0).real == pytest.approx(
            math.pi / 2, abs=1e-4
        )

    def test_modulus_depends_on_difference_only(self):
        rng = np.random.default_rng(127)
        ps = PsiSeries(60)
        for _ in range(10):
            t1, t2, shift = rng.uniform(0, 2 * math.pi, size=3)
            a = abs(psi_evaluate(ps, t1, t2))
            b = abs(psi_evaluate(ps, t1 + shift, t2 + shift))
            assert a == pytest.approx(b, abs=1e-10)

    def test_sup_estimate_equals_direct_grid_max(self):
        K, n = 50, 32
        est = psi_sup_estimate(K, n)
        ps = PsiSeries(K)
        grid = [2 * math.pi * j / n for j in range(n)]
        direct = max(abs(psi_evaluate(ps, t1, t2)) for t1 in grid for t2 in grid)
        assert est.value == pytest.approx(direct, rel=1e-12)

    def test_sup_estimate_metadata(self):
        est = psi_sup_estimate(1000, 64)
        assert est.method == "grid-quadrature"
        assert "lower estimate" in est.metadata
        assert est.error_bound == pytest.approx(64 / (2 * math.pi * 1000), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi_sup_estimate(0, 64)
        with pytest.raises(DomainError):
            psi_sup_estimate(10, 8)
        with pytest.raises(DomainError):
            PsiSeries(0)

    def test_memory_budget_admits_each_budget_alone_but_not_both(self, monkeypatch):
        class Allocated(Exception):
            pass

        def allocate(*args, **kwargs):
            raise Allocated

        # stop at the first array, so that an admitted call costs nothing
        monkeypatch.setattr(np, "arange", allocate)
        for K, grid_n in [(MAX_PSI_TRUNC, 512), (10, MAX_1D_GRID_POINTS)]:
            with pytest.raises(Allocated):
                psi_sup_estimate(K, grid_n)
        with pytest.raises(BudgetError, match=rf"completion series memory \(MAX_PSI_MB\) exceeds the budget of {MAX_PSI_MB} MB"):
            psi_sup_estimate(MAX_PSI_TRUNC, MAX_1D_GRID_POINTS)

    def test_whole_difference_grid_is_budgeted(self):
        # the difference grid is one array, held to MAX_1D_GRID_POINTS before it is built
        with pytest.raises(BudgetError, match="MAX_1D_GRID_POINTS"):
            psi_sup_estimate(10, MAX_1D_GRID_POINTS + 1)
