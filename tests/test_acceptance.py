"""Acceptance suite.

One test per criterion, each printing a pass/fail line with its measured
numbers and asserting the stated tolerances and runtime ceilings. The
random-case suites at the end fix their seeds, so every run checks the
same cases.
"""

import itertools
import math
import time

import numpy as np
import pytest

from hankel_lab import (
    PsiSeries,
    QuadratureSpec,
    Symbol,
    build_block,
    build_recipe,
    cex_ratio,
    cex_truncation,
    classify,
    classify_homogeneous,
    d1_monomial_test,
    dual_bound,
    h1_norm_2hom,
    hp_norm,
    hq_inverse_lower,
    hq_norm_basic,
    make_symbol,
    operator_norm,
    pairsum_witness_lower,
    psi_projection,
    psi_sup_estimate,
    quadratic_witness_lower,
    spectral_norm,
)
from helpers import pair_product, phi2, phi3, random_symbol, z
from test_minimal import random_recipe

SUITE_TIMES = {}


def report(name, ok, detail, elapsed, limit):
    SUITE_TIMES[name] = elapsed
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{name}] {status} ({elapsed:.2f}s < {limit}s) {detail}")
    return ok and elapsed < limit


def test_criterion_1_quadratic_threshold():
    start = time.perf_counter()
    ok = True
    details = []
    for a in (0.0, 0.25, 0.5, 0.51, 0.75, 1.0):
        v = classify_homogeneous(phi2(a))
        expected = "minimal" if a <= 0.5 else "not-minimal"
        ok &= v.status == expected
        block = v.block_norms[0][1]
        ok &= abs(block - (1 + a)) <= 1e-10
        details.append(f"a={a}:{v.status}")
    elapsed = time.perf_counter() - start
    assert report("criterion 1", ok, " ".join(details), elapsed, 1.0)


def test_criterion_2_cubic_threshold():
    start = time.perf_counter()
    ok = True
    details = []
    for b, expected in ((0.414, "minimal"), (0.415, "not-minimal")):
        v = classify_homogeneous(phi3(b))
        ok &= v.status == expected
        gram = v.block_norms[0][1] ** 2
        ok &= abs(gram - (1 + 2 * b + 3 * b * b)) <= 1e-10
        details.append(f"b={b}:{v.status}")
    elapsed = time.perf_counter() - start
    assert report("criterion 2", ok, " ".join(details), elapsed, 1.0)


def test_criterion_3_pair_products():
    start = time.perf_counter()
    ok = True
    details = []
    for d in (1, 2, 3):
        got = operator_norm(pair_product(d)).value
        ok &= abs(got - 2.0 ** (d / 2)) <= 1e-9
        details.append(f"d={d}:{got:.12f}")
    elapsed = time.perf_counter() - start
    assert report("criterion 3", ok, " ".join(details), elapsed, 30.0)


def test_criterion_4_dual_bound_witness():
    start = time.perf_counter()
    f = phi2(1.0)
    phi = phi2(0.5)
    reference_h1 = 1 / 3 + 2 * math.sqrt(3) / math.pi
    reference_bound = 5 * math.pi / (math.pi + 6 * math.sqrt(3))
    rep = dual_bound(f, phi, QuadratureSpec(points_per_dimension=1024))
    ok = rep.witness.pairing == 2.5
    ok &= abs(rep.witness.hankel_norm.value - 1.5) <= 1e-10
    ok &= abs(rep.witness.h1.value - reference_h1) <= 1e-6
    ok &= abs(h1_norm_2hom(f).value - reference_h1) <= 1e-6
    ok &= abs(rep.bound_value - reference_bound) <= 1e-5
    elapsed = time.perf_counter() - start
    detail = f"pairing={rep.witness.pairing} bound={rep.bound_value:.9f}"
    assert report("criterion 4", ok, detail, elapsed, 5.0)


def test_criterion_5_closed_form_bounds():
    start = time.perf_counter()
    quadratic_ref = 5 * math.pi / (math.pi + 6 * math.sqrt(3))
    pairsum_ref = math.pi / (2 * math.sqrt(2))
    ok = abs(quadratic_witness_lower(2).bound_value - quadratic_ref) <= 1e-12
    ok &= abs(pairsum_witness_lower(2).bound_value - pairsum_ref) <= 1e-12
    for d in range(2, 22, 2):
        ok &= quadratic_witness_lower(d).bound_value > pairsum_witness_lower(d).bound_value
    elapsed = time.perf_counter() - start
    detail = f"c2={quadratic_witness_lower(2).bound_value:.9f} pairsum={pairsum_ref:.9f}"
    assert report("criterion 5", ok, detail, elapsed, 1.0)


def test_criterion_6_inverse_norm_bound():
    start = time.perf_counter()
    ok = True
    for i in range(11):
        q = 1.0 + i / 10.0
        ok &= 1 / hq_norm_basic(q).value >= hq_inverse_lower(q) - 1e-8
    ok &= abs(hq_norm_basic(2.0).value - 1.0) <= 1e-10
    ok &= abs(hq_inverse_lower(2.0) - 1.0) <= 1e-10
    elapsed = time.perf_counter() - start
    assert report("criterion 6", ok, "tangent bound holds on the q grid", elapsed, 2.0)


def test_criterion_7_divergent_family():
    start = time.perf_counter()
    sqrt6_over_pi = math.sqrt(6) / math.pi
    ok = True
    previous = 0.0
    for K in range(1, 7):
        h2 = cex_truncation(K).h2_norm()
        expected = sqrt6_over_pi * math.sqrt(sum(1 / k**2 for k in range(1, K + 1)))
        ok &= abs(h2 - expected) <= 1e-12
        ok &= previous < h2 < 1.0
        previous = h2
    v = classify(cex_truncation(2))
    ok &= v.status == "minimal" and abs(v.gap) <= 1e-9
    ratios = [cex_ratio(k, 1.0) for k in range(1, 201)]
    ok &= max(ratios) > 1e3
    elapsed = time.perf_counter() - start
    detail = f"h2(K=6)={previous:.9f} gap={v.gap:.2e} max_ratio={max(ratios):.3e}"
    assert report("criterion 7", ok, detail, elapsed, 60.0)


@pytest.mark.parametrize("K", range(3, 9))
def test_cex_truncations_are_minimal(K):
    # the closure grows to 9833 indices at K=8, over MAX_BASIS, but the components stay small
    v = classify(cex_truncation(K))
    assert v.status == "minimal" and abs(v.gap) <= 1e-12


def test_criterion_8_completion_series():
    start = time.perf_counter()
    pair = z(2, 0) + z(2, 1)
    ok = all(psi_projection(PsiSeries(K)) == pair for K in (1, 2, 10))
    # The modulus of the limit jumps in sign at u = pi, grid point N/2. Its
    # neighbours lie at half-angle pi/N, where the Dirichlet tail of the
    # symmetric partial sum is ~ N/((2K+1) pi): 8e-3 at K=1e4, N=512. So
    # the grid max there is checked against the method's stated envelope
    # N/(2 pi K), and the 2e-3 target at K=1e5, where the envelope is 8.1e-4.
    est = psi_sup_estimate(10**4, 512)
    envelope = 512 / (2 * math.pi * 10**4)
    diff = abs(est.value - math.pi / 2)
    envelope_ok = math.isclose(est.error_bound, envelope, rel_tol=1e-12)
    sup_ok = diff <= est.error_bound
    fine = psi_sup_estimate(10**5, 512)
    fine_diff = abs(fine.value - math.pi / 2)
    fine_ok = fine_diff <= 2e-3 and fine_diff < diff
    elapsed = time.perf_counter() - start
    detail = (
        f"projection exact; K=1e4: gridmax={est.value:.6f} vs pi/2={math.pi / 2:.6f} "
        f"(|diff|={diff:.2e}, tol {est.error_bound:.2e}); "
        f"K=1e5: gridmax={fine.value:.6f} (|diff|={fine_diff:.2e}, tol 2e-3)"
    )
    report("criterion 8", ok and envelope_ok and sup_ok and fine_ok, detail, elapsed, 60.0)
    assert ok, "projection must be the pair sum"
    assert envelope_ok, f"error bound {est.error_bound} is not N/(2 pi K) = {envelope}"
    assert sup_ok, f"grid sup {est.value} misses pi/2 by {diff:.2e} > {est.error_bound:.2e}"
    assert fine_diff <= 2e-3, f"grid sup {fine.value} at K=1e5 misses pi/2 by {fine_diff:.2e} > 2e-3"
    assert fine_diff < diff, f"deviation grew from {diff:.2e} at K=1e4 to {fine_diff:.2e} at K=1e5"
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.1f}s >= 60s"


# -- criterion 9: property suites ---------------------------------------------


def _random_homogeneous(rng):
    d = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    return random_symbol(rng, d, homogeneous=m, n_terms=int(rng.integers(1, 5)))


def test_c9_block_max_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(100):
        s = _random_homogeneous(rng)
        m = s.is_homogeneous()
        block_max = max(spectral_norm(build_block(s, k)).value for k in range(m + 1))
        if abs(operator_norm(s).value - block_max) > 1e-10:
            failures += 1
    elapsed = time.perf_counter() - start
    assert report("criterion 9/block-max", failures == 0, f"failures={failures}/100", elapsed, 40.0)


def test_c9_adjoint_symmetry():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    failures = 0
    for _ in range(100):
        s = _random_homogeneous(rng)
        m = s.is_homogeneous()
        reflected = s.reflect()
        for k in range(m + 1):
            left = spectral_norm(build_block(s, k)).value
            right = spectral_norm(build_block(reflected, m - k)).value
            if abs(left - right) > 1e-10:
                failures += 1
    elapsed = time.perf_counter() - start
    assert report("criterion 9/adjoint", failures == 0, f"failures={failures}/100", elapsed, 40.0)


def test_c9_multiplicativity():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    failures = 0
    for _ in range(100):
        a = random_symbol(rng, 4, max_degree=2, variables=[0, 1], n_terms=3)
        b = random_symbol(rng, 4, max_degree=2, variables=[2, 3], n_terms=3)
        left = operator_norm(a * b).value
        right = operator_norm(a).value * operator_norm(b).value
        if abs(left - right) > 1e-9:
            failures += 1
    elapsed = time.perf_counter() - start
    assert report("criterion 9/multiplicativity", failures == 0, f"failures={failures}/100", elapsed, 40.0)


def test_c9_square_subadditivity():
    start = time.perf_counter()
    rng = np.random.default_rng(2027)
    failures = 0
    for _ in range(100):
        a = random_symbol(rng, 4, max_degree=2, variables=[0, 1], n_terms=3, no_constant=True)
        b = random_symbol(rng, 4, max_degree=2, variables=[2, 3], n_terms=3, no_constant=True)
        total = operator_norm(a + b).value ** 2
        parts = operator_norm(a).value ** 2 + operator_norm(b).value ** 2
        if total > parts + 1e-9:
            failures += 1
    elapsed = time.perf_counter() - start
    assert report("criterion 9/subadditivity", failures == 0, f"failures={failures}/100", elapsed, 40.0)


def test_c9_norm_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(2028)
    failures = 0
    for _ in range(100):
        d = int(rng.integers(1, 3))
        s = random_symbol(rng, d, max_degree=3, n_terms=4)
        op = operator_norm(s).value
        if s.h2_norm() > op + 1e-10:
            failures += 1
        sup = hp_norm(s, math.inf, QuadratureSpec(points_per_dimension=128))
        if op > sup.value + sup.error_bound + 1e-10:
            failures += 1
    elapsed = time.perf_counter() - start
    assert report("criterion 9/sandwich", failures == 0, f"failures={failures}/100", elapsed, 40.0)


def test_c9_parseval():
    start = time.perf_counter()
    rng = np.random.default_rng(2029)
    failures = 0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        s = random_symbol(rng, d, max_degree=4, n_terms=4)
        est = hp_norm(s, 2, QuadratureSpec(points_per_dimension=64))
        if abs(est.value - s.h2_norm()) > est.error_bound:
            failures += 1
    elapsed = time.perf_counter() - start
    assert report("criterion 9/parseval", failures == 0, f"failures={failures}/100", elapsed, 40.0)


def test_c9_recipe_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(2030)
    failures = 0
    for _ in range(100):
        s = build_recipe(random_recipe(rng))
        v = classify(s)
        if v.status != "minimal" or v.gap > 1e-9:
            failures += 1
    elapsed = time.perf_counter() - start
    assert report("criterion 9/recipe", failures == 0, f"failures={failures}/100", elapsed, 60.0)


def test_c9_one_variable_exhaustive():
    start = time.perf_counter()
    failures = 0
    cases = 0
    for coeffs in itertools.product((-1.0, 0.0, 1.0), repeat=6):
        s = make_symbol(1, [((e,), c) for e, c in enumerate(coeffs)])
        if s.is_zero:
            continue
        cases += 1
        predicted = d1_monomial_test(s)
        actual = classify(s).status == "minimal"
        if predicted != actual:
            failures += 1
    elapsed = time.perf_counter() - start
    assert report(
        "criterion 9/one-variable", failures == 0, f"failures={failures}/{cases}", elapsed, 40.0
    )


def test_c9_total_runtime():
    suites = {k: v for k, v in SUITE_TIMES.items() if k.startswith("criterion 9/")}
    total = sum(suites.values())
    print(f"[criterion 9] total property-suite runtime {total:.1f}s over {len(suites)} suites")
    assert total < 120.0
