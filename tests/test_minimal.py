import math

import numpy as np
import pytest

from hankel_lab import (
    MAX_RECIPE_DEPTH,
    BudgetError,
    DomainError,
    ParseError,
    RecipeLeaf,
    RecipeNode,
    Symbol,
    build_recipe,
    classify,
    build_block,
    classify_homogeneous,
    d1_monomial_test,
    format_recipe,
    make_symbol,
    operator_norm,
    parse_recipe,
    spectral_norm,
    split_factors,
)
from helpers import brute_norm, component_block_norms, embedded_product, pair_product, phi2, phi3, random_symbol, z

GOLDEN = (1 + math.sqrt(5)) / 2


class TestClassify:
    def test_pair_sum_minimal(self):
        v = classify(z(2, 0) + z(2, 1))
        assert v.status == "minimal"
        assert abs(v.gap) <= 1e-12

    def test_quadratic_at_one_not_minimal(self):
        v = classify(phi2(1.0))
        assert v.status == "not-minimal"
        assert v.gap == pytest.approx(2.0 - math.sqrt(3), rel=1e-10)

    def test_monomial_minimal(self):
        v = classify(make_symbol(1, [((3,), 3.0)]))
        assert v.status == "minimal"
        assert v.note == "boundary"

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            classify(Symbol.zero(2))

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            classify(z(1, 0), tol=1e-13)

    def test_nan_tolerance_rejected(self):
        # NaN fails every comparison, so a floor written as tol < 1e-12 lets it in
        for check in (classify, classify_homogeneous):
            with pytest.raises(DomainError, match="tolerance must be >= 1e-12, got nan"):
                check(phi2(0.2), tol=math.nan)

    def test_gap_never_below_minus_tol(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            v = classify(random_symbol(rng, 2))
            assert v.gap >= -1e-9


class TestClassifyHomogeneous:
    def test_quadratic_boundary(self):
        v = classify_homogeneous(phi2(0.5))
        assert v.status == "minimal"
        assert v.note == "boundary"
        assert v.block_norms == [(1, pytest.approx(1.5, abs=1e-12))]

    def test_cubic_boundary(self):
        b = math.sqrt(2) - 1
        v = classify_homogeneous(phi3(b))
        assert v.status == "minimal"
        # block norm squared hits 1 + 2b + 3b^2 = 2 + 2b^2 at the threshold
        assert v.block_norms[0][1] ** 2 == pytest.approx(2 + 2 * b * b, abs=1e-12)

    def test_linear_always_minimal(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            coeffs = rng.uniform(-3, 3, size=4) + 1j * rng.uniform(-3, 3, size=4)
            s = make_symbol(4, [(tuple(int(i == j) for i in range(4)), coeffs[j]) for j in range(4)])
            if s.is_zero:
                continue
            v = classify_homogeneous(s)
            assert v.status == "minimal"
            assert v.block_norms == []
            assert v.note == "no decisive blocks"

    def test_non_homogeneous_rejected(self):
        with pytest.raises(DomainError):
            classify_homogeneous(Symbol.one(2) + z(2, 0))

    def test_agrees_with_classify(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            s = random_symbol(rng, 3, homogeneous=int(rng.integers(1, 5)))
            assert classify_homogeneous(s).status == classify(s).status


def homogeneous_product(rng, dims, degrees):
    """Product of random complex homogeneous factors, factor i of degree degrees[i] on its own dims[i] variables."""
    starts = np.cumsum([0, *dims])
    factors = [
        (tuple(range(a, a + d)), random_symbol(rng, d, homogeneous=m, n_terms=5))
        for a, d, m in zip(starts, dims, degrees)
    ]
    return embedded_product(int(starts[-1]), factors)


class TestFactoredBlockNorms:
    """Homogeneous products classified from their factors' block norms."""

    @pytest.mark.parametrize(
        "dims, degrees", [((2, 2), (4, 3)), ((2, 3), (5, 2)), ((2, 2, 2), (2, 3, 2)), ((3, 2, 2), (3, 1, 4))]
    )
    def test_block_norms_are_whole_block_norms(self, dims, degrees):
        rng = np.random.default_rng(sum(degrees) + 10 * len(dims))
        for _ in range(4):
            s = homogeneous_product(rng, dims, degrees)
            v = classify_homogeneous(s)
            assert [k for k, _ in v.block_norms] == list(range(1, sum(degrees) // 2 + 1))
            for (k, norm), bound in zip(v.block_norms, v.block_bounds):
                whole = spectral_norm(build_block(s, k)).value
                assert norm == pytest.approx(whole, rel=1e-12)
                # the printed bound covers the distance to the whole-block SVD
                assert abs(norm - whole) <= bound
                assert bound > 1e-12 * norm  # product_error of two or more factor bounds
            assert v.status == classify(s).status

    def test_quadratic_products(self):
        v = classify_homogeneous(embedded_product(4, [((0, 1), phi2(0.5)), ((2, 3), phi2(0.5))]))
        assert (v.status, v.note) == ("minimal", "boundary")
        v = classify_homogeneous(embedded_product(4, [((0, 1), phi2(0.6)), ((2, 3), phi2(0.5))]))
        assert v.status == "not-minimal"

    def test_near_product_takes_the_component_path(self):
        rng = np.random.default_rng(79)
        s = homogeneous_product(rng, (2, 2), (4, 3))
        alpha, c = s.terms()[3]
        near = make_symbol(4, [(a, c + 1e-6 if a == alpha else b) for a, b in s.terms()])
        assert len(split_factors(near)[0]) == 2  # the support still splits; the fit gate refuses it
        v = classify_homogeneous(near)
        assert v.block_norms == component_block_norms(near)
        assert v.block_bounds == [1e-12 * norm for _, norm in v.block_norms]


class TestThresholds:
    def test_quadratic_flip_at_half(self):
        for a in np.arange(0.0, 1.05, 0.1):
            status = classify_homogeneous(phi2(a)).status
            assert status == ("minimal" if a <= 0.5 else "not-minimal")

    def test_cubic_flip_straddle(self):
        assert classify_homogeneous(phi3(0.414)).status == "minimal"
        assert classify_homogeneous(phi3(0.415)).status == "not-minimal"

    def test_scalar_invariance(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            s = random_symbol(rng, 2)
            c = complex(rng.uniform(0.1, 3), rng.uniform(-3, 3))
            assert classify(c * s).status == classify(s).status

    def test_permutation_invariance(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            s = random_symbol(rng, 3)
            perm = rng.permutation(3)
            permuted = make_symbol(3, [(tuple(a[perm[i]] for i in range(3)), c) for a, c in s.terms()])
            assert classify(permuted).status == classify(s).status


class TestD1Monomial:
    def test_monomial(self):
        s = make_symbol(1, [((3,), 3.0)])
        assert d1_monomial_test(s)
        assert classify(s).status == "minimal"

    def test_one_plus_z(self):
        s = Symbol.one(1) + z(1, 0)
        assert not d1_monomial_test(s)
        assert operator_norm(s).value == pytest.approx(GOLDEN, rel=1e-12)
        assert classify(s).status == "not-minimal"

    def test_z_plus_z_squared(self):
        s = make_symbol(1, [((1,), 1.0), ((2,), 1.0)])
        assert not d1_monomial_test(s)
        assert classify(s).status == "not-minimal"
        assert operator_norm(s).value == pytest.approx(brute_norm(s), rel=1e-12)
        assert operator_norm(s).value > math.sqrt(2) + 1e-6

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            d1_monomial_test(z(2, 0))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            d1_monomial_test(Symbol.zero(1))


class TestRecipe:
    def test_basic_sum(self):
        expr = RecipeNode("sum", (RecipeLeaf(1.0, (1, 0)), RecipeLeaf(1.0, (0, 1))))
        assert build_recipe(expr) == z(2, 0) + z(2, 1)

    def test_pair_product(self):
        expr = RecipeNode(
            "prod",
            (
                RecipeNode("sum", (RecipeLeaf(1.0, (1, 0, 0, 0)), RecipeLeaf(1.0, (0, 1, 0, 0)))),
                RecipeNode("sum", (RecipeLeaf(1.0, (0, 0, 1, 0)), RecipeLeaf(1.0, (0, 0, 0, 1)))),
            ),
        )
        s = build_recipe(expr)
        assert s == pair_product(2)
        assert operator_norm(s).value == pytest.approx(2.0, rel=1e-12)

    def test_shared_variable_named(self):
        expr = RecipeNode(
            "sum",
            (
                RecipeLeaf(1.0, (1, 0, 0)),
                RecipeNode("sum", (RecipeLeaf(1.0, (1, 0, 0)), RecipeLeaf(1.0, (0, 0, 1)))),
            ),
        )
        with pytest.raises(DomainError) as err:
            build_recipe(expr)
        assert "z1" in str(err.value)
        assert "root" in str(err.value)

    def test_degree_zero_leaf_rejected(self):
        expr = RecipeNode("sum", (RecipeLeaf(1.0, (0, 0)), RecipeLeaf(1.0, (0, 1))))
        with pytest.raises(DomainError) as err:
            build_recipe(expr)
        assert "origin" in str(err.value)

    def test_negative_exponent_leaf_rejected(self):
        # a programmatic leaf never passes the parser, so the walk checks it
        expr = RecipeNode("sum", (RecipeLeaf(1.0, (2, -1)), RecipeLeaf(1.0, (0, 0))))
        with pytest.raises(DomainError, match=r"root\.sum\[0\]: negative exponent"):
            build_recipe(expr)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(DomainError):
            build_recipe(RecipeNode("sum", (RecipeLeaf(0.0, (1, 0)),)))

    def test_mixed_leaf_dimension_rejected(self):
        expr = RecipeNode("sum", (RecipeLeaf(1.0, (1, 0)), RecipeLeaf(1.0, (0, 0, 1))))
        with pytest.raises(DomainError):
            build_recipe(expr)

    def test_text_round_trip(self):
        expr = RecipeNode(
            "prod",
            (
                RecipeLeaf(0.5 + 0.25j, (2, 0, 0)),
                RecipeNode("sum", (RecipeLeaf(1.0, (0, 1, 0)), RecipeLeaf(-1.0, (0, 0, 3)))),
            ),
        )
        assert parse_recipe(format_recipe(expr)) == expr

    def test_parse_multiline_with_comments(self):
        text = "# product of two separated sums\n(prod\n  (sum (mono 1.0 0.0 : 1 0) )\n  (sum (mono 1.0 0.0 : 0 2) ))\n"
        s = build_recipe(parse_recipe(text))
        assert s == make_symbol(2, [((1, 2), 1.0)])

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(sum",
            "(frob (mono 1 0 : 1))",
            "(mono 1.0 : 1 0)",
            "(mono 1.0 0.0 : )",
            "(sum (mono 1 0 : 1)) trailing",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_recipe(bad)

    @pytest.mark.parametrize(
        "leaf, message",
        [
            ("(mono 1.0 0.0 : 1 -1)", "negative exponent in (1, -1)"),
            ("(mono 1.0 zero : 0 1)", "bad coefficient '1.0 zero'"),
            ("(mono nan 0.0 : 0 1)", "coefficient 'nan 0.0' is not finite"),
            ("(mono 1.0 0.0 : )", "expected at least one exponent after ':'"),
            ("(mono 1.0 0.0 0 1)", "expected '<re> <im> : <exponents>'"),
            ("(mono 1.0 0.0 : 1 x)", "bad exponent list '1 x'"),
        ],
    )
    def test_leaf_errors_are_the_symbol_line_errors(self, leaf, message):
        # the leaf on line 2 fails with a symbol-file term message, naming its line
        with pytest.raises(ParseError) as err:
            parse_recipe(f"(sum (mono 1.0 0.0 : 1 0)\n     {leaf})")
        assert str(err.value) == f"line 2: {message}"

    def test_nesting_at_budget_parses(self):
        text = "(sum " * MAX_RECIPE_DEPTH + "(mono 1.0 0.0 : 1 0)" + ")" * MAX_RECIPE_DEPTH
        assert build_recipe(parse_recipe(text)) == make_symbol(2, [((1, 0), 1.0)])

    def test_nesting_beyond_budget_is_budget_error(self):
        # one node per line: the first node past the budget opens on line depth + 1
        depth = MAX_RECIPE_DEPTH + 1
        text = "(sum\n" * depth + "(mono 1.0 0.0 : 1 0)" + ")" * depth
        with pytest.raises(BudgetError, match=rf"line {depth + 1}: recipe nesting \(MAX_RECIPE_DEPTH\)"):
            parse_recipe(text)

    def test_recipe_symbols_are_minimal(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            expr = random_recipe(rng)
            v = classify(build_recipe(expr))
            assert v.status == "minimal"
            assert v.gap <= 1e-9


def random_recipe(rng, max_leaves=8, dim=8):
    """Random valid recipe: leaves own disjoint variable blocks by construction."""
    n_leaves = int(rng.integers(2, max_leaves + 1))
    variables = list(rng.permutation(dim))
    leaves = []
    for i in range(n_leaves):
        own = variables[i::n_leaves][: int(rng.integers(1, 3))]
        alpha = [0] * dim
        for j in own:
            alpha[j] = int(rng.integers(0, 2))
        if not any(alpha):
            alpha[own[0]] = 1
        coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(coeff) < 1e-3:
            coeff = 1.0
        leaves.append(RecipeLeaf(coeff, tuple(alpha)))
    nodes = list(leaves)
    while len(nodes) > 1:
        take = min(len(nodes), int(rng.integers(2, 4)))
        children = tuple(nodes[:take])
        nodes = nodes[take:]
        op = "sum" if rng.random() < 0.5 else "prod"
        nodes.append(RecipeNode(op, children))
    return nodes[0]
