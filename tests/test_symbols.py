import math
import time

import numpy as np
import pytest

from hankel_lab import (
    DomainError,
    ParseError,
    Symbol,
    build_recipe,
    cex_truncation,
    format_symbol,
    make_symbol,
    parse_recipe,
    parse_symbol,
    separate_variables,
    split_factors,
)
from helpers import (
    embedded_product,
    eval_direct,
    grid_mean_abs_pow,
    RECIPE_PRODUCT,
    hom2_product,
    one_variable_product,
    pair_product,
    phi2,
    phi3,
    random_symbol,
    z,
)


def sym_allclose(a, b, tol=1e-12):
    if a.dim != b.dim:
        return False
    keys = set(a.support) | set(b.support)
    return all(abs(a.coeff(k) - b.coeff(k)) <= tol for k in keys)


class TestConstruction:
    def test_pair_sum(self):
        s = make_symbol(2, [((1, 0), 1), ((0, 1), 1)])
        assert s.coeff((1, 0)) == 1 and s.coeff((0, 1)) == 1
        assert len(s.support) == 2

    def test_empty_is_zero(self):
        s = make_symbol(1, [])
        assert s.is_zero
        assert s.h2_norm() == 0.0

    def test_cancellation_drops_to_zero(self):
        s = make_symbol(2, [((1, 0), 1), ((1, 0), -1)])
        assert s.is_zero

    def test_duplicates_summed(self):
        s = make_symbol(1, [((2,), 1.5), ((2,), 0.5)])
        assert s.coeff((2,)) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            make_symbol(2, [((1, 0, 0), 1)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            make_symbol(2, [((1, -1), 1)])

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            Symbol(2, [((1, 0), float("nan"))])
        with pytest.raises(DomainError, match="not finite"):
            Symbol(1, [((0,), complex(0, float("inf")))])
        with pytest.raises(DomainError, match="not finite"):  # a sum that overflows
            Symbol(1, [((1,), 1e308), ((1,), 1e308)])

    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            Symbol(0)

    def test_grlex_support_order(self):
        s = make_symbol(2, [((0, 1), 1), ((1, 0), 1), ((2, 0), 1),
                            ((1, 1), 1), ((0, 2), 1), ((0, 0), 1)])
        assert s.support == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_componentwise_comparison(self):
        from hankel_lab import dominated_by

        assert dominated_by((1, 0), (2, 1))
        assert not dominated_by((1, 2), (2, 1))
        assert dominated_by((0, 0), (0, 0))


class TestTermOrder:
    def test_products_do_not_depend_on_the_order_given(self):
        rng = np.random.default_rng(419)
        for _ in range(20):
            f, g = (random_symbol(rng, 2, max_degree=3, n_terms=5) for _ in range(2))
            shuffled = [Symbol(2, [f.terms()[i] for i in rng.permutation(len(f.terms()))]) for _ in range(2)]
            assert (shuffled[0] * g).terms() == (shuffled[1] * g).terms()


class TestAlgebra:
    def test_add(self):
        assert z(2, 0) + z(2, 1) == make_symbol(2, [((1, 0), 1), ((0, 1), 1)])

    def test_mul_separate_pairs(self):
        left = z(4, 0) + z(4, 1)
        right = z(4, 2) + z(4, 3)
        expect = make_symbol(4, [((1, 0, 1, 0), 1), ((1, 0, 0, 1), 1),
                                 ((0, 1, 1, 0), 1), ((0, 1, 0, 1), 1)])
        assert left * right == expect

    def test_mul_by_zero(self):
        assert ((z(2, 0) + z(2, 1)) * Symbol.zero(2)).is_zero

    def test_dim_mismatch_raises(self):
        with pytest.raises(DomainError):
            z(2, 0) + z(3, 0)
        with pytest.raises(DomainError):
            z(2, 0) * z(3, 0)

    def test_scalar_multiplication(self):
        s = 2j * z(1, 0)
        assert s.coeff((1,)) == 2j

    def test_ring_laws_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_symbol(rng, 3)
            b = random_symbol(rng, 3)
            c = random_symbol(rng, 3)
            assert sym_allclose(a * b, b * a)
            assert sym_allclose((a * b) * c, a * (b * c), tol=1e-9)
            assert sym_allclose(a * (b + c), a * b + a * c, tol=1e-10)


class TestNormsAndParts:
    def test_h2_examples(self):
        assert (z(2, 0) + z(2, 1)).h2_norm() == pytest.approx(math.sqrt(2), abs=1e-15)
        for a in (0.0, 0.3, 1.7):
            assert phi2(a).h2_norm() == pytest.approx(math.sqrt(2 + a * a), abs=1e-14)
        assert Symbol.zero(3).h2_norm() == 0.0

    def test_h2_beyond_squared_overflow(self):
        # |c|^2 overflows a double above about 1.34e154
        assert make_symbol(2, [((1, 1), 1e200)]).h2_norm() == 1e200
        s = make_symbol(2, [((0, 0), 1e200), ((1, 0), -1e200j), ((1, 1), 3e199)])
        assert s.h2_norm() == pytest.approx(1e200 * math.sqrt(2.09), rel=1e-15)
        with pytest.raises(DomainError):  # the norm itself is beyond the double range
            make_symbol(1, [((0,), 1.7e308), ((1,), 1.7e308)]).h2_norm()

    def test_h2_below_1e150_is_the_plain_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            moduli = 10.0 ** rng.uniform(-300, 150, size=int(rng.integers(1, 8)))
            phases = rng.uniform(0, 2 * math.pi, size=len(moduli))
            coefs = moduli * np.exp(1j * phases)
            s = make_symbol(1, [((k,), complex(c)) for k, c in enumerate(coefs)])
            assert s.h2_norm() == math.sqrt(math.fsum(abs(c) ** 2 for _, c in s.terms()))

    def test_h2_multiplicative_on_separate_variables(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_symbol(rng, 5, variables=[0, 1])
            b = random_symbol(rng, 5, variables=[2, 3, 4])
            assert separate_variables(a, b)
            got = (a * b).h2_norm()
            assert got == pytest.approx(a.h2_norm() * b.h2_norm(), rel=1e-12)

    def test_variable_support(self):
        assert (z(4, 0) + z(4, 1)).variable_support() == frozenset({0, 1})
        assert Symbol.zero(4).variable_support() == frozenset()

    def test_separate_variables_examples(self):
        assert separate_variables(z(4, 0) + z(4, 1), z(4, 2) + z(4, 3))
        assert not separate_variables(z(4, 0) + z(4, 1), z(4, 1) + z(4, 2))
        assert separate_variables(Symbol.zero(4), z(4, 1))

    def test_homogeneous_parts(self):
        s = make_symbol(2, [((0, 0), 1), ((1, 0), 1), ((1, 1), 1)])
        assert s.homogeneous_part(1) == z(2, 0)
        assert s.homogeneous_part(2) == make_symbol(2, [((1, 1), 1)])
        assert s.is_homogeneous() is None
        assert phi2(0.4).is_homogeneous() == 2
        assert phi3(0.2).is_homogeneous() == 3
        assert Symbol.zero(2).is_homogeneous() == 0

    def test_degree_additivity_for_homogeneous_products(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_symbol(rng, 4, homogeneous=int(rng.integers(1, 4)))
            b = random_symbol(rng, 4, homogeneous=int(rng.integers(1, 4)))
            prod = a * b
            if not prod.is_zero:
                assert prod.is_homogeneous() == a.is_homogeneous() + b.is_homogeneous()

    def test_reflect(self):
        real = phi2(0.7)
        assert real.reflect() == real
        assert (1j * z(1, 0)).reflect() == -1j * z(1, 0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_symbol(rng, 3)
            assert s.reflect().reflect() == s
            assert s.reflect().h2_norm() == pytest.approx(s.h2_norm(), abs=0)


class TestEvaluate:
    def test_pair_values(self):
        s = z(2, 0) + z(2, 1)
        assert s.evaluate((0.0, 0.0)) == pytest.approx(2.0, abs=1e-15)
        assert abs(s.evaluate((0.0, math.pi))) < 1e-15

    def test_quadratic_modulus_identity(self):
        f = phi2(1.0)
        for theta in np.linspace(0, 2 * math.pi, 17):
            got = abs(f.evaluate((theta, 0.0)))
            assert got == pytest.approx(abs(2 * math.cos(theta) + 1), abs=1e-12)

    def test_angle_count_checked(self):
        with pytest.raises(DomainError):
            z(2, 0).evaluate((0.0,))

    def test_matches_independent_evaluator(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = random_symbol(rng, 3)
            angles = rng.uniform(0, 2 * math.pi, size=3)
            assert s.evaluate(angles) == pytest.approx(eval_direct(s, angles), abs=1e-12)

    def test_parseval_against_grid_oracle(self):
        # exact for trig polynomials once the grid resolves twice the degree
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3):
            s = random_symbol(rng, dim, max_degree=3, n_terms=4)
            mean_sq = grid_mean_abs_pow(s, 8, 2)
            assert math.sqrt(mean_sq) == pytest.approx(s.h2_norm(), rel=1e-10)


class TestEmbed:
    def test_embed_appends_zeros(self):
        s = phi2(0.5).embed(4)
        assert s.dim == 4
        assert s.coeff((2, 0, 0, 0)) == 1.0
        assert s.h2_norm() == pytest.approx(phi2(0.5).h2_norm(), abs=0)

    def test_embed_shrink_rejected(self):
        with pytest.raises(DomainError):
            phi2(0.5).embed(1)


class TestTextFormat:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            s = random_symbol(rng, 3)
            assert parse_symbol(format_symbol(s)) == s

    def test_round_trip_awkward_floats(self):
        s = make_symbol(2, [((1, 0), complex(0.1, 1 / 3)), ((0, 2), complex(-1e-17, 2**-52))])
        assert parse_symbol(format_symbol(s)) == s

    def test_comments_and_blanks(self):
        text = "# heading\n\ndim 2\n# a term\n1.0 0.0 : 1 0\n"
        assert parse_symbol(text) == z(2, 0)

    def test_duplicate_lines_summed(self):
        text = "dim 1\n1.0 0.0 : 2\n0.5 0.0 : 2\n"
        assert parse_symbol(text).coeff((2,)) == 1.5

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("dim x\n", 1),
            ("dim 2\n1.0 : 1 0\n", 2),
            ("dim 2\n1.0 0.0 : 1\n", 2),
            ("dim 2\n1.0 0.0 : 1 -1\n", 2),
            ("dim 2\nbork 0.0 : 1 0\n", 2),
            ("dim 2\n# fine\n1.0 0.0 1 0\n", 3),
            ("dim 2\n1.0 0.0 : 1 0\n0.0 inf : 0 1\n", 3),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(ParseError) as err:
            parse_symbol(text)
        assert f"line {lineno}" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_symbol("# nothing here\n")


class TestSplitFactors:
    def assert_split(self, s, groups):
        """s splits into exactly these groups, and factors times delta give s back."""
        factors, delta = split_factors(s)
        assert [variables for variables, _ in factors] == groups
        assert all(f.dim == len(variables) for variables, f in factors)
        assert delta.h2_norm() <= 1e-14 * s.h2_norm()
        assert sym_allclose(embedded_product(s.dim, factors) + delta, s, tol=1e-14 * s.h2_norm())
        return factors, delta

    def test_one_variable_factors(self):
        rng = np.random.default_rng(401)
        for degrees in ([3, 1], [2, 3, 2], [2, 2, 1, 1], [5, 5, 5, 4]):
            self.assert_split(one_variable_product(rng, degrees), [(j,) for j in range(len(degrees))])

    def test_pair_products(self):
        _, delta = self.assert_split(pair_product(3), [(0, 1), (2, 3), (4, 5)])
        assert delta.is_zero

    def test_two_homogeneous_factors(self):
        rng = np.random.default_rng(403)
        self.assert_split(hom2_product(rng, [2, 3]), [(0, 1), (2, 3)])
        self.assert_split(hom2_product(rng, [1, 2, 2]), [(0, 1), (2, 3), (4, 5)])

    def test_recipe_product_of_sums(self):
        s = build_recipe(parse_recipe(RECIPE_PRODUCT))
        _, delta = self.assert_split(s, [(0, 1), (2, 3, 4)])
        assert delta.is_zero

    def test_single_exponent_variables_join_the_first_group(self):
        # z1^2 (1 + z2)(1 + z3) in d=4: z1 takes one exponent, z4 none
        one = Symbol.one(4)
        s = z(4, 0) * z(4, 0) * (one + z(4, 1)) * (one + 3 * z(4, 2))
        self.assert_split(s, [(0, 1, 3), (2,)])

    def test_groups_that_do_not_split_off_are_merged(self):
        # every pair of z1, z2, z3 projects onto a full square, but the
        # parity support is not a product; (1 + z4) still splits off
        parity = make_symbol(4, [((0, 0, 0, 0), 1), ((1, 1, 0, 0), 1), ((1, 0, 1, 0), 1), ((0, 1, 1, 0), 1)])
        self.assert_split(parity * (Symbol.one(4) + z(4, 3)), [(0, 1, 2), (3,)])

    def test_cex_truncation_does_not_split(self):
        s = cex_truncation(6)
        start = time.perf_counter()
        factors, delta = split_factors(s)
        assert time.perf_counter() - start < 1.0  # d=42: no enumeration of variable subsets
        assert factors == [(tuple(range(42)), s)] and delta.is_zero

    def test_product_support_with_other_coefficients(self):
        # the support {0,1}^2 is a product, the coefficients are not: the
        # rank-1 fit leaves a residual as large as the coefficients
        s = make_symbol(2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])
        factors, delta = split_factors(s)
        assert [variables for variables, _ in factors] == [(0,), (1,)]
        assert delta.h2_norm() >= 0.5
        assert sym_allclose(embedded_product(2, factors) + delta, s)

    def test_residual_is_the_per_term_product(self):
        # delta against the loop over terms, with Python's complex products
        rng = np.random.default_rng(409)
        symbols = [one_variable_product(rng, degrees) for degrees in ([3, 2, 2], [5, 5, 5, 4], [2, 2, 1, 1, 1])]
        symbols += [hom2_product(rng, [2, 3]), make_symbol(2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])]
        for s in symbols[:2]:  # perturbed off the product
            terms = [(a, c * (1 + 1e-9j) if i % 3 else c) for i, (a, c) in enumerate(s.terms())]
            symbols.append(make_symbol(s.dim, terms))
        for s in symbols:
            factors, delta = split_factors(s)
            assert len(factors) > 1
            for alpha, c in s.terms():
                fitted = math.prod(f.coeff(tuple(alpha[j] for j in group)) for group, f in factors)
                assert delta.coeff(alpha) == c - fitted
            assert set(delta.support) <= set(s.support)

    @pytest.mark.parametrize("e", [2**63, 10**23])
    def test_exponents_beyond_int64(self, e):
        # (1 + z1^e)(1 + z2): numpy reads 2^63 as a float and 10^23 as an object
        s = make_symbol(2, [((0, 0), 1.0), ((e, 0), 1.0), ((0, 1), 1.0), ((e, 1), 1.0)])
        factors, delta = split_factors(s)
        assert factors == [((0,), make_symbol(1, [((0,), 1.0), ((e,), 1.0)])), ((1,), make_symbol(1, [((0,), 1.0), ((1,), 1.0)]))]
        assert delta.is_zero

    def test_monomials_and_zero_do_not_split(self):
        for s in (Symbol.zero(3), z(3, 0) * z(3, 1), Symbol.one(2)):
            factors, delta = split_factors(s)
            assert len(factors) == 1 and factors[0][1] == s and delta.is_zero
