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
    grlex_key,
    make_symbol,
    parse_recipe,
    parse_symbol,
    separate_variables,
    split_factors,
)
from hankel_lab.symbols import _root_sum_squares
from helpers import (
    circle_factor,
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
    perturbed,
    read_by_lines,
    root_sum_squares_reference,
    split_factors_reference,
    symbol_outcome,
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


BIG = 2**63


class TestBulkReader:
    """parse_symbol against a one-line-at-a-time reference: the same terms, bit for bit, or the same error."""

    def assert_as_reference(self, text):
        got = symbol_outcome(parse_symbol, text)
        assert got == symbol_outcome(read_by_lines, text)
        return got

    def test_format_symbol_layout(self):
        rng = np.random.default_rng(31)
        for dim in (1, 2, 3, 7):
            for _ in range(5):
                self.assert_as_reference(format_symbol(random_symbol(rng, dim)))
        signed_zeros = make_symbol(2, [((1, 0), complex(-0.0, 1.0)), ((0, 1), complex(2.5, -0.0)), ((0, 0), -1e-300)])
        self.assert_as_reference(format_symbol(signed_zeros))
        self.assert_as_reference("dim 2\n")
        self.assert_as_reference("dim 1000000000\n")

    @pytest.mark.parametrize(
        "text",
        [
            "# heading\ndim 2\n1.0 0.0 : 1 0\n",
            "dim 2\n\n1.0 0.0 : 1 0\n",
            "dim 2\n1.0 0.0 : 1 0\n# trailing\n",
            "dim 2\r\n1.0 0.0 : 1 0\r\n0.5 -0.0 : 0 1\r\n",
            "dim\t2\n1.0\t0.0\t:\t1\t0\n",
            "  dim 2  \n  1.0 0.0 : 1 0  \n",
        ],
        ids=["comment", "blank", "trailing-comment", "crlf", "tabs", "padding"],
    )
    def test_comments_blanks_line_ends_and_spacing(self, text):
        dim, terms = self.assert_as_reference(text)
        assert dim == 2 and terms[0][0] == (1, 0)

    @pytest.mark.parametrize(
        "text",
        [
            "dim 1\n1.0 0.0 : 2\n0.5 0.0 : 2\n",
            "dim 2\n1.0 -0.0 : 1 0\n-1.0 -0.0 : 1 0\n0.5 0.5 : 0 1\n",
            "dim 1\n-0.0 1.0 : 1\n-0.0 -1.0 : 1\n",
            "dim 1\n1.0 -0.0 : 1\n-1.0 2.0 : 1\n3.0 0.0 : 0\n",
            "dim 1\n1e308 0.0 : 1\n1e308 0.0 : 1\n",
        ],
        ids=["sum", "cancel-to-zero", "cancel-signed-zero", "partial-cancel", "sum-overflows"],
    )
    def test_duplicate_terms_are_summed_in_file_order(self, text):
        self.assert_as_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            f"dim 2\n1.0 0.0 : {BIG} 0\n2.0 0.0 : 0 {BIG + 1}\n3.0 0.0 : {2**64} {2**70}\n",
            "dim 2\n1.0 0.0 : +1 0\n2.0 0.0 : 0 1_0\n1.5 0.0 : 0 10\n",
            "dim 1\n1_0.5 +2 : 3\n",
        ],
        ids=["beyond-int64", "plus-and-underscore", "underscore-float"],
    )
    def test_integer_and_float_spellings(self, text):
        assert self.assert_as_reference(text)[0] in (1, 2)

    @pytest.mark.parametrize(
        "text",
        [
            "dim 2\n1.0 0.0 : 1 0\nnan 0.0 : 0 1\n",
            "dim 2\n1.0 0.0 : 1 0\n0.0 inf : 0 1\n",
            "dim 2\n-inf 0.0 : 1 0\n",
            "dim 2\n1.0 0.0 : 1 -1\n",
            "dim 2\n1.0 0.0 : 1 0\n1.0 0.0 1 0 7\n",
            "dim 2\n1.0 0.0 : 1\n",
            "dim 2\n1.0 0.0 : 1 0 0\n",
            "dim 2\n1 0 : 1 2 3\n4 : 5 6\n",
            "dim 2\n1: 0 : 1 2\n",
            "dim 2\n1.0 0.0 : 1 x\n",
            "dim 0\n",
            "dim two\n1.0 0.0 : 1 0\n",
            "dim 2 3\n",
            "",
        ],
        ids=[
            "nan", "inf", "minus-inf", "negative-exponent", "missing-colon", "too-few-exponents",
            "too-many-exponents", "tokens-shifted-between-lines", "colon-in-a-coefficient", "bad-exponent",
            "dim-zero", "bad-dim", "long-header", "empty",
        ],
    )
    def test_errors_match_the_line_reader(self, text):
        assert self.assert_as_reference(text)[0] == "ParseError"


class TestTrustedBuilders:
    """Symbols that the algebra builds from valid parts, against the public constructor."""

    SIGNED = make_symbol(
        2,
        [((0, 0), complex(1.0, 0.0)), ((1, 0), complex(0.0, 2.0)), ((0, 1), complex(-3.0, 0.0)), ((2, 0), 0.5)],
    )

    def test_negation_scaling_and_reflection_write_no_negative_zero(self):
        s = self.SIGNED
        for built, reference in [
            (-s, Symbol(2, [(a, -c) for a, c in s.terms()])),
            (s * -1, Symbol(2, [(a, c * -1) for a, c in s.terms()])),
            (s.reflect(), Symbol(2, [(a, c.conjugate()) for a, c in s.terms()])),
        ]:
            assert "-0.0" not in format_symbol(reference)
            assert format_symbol(built) == format_symbol(reference)

    @pytest.mark.parametrize("dim, shift", [(1, 40), (3, 7), (4, BIG), (90, 3)])
    def test_support_is_in_grlex_order(self, dim, shift):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            small = {tuple(rng.integers(0, 3, size=dim).tolist()) for _ in range(30)}
            support = small | {tuple(e + shift if e else 0 for e in a) for a in small}
            s = Symbol(dim, [(a, 1.0 + k) for k, a in enumerate(support)])
            assert s.support == tuple(sorted(support, key=grlex_key))
            for built in (s + s, s * s, -s, s.reflect(), s * 0.5, s.embed(dim + 1), s.homogeneous_part(2)):
                assert built.support == tuple(sorted(built.support, key=grlex_key))

    def test_overflow_message_is_the_constructors(self):
        big = Symbol(1, [((0,), 1e308), ((1,), -1e308)])
        for built, terms in [
            (lambda: big + big, big.terms() + big.terms()),
            (lambda: big * big, [((a[0] + b[0],), ca * cb) for a, ca in big.terms() for b, cb in big.terms()]),
            (lambda: big * 10, [(a, c * 10) for a, c in big.terms()]),
        ]:
            with pytest.raises(DomainError) as got:
                built()
            with pytest.raises(DomainError) as reference:
                Symbol(1, terms)
            assert str(got.value) == str(reference.value)

    @pytest.mark.parametrize("K", range(1, 9))
    def test_cex_truncation_matches_the_public_constructor(self, K):
        dim = K * (K + 1)

        def mul(f, g):
            return Symbol(dim, [(tuple(map(sum, zip(a, b))), ca * cb) for a, ca in f.terms() for b, cb in g.terms()])

        def scale(f, x):
            return Symbol(dim, [(a, c * x) for a, c in f.terms()])

        def unit(j):
            return tuple(int(i == j) for i in range(dim))

        total = Symbol(dim)
        for k in range(1, K + 1):
            block = Symbol.one(dim)
            for j in range((k - 1) * k // 2 + 1, k * (k + 1) // 2 + 1):
                pair = Symbol(dim, [(unit(2 * j - 2), 1.0), (unit(2 * j - 1), 1.0)])
                block = mul(block, scale(pair, 1.0 / math.sqrt(2.0)))
            total = Symbol(dim, total.terms() + scale(block, 1.0 / k).terms())
        reference = scale(total, math.sqrt(6.0) / math.pi)
        got = cex_truncation(K)
        assert symbol_outcome(lambda _: got, None) == symbol_outcome(lambda _: reference, None)


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

    def test_matches_the_reference(self):
        # the same groups, factor coefficients and delta, bit for bit, as split_factors first written
        rng = np.random.default_rng(419)
        one = Symbol.one
        symbols = [one_variable_product(rng, degrees) for degrees in ([4], [3, 2], [2, 3, 1], [3, 2, 2, 1])]
        symbols += [hom2_product(rng, degrees) for degrees in ([2], [2, 3], [1, 2, 2])]
        for groups in ([(0, 1)], [(0,), (1, 2)], [(0, 2), (1,), (3, 4)], [(0,), (1,), (2, 3), (4,)]):
            factors = [(g, random_symbol(rng, len(g), max_degree=3, n_terms=4)) for g in groups]
            symbols.append(embedded_product(5, factors))
        # the parity support on z1, z2, z3 does not split, so the product test fails and
        # each group takes its own; (1 + z4) and (1 + 2 z5) still split off
        parity = make_symbol(5, [((0, 0, 0, 0, 0), 1), ((1, 1, 0, 0, 0), 1j), ((1, 0, 1, 0, 0), 2), ((0, 1, 1, 0, 0), -1)])
        symbols += [parity, parity * (one(5) + z(5, 3)), parity * (one(5) + z(5, 3)) * (one(5) - 2 * z(5, 4))]
        symbols += [z(4, 0) * z(4, 0) * (one(4) + z(4, 1)) * (one(4) + 3 * z(4, 2))]
        symbols += [cex_truncation(K) for K in range(3, 7)]
        for e in (2**63, 10**23, 2**70):
            big = [((0,), make_symbol(1, [((0,), 1.0), ((e,), 0.5j), ((e + 1,), -2.0)])), ((1,), circle_factor(rng, 2))]
            symbols.append(embedded_product(3, big + [((2,), make_symbol(1, [((1,), 1.5), ((3 * e,), 1j)]))]))
        symbols += [perturbed(rng, s, 1e-9) for s in symbols[:12]]
        symbols += [make_symbol(2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])]

        def outcome(split):
            factors, delta = split
            exact = [(variables, symbol_outcome(lambda _: f, None)) for variables, f in factors]
            return exact, symbol_outcome(lambda _: delta, None)

        splits = 0
        for s in symbols:
            assert outcome(split_factors(s)) == outcome(split_factors_reference(s))
            splits += len(split_factors(s)[0]) > 1
        assert splits >= 20

    def test_root_sum_squares_matches_the_reference(self):
        # the map(mul) sums against the (w, m**2) generator first written, in both branches and refused
        rng = np.random.default_rng(421)
        cases = [([], [])]
        for exponent in (0, -200, 100, 153, 154, 160, 200, 300):
            coefs = [complex(*rng.normal(size=2)) * 10.0**exponent for _ in range(12)]
            cases.append(([int(w) for w in rng.integers(1, 1000, size=12)], coefs))
        for _ in range(40):  # moduli spread over 1e160-1e300
            coefs = [complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(160, 300) for _ in range(8)]
            cases.append(([int(w) for w in rng.integers(1, 50, size=8)], coefs))
        # refused; a weight past the double range; finite squares whose sum overflows inside fsum
        cases += [([1] * 4, [1e308, 1e308j, -1e308, 1e308]), ([10**300, 1], [1e10, 1.0]), ([1, 1], [1.2e154, 1.2e154j])]

        def outcome(rss, *args):
            try:
                return rss(*args).hex()
            except DomainError as err:
                return str(err)

        seen = set()
        for weights, coefs in cases:
            got = outcome(_root_sum_squares, weights, coefs)
            assert got == outcome(root_sum_squares_reference, zip(weights, coefs))
            seen.add(got.startswith("the root sum"))
        assert seen == {True, False}

    def test_monomials_and_zero_do_not_split(self):
        for s in (Symbol.zero(3), z(3, 0) * z(3, 1), Symbol.one(2)):
            factors, delta = split_factors(s)
            assert len(factors) == 1 and factors[0][1] == s and delta.is_zero
