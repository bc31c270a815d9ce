"""Property tests for the symbol and recipe text formats.

Writers and parsers round-trip bit-identically, and no text drives a
parser (or the recipe builder after it) into anything but a value, a
ParseError or a DomainError.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_lab import (
    DomainError,
    ParseError,
    RecipeLeaf,
    RecipeNode,
    Symbol,
    build_recipe,
    format_recipe,
    format_symbol,
    parse_recipe,
    parse_symbol,
)
from hankel_lab.symbols import format_term, parse_term
from helpers import read_by_lines, symbol_outcome

# derandomized: the suite gives the same verdict on every run
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

reals = st.floats(allow_nan=False, allow_infinity=False)
coefficients = st.builds(complex, reals, reals)
exponents = st.integers(min_value=0, max_value=10**30)


def bits(c):
    """The coefficient's bytes, so that -0.0 and 0.0 differ."""
    return struct.pack("<dd", c.real, c.imag)


def alphas(dim):
    return st.tuples(*[exponents] * dim)


terms = st.integers(1, 5).flatmap(lambda d: st.tuples(alphas(d), coefficients))
symbols = st.integers(1, 4).flatmap(
    lambda d: st.dictionaries(alphas(d), coefficients, max_size=6).map(lambda ts: Symbol(d, ts.items()))
)


def recipes(dim):
    leaves = st.builds(RecipeLeaf, coefficients, alphas(dim))
    nodes = lambda children: st.builds(
        RecipeNode, st.sampled_from(["sum", "prod"]), st.lists(children, min_size=1, max_size=3).map(tuple)
    )
    return st.recursive(leaves, nodes, max_leaves=8)


# Text near the grammar reaches deeper branches than arbitrary text does.
TOKENS = ["dim", "1", "2", "0", "-1", "0.5", "1e308", "nan", "inf", ":", "(", ")", "mono", "sum", "prod", "#", "\n"]
near_grammar = st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join)
texts = st.one_of(st.text(max_size=200), near_grammar)


@SETTINGS
@given(terms)
def test_term_round_trip(term):
    alpha, c = term
    got_alpha, got_c = parse_term(format_term(alpha, c))
    assert got_alpha == alpha and bits(got_c) == bits(c)


@SETTINGS
@given(symbols)
def test_symbol_round_trip(s):
    text = format_symbol(s)
    got = parse_symbol(text)
    assert [(a, bits(c)) for a, c in got.terms()] == [(a, bits(c)) for a, c in s.terms()]
    assert format_symbol(got) == text


@SETTINGS
@given(st.integers(1, 4).flatmap(recipes))
def test_recipe_round_trip(expr):
    text = format_recipe(expr)
    got = parse_recipe(text)
    assert format_recipe(got) == text

    def leaves(e):
        if isinstance(e, RecipeLeaf):
            return [(e.exponents, bits(complex(e.coefficient)))]
        return [(e.op, len(e.children))] + [x for child in e.children for x in leaves(child)]

    assert leaves(got) == leaves(expr)


@SETTINGS
@given(texts)
def test_symbol_text_ends_in_value_or_typed_error(text):
    try:
        parse_symbol(text)
    except (ParseError, DomainError):
        pass


@SETTINGS
@given(st.one_of(texts, near_grammar.map(lambda t: f"(sum {t})")))
def test_recipe_text_ends_in_value_or_typed_error(text):
    try:
        build_recipe(parse_recipe(text))
    except (ParseError, DomainError):
        pass


# Files close to format_symbol's layout, which parse_symbol reads in bulk:
# mostly well-formed term lines, small exponents (so that terms repeat),
# and now and then a token, a line or a line end that sends the file to the
# line-by-line reader.
GOOD_REALS = st.one_of(reals.map(repr), st.sampled_from(["-0.0", "0.0", "1", "+2", "1_0.5", "1e308"]))
BAD_REALS = st.sampled_from(["nan", "inf", "-inf", "x", ":", "#1"])
GOOD_EXPONENTS = st.one_of(st.integers(0, 2).map(str), st.sampled_from([str(2**63), str(2**64 + 1), "+1", "1_0"]))
BAD_EXPONENTS = st.sampled_from(["-1", "x", ":", "1.0"])


@st.composite
def near_layout(draw):
    def pick(good, bad):
        return draw(bad) if draw(st.integers(0, 15)) == 0 else draw(good)

    dim = draw(st.integers(1, 3))
    lines = [f"dim {dim}"]
    for _ in range(draw(st.integers(0, 6))):
        tokens = [pick(GOOD_REALS, BAD_REALS), pick(GOOD_REALS, BAD_REALS), ":"]
        tokens += [pick(GOOD_EXPONENTS, BAD_EXPONENTS) for _ in range(dim)]
        edit = draw(st.integers(0, 20))
        if edit == 0:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif edit == 1:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(GOOD_EXPONENTS))
        elif edit == 2:
            tokens = ["#"] + tokens
        elif edit == 3:
            tokens = []
        lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(tokens))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@SETTINGS
@given(near_layout())
def test_symbol_reader_matches_line_by_line_reference(text):
    assert symbol_outcome(parse_symbol, text) == symbol_outcome(read_by_lines, text)
