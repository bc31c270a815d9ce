import itertools
import math
import time

import numpy as np
import pytest

from hankel_lab import (
    MAX_BASIS,
    MAX_CLOSURE,
    BudgetError,
    DomainError,
    Symbol,
    active_bases,
    build_block,
    build_blocks,
    build_matrix,
    build_recipe,
    cex_truncation,
    classify_homogeneous,
    components,
    grlex_key,
    make_symbol,
    operator_norm,
    parse_recipe,
    spectral_norm,
    split_factors,
)
from hankel_lab import hankel
from hankel_lab.hankel import product_error
from helpers import (
    RECIPE_PRODUCT,
    brute_norm,
    circle_factor,
    component_block_norms,
    downward_closure,
    embedded_product,
    hom2_product,
    one_variable_product,
    pair_product,
    permuted_product,
    perturbed,
    phi2,
    phi3,
    random_symbol,
    z,
)


def all_degrees_upto(m):
    """Every monomial of degree <= m in two variables, coefficient 1."""
    return make_symbol(2, [((a, b), 1.0) for a in range(m + 1) for b in range(m + 1 - a)])


def enumerate_dominated(support, dim):
    """Brute-force oracle for the active basis: scan the whole box."""
    top = max((max(a) for a in support), default=-1)
    out = []
    for beta in itertools.product(range(top + 1), repeat=dim):
        if any(all(b <= a for b, a in zip(beta, alpha)) for alpha in support):
            out.append(beta)
    return set(out)


def entry_rule(s, rows, cols):
    """The matrix entry by entry: conj(coeff(beta + gamma)), +0.0 where absent."""
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for i, gamma in enumerate(rows):
        for j, beta in enumerate(cols):
            c = s.coeff(tuple(x + y for x, y in zip(beta, gamma)))
            if c != 0:
                out[i, j] = c.conjugate()
    return out


def assert_entry_rule(mat, s):
    assert mat.entries.tobytes() == entry_rule(s, mat.row_basis, mat.column_basis).tobytes()


def assert_views(s):
    """Every view of the walk against the entry rule, bit for bit: the whole
    matrix, each component's block and, when s is homogeneous, each degree block."""
    assert_entry_rule(build_matrix(s), s)
    for block in components(s):
        assert_entry_rule(block, s)
    m = s.is_homogeneous()
    if m is not None:
        for block in build_blocks(s, range(m + 2)):
            assert_entry_rule(block, s)


class TestActiveBases:
    def test_single_mixed_monomial(self):
        s = make_symbol(2, [((1, 1), 1.0)])
        cols, rows = active_bases(s)
        assert set(cols) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert cols == rows
        assert set(cols) == enumerate_dominated(s.support, 2)

    def test_constant(self):
        cols, _ = active_bases(Symbol.one(1))
        assert cols == ((0,),)

    def test_quadratic_has_six(self):
        cols, _ = active_bases(phi2(0.5))
        assert len(cols) == 6
        assert set(cols) == enumerate_dominated(phi2(0.5).support, 2)

    def test_zero_symbol_empty(self):
        cols, rows = active_bases(Symbol.zero(3))
        assert cols == () and rows == ()

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            s = random_symbol(rng, 3, max_degree=3)
            cols, _ = active_bases(s)
            assert set(cols) == enumerate_dominated(s.support, 3)

    def test_closure_matches_the_box_union(self):
        # the same tuples in the same graded lex order as the union of the boxes
        rng = np.random.default_rng(31)
        symbols = [random_symbol(rng, d, max_degree=int(rng.integers(1, 9 - d)), n_terms=int(rng.integers(1, 9)))
                   for d in range(1, 6) for _ in range(12)]
        symbols += [
            sum((z(64, j) for j in range(1, 64)), z(64, 0)),  # radix 2 on 64 axes: Python-int codes
            Symbol.zero(3),
            make_symbol(1, [((MAX_CLOSURE - 1,), 1.0)]),
        ]
        for s in symbols:
            closure = downward_closure(s.support)
            assert active_bases(s) == (closure, closure)


class TestBuildMatrix:
    def test_quadratic_middle_block_display(self):
        mat = build_block(phi2(0.4), 1)
        assert mat.column_basis == ((1, 0), (0, 1))
        assert mat.row_basis == ((1, 0), (0, 1))
        assert np.allclose(mat.entries, [[1.0, 0.4], [0.4, 1.0]])

    def test_cubic_block_display(self):
        mat = build_block(phi3(0.25), 1)
        assert mat.column_basis == ((1, 0), (0, 1))
        assert mat.row_basis == ((2, 0), (1, 1), (0, 2))
        assert np.allclose(mat.entries, [[1.0, 0.25], [0.25, 0.25], [0.25, 1.0]])

    def test_constant_symbol_conjugated(self):
        mat = build_matrix(make_symbol(1, [((0,), 2 + 3j)]))
        assert mat.entries.shape == (1, 1)
        assert mat.entries[0, 0] == 2 - 3j

    def test_hankel_structure_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            s = random_symbol(rng, 2, max_degree=3)
            mat = build_matrix(s)
            lookup = {}
            for i, gamma in enumerate(mat.row_basis):
                for j, beta in enumerate(mat.column_basis):
                    key = tuple(x + y for x, y in zip(beta, gamma))
                    if key in lookup:
                        assert mat.entries[i, j] == lookup[key]
                    lookup[key] = mat.entries[i, j]

    def test_dump_format(self):
        text = build_block(phi2(0.5), 1).dump_text()
        lines = text.splitlines()
        assert lines[0] == "rows 2 cols 2"
        assert lines[1] == "1.0,-0.0 0.5,-0.0"

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 5)])
    def test_dump_is_each_entrys_repr(self, shape):
        # signed zeros, a subnormal, notation switches and non-finite values, repeated
        values = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e22, math.inf, -math.nan, 0.1 + 0.2]
        reals = np.resize(np.array(values), 2 * math.prod(shape))
        np.random.default_rng(5).shuffle(reals)
        entries = reals.view(complex).reshape(shape)
        expected = f"rows {shape[0]} cols {shape[1]}\n" + "".join(
            " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) + "\n" for row in entries
        )
        assert hankel.HankelMatrix((), (), entries).dump_text() == expected


class TestAssembly:
    """The box walk's views against the entry rule, bit for bit."""

    def test_random_symbols(self):
        rng = np.random.default_rng(53)
        for dim in (1, 2, 3, 4):
            for _ in range(8):
                s = random_symbol(rng, dim, max_degree=4, n_terms=5)
                assert_views(s)
                h = random_symbol(rng, dim, homogeneous=int(rng.integers(1, 5)), n_terms=5)
                assert_views(h)
                m = h.is_homogeneous()
                for k in range(m + 1):
                    assert_entry_rule(build_block(h, k), h)

    def test_cex_truncations(self):
        for K in range(1, 6):
            assert_views(cex_truncation(K))

    def test_codes_beyond_int64(self):
        # radix 2 on each of 64 axes: codes reach 2^64 - 1, held as Python ints
        s = sum((z(64, j) for j in range(1, 64)), z(64, 0)) * (0.5 - 2j)
        mat = build_matrix(s)
        assert mat.shape == (65, 65)
        assert_views(s)

    def test_codes_at_the_int64_edge(self):
        # radix 1 on the first axis and 2 on the other 63: codes stay below 2^63,
        # but the unused axis weighs 2^63, so they are held as Python ints
        s = sum((z(64, j) for j in range(2, 64)), z(64, 1)) * (0.5 - 2j)
        assert build_matrix(s).shape == (64, 64)
        assert operator_norm(s).value == pytest.approx(abs(0.5 - 2j) * math.sqrt(63), rel=1e-12)
        assert_views(s)

    def test_carry_collision_is_rejected(self):
        # radices (2, 3): code(0, 1) + code(0, 2) = 3 = code(1, 0), but
        # (0, 1) + (0, 2) = (0, 3) is not in the support
        s = z(2, 0) + 2 * make_symbol(2, [((0, 2), 1.0)])
        mat = build_matrix(s)
        i, j = mat.row_basis.index((0, 2)), mat.column_basis.index((0, 1))
        assert mat.entries[i, j] == 0
        assert_views(s)

    def test_blocks_match_single_blocks(self):
        rng = np.random.default_rng(59)
        s = random_symbol(rng, 3, homogeneous=4, n_terms=6)
        blocks = list(build_blocks(s, [0, 2, 4, 5, 1]))
        for k, block in zip([0, 2, 4, 5, 1], blocks):
            single = build_block(s, k)
            assert block.column_basis == single.column_basis
            assert block.row_basis == single.row_basis
            assert block.entries.tobytes() == single.entries.tobytes()


def chunked_results(s):
    """What the closure and its walks give for s, as exact values: bases, walk, matrix, components, norms."""
    closure, walk = hankel._downward_closure(s)
    rows, cols, values = (np.concatenate(parts) for parts in zip(*walk()))
    matrix = build_matrix(s)
    results = [
        active_bases(s),
        (closure, rows.tolist(), cols.tolist(), values.tobytes()),
        (matrix.column_basis, matrix.row_basis, matrix.entries.tobytes()),
        [(b.column_basis, b.row_basis, b.entries.tobytes()) for b in components(s)],
        operator_norm(s),
    ]
    if s.is_homogeneous() is not None:
        results.append(hankel.decisive_block_norms(s))
    return results


class TestChunking:
    """A listing kept as one chunk and one listed again, chunk by chunk, for every walk agree."""

    @staticmethod
    def symbols():
        rng = np.random.default_rng(71)
        out = [random_symbol(rng, dim, max_degree=4, n_terms=6) for dim in (1, 2, 3, 4)]
        out += [random_symbol(rng, dim, homogeneous=m, n_terms=6) for dim, m in ((2, 6), (3, 4), (4, 3))]
        out += [cex_truncation(K) for K in range(3, 7)]
        # radix 3 on the first of 70 axes and 2 on the rest: codes pass 2^70 and are Python ints
        out += [z(70, 0) * sum((z(70, j) for j in range(1, 70)), (0.5 - 1j) * z(70, 0))]
        return out

    def test_one_chunk_and_many_agree(self, monkeypatch):
        symbols = self.symbols()
        listed, boxes = [], hankel._boxes

        def counted(*args):
            listed.append(1)
            yield from boxes(*args)

        monkeypatch.setattr(hankel, "_boxes", counted)
        expected = []
        for s in symbols:
            del listed[:]
            closure, walk = hankel._downward_closure(s)
            list(walk()), list(walk())
            assert len(listed) == 1  # every listing here is one chunk, kept for both walks
            expected.append(chunked_results(s))
        for pairs in (1, 7):
            monkeypatch.setattr(hankel, "_PAIRS", pairs)
            del listed[:]
            closure, walk = hankel._downward_closure(symbols[-1])
            list(walk()), list(walk())
            assert len(listed) == 3  # several chunks: listed again for each walk
            assert [chunked_results(s) for s in symbols] == expected


def connected_parts(s):
    """Oracle for components: breadth-first search over the entry rule on the closure."""
    closure = sorted(active_bases(s)[0])
    neighbours = {}
    for gamma in closure:
        for beta in closure:
            if s.coeff(tuple(x + y for x, y in zip(beta, gamma))) != 0:
                neighbours.setdefault(("row", gamma), []).append(("col", beta))
                neighbours.setdefault(("col", beta), []).append(("row", gamma))
    seen, parts = set(), set()
    for start in neighbours:
        if start in seen:
            continue
        seen.add(start)
        queue, part = [start], [start]
        while queue:
            for nxt in neighbours[queue.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                    part.append(nxt)
        rows = frozenset(i for side, i in part if side == "row")
        parts.add((rows, frozenset(i for side, i in part if side == "col")))
    return parts


class TestComponents:
    """The operator as the direct sum of its connected components."""

    def assert_brute(self, s):
        ref = brute_norm(s)
        assert operator_norm(s).value == pytest.approx(ref, rel=1e-12)
        assert max(spectral_norm(block).value for block in components(s)) == pytest.approx(ref, rel=1e-12)

    def test_norm_against_brute_force(self):
        rng = np.random.default_rng(601)
        for dim in (1, 2, 3):
            for _ in range(6):
                self.assert_brute(random_symbol(rng, dim, max_degree=4, n_terms=3))  # sparse
                self.assert_brute(random_symbol(rng, dim, homogeneous=int(rng.integers(1, 5)), n_terms=4))
        for _ in range(4):
            dense = make_symbol(2, [((a, b), complex(*rng.normal(size=2))) for a in range(5) for b in range(5 - a)])
            self.assert_brute(dense)
            self.assert_brute(make_symbol(1, [((e,), complex(*rng.normal(size=2))) for e in range(7)]))
        for n in (0, 1, 5, 12, 80):  # z^n: an anti-diagonal, n + 1 one-by-one components
            s = make_symbol(1, [((n,), 1.5 - 2j)])
            assert len(list(components(s))) == n + 1
            self.assert_brute(s)

    def test_cex_closed_form(self):
        # cex is minimal, so its operator norm is its H^2 norm
        for K in range(1, 7):
            ref = math.sqrt(6) / math.pi * math.sqrt(math.fsum(1 / k**2 for k in range(1, K + 1)))
            assert operator_norm(cex_truncation(K)).value == pytest.approx(ref, rel=1e-12)

    def test_cex_components(self):
        parts = list(components(cex_truncation(6)))
        assert len(parts) == 116
        shapes = sorted((block.shape for block in parts), key=lambda rc: rc[0] * rc[1])
        assert set(shapes[-2:]) == {(126, 1), (1, 126)}
        assert shapes[-3][0] * shapes[-3][1] < 126
        assert operator_norm(cex_truncation(6)).metadata == "active basis 1087x1087"

    def test_components_partition_the_closure(self):
        rng = np.random.default_rng(607)
        symbols = [cex_truncation(4), phi3(0.3), make_symbol(1, [((7,), 1.0)])]
        symbols += [random_symbol(rng, 3, max_degree=4, n_terms=4) for _ in range(6)]
        for s in symbols:
            closure = active_bases(s)[0]
            parts = [(block.row_basis, block.column_basis) for block in components(s)]
            rows = [i for r, _ in parts for i in r]
            cols = [j for _, c in parts for j in c]
            assert sorted(rows) == sorted(closure) and len(set(rows)) == len(rows)
            assert sorted(cols) == sorted(closure) and len(set(cols)) == len(cols)
            for r, c in parts:
                assert list(r) == sorted(r, key=grlex_key) and list(c) == sorted(c, key=grlex_key)
            assert {(frozenset(r), frozenset(c)) for r, c in parts} == connected_parts(s)
            # every nonzero entry lies inside one component's block
            nonzero = sum(math.prod(e + 1 for e in a) for a in s.support)
            assert sum(np.count_nonzero(entry_rule(s, r, c)) for r, c in parts) == nonzero

    def test_component_norms_are_block_norms(self):
        rng = np.random.default_rng(611)
        s = random_symbol(rng, 3, max_degree=3, n_terms=5)
        parts = list(components(s))
        assert [spectral_norm(b).value for b in parts] == [
            spectral_norm(entry_rule(s, b.row_basis, b.column_basis)).value for b in parts
        ]
        assert list(components(Symbol.zero(2))) == []
        assert operator_norm(Symbol.zero(2)).metadata == "active basis 0x0"

    def test_homogeneous_block_norms(self):
        rng = np.random.default_rng(613)
        for dim, m in ((2, 6), (3, 4), (4, 5), (2, 9)):
            s = random_symbol(rng, dim, homogeneous=m, n_terms=5)
            verdict = classify_homogeneous(s)
            assert [k for k, _ in verdict.block_norms] == list(range(1, m // 2 + 1))
            for k, norm in verdict.block_norms:
                assert norm == pytest.approx(spectral_norm(build_block(s, k)).value, rel=1e-12)

    def test_decisive_blocks_are_the_largest_components(self):
        # symbols that do not split: the restricted assembly gives the components' norms bit for bit
        rng = np.random.default_rng(617)
        symbols = [random_symbol(rng, dim, homogeneous=m, n_terms=6) for dim, m in ((2, 7), (3, 6), (4, 4), (3, 9))]
        symbols += [phi3(0.3), make_symbol(1, [((20000,), 1.0)])]
        for s in symbols:
            assert len(split_factors(s)[0]) == 1
            assert classify_homogeneous(s).block_norms == component_block_norms(s)

    def test_only_the_decisive_components_are_assembled(self, monkeypatch):
        filled, fill = [], hankel._fill
        monkeypatch.setattr(hankel, "_fill", lambda *args: filled.append(1) or fill(*args))
        classify_homogeneous(make_symbol(1, [((20000,), 1.0)]))
        assert len(filled) == 10000  # blocks 1..10000, not the 20001 components

    def test_refused_factor_takes_the_component_path(self, monkeypatch):
        s = hom2_product(np.random.default_rng(619), (3, 4))
        product = classify_homogeneous(s)

        def refused(f, top):
            raise BudgetError("refused")

        monkeypatch.setattr(hankel, "_factor_blocks", refused)
        whole = classify_homogeneous(s)
        assert whole.block_bounds == [1e-12 * norm for _, norm in whole.block_norms]
        assert [n for _, n in whole.block_norms] == pytest.approx([n for _, n in product.block_norms], rel=1e-12)

    def test_codes_beyond_int64(self):
        # the symbol of TestAssembly.test_codes_beyond_int64: codes held as Python ints
        s = sum((z(64, j) for j in range(1, 64)), z(64, 0)) * (0.5 - 2j)
        parts = components(s)
        assert sorted(len(block.column_basis) for block in parts) == [1, 64]
        assert operator_norm(s).value == pytest.approx(spectral_norm(build_matrix(s)).value, rel=1e-12)
        assert operator_norm(s).value == pytest.approx(abs(0.5 - 2j) * 8, rel=1e-12)


class TestBasisBudget:
    def test_huge_monomial_stops_at_once(self):
        s = make_symbol(1, [((10**9,), 1.0)])
        start = time.perf_counter()
        with pytest.raises(BudgetError) as err:
            active_bases(s)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == f"closure (MAX_CLOSURE) exceeds the budget of {MAX_CLOSURE} monomials"
        assert issubclass(BudgetError, DomainError)

    def test_union_of_small_boxes_exceeds(self):
        # every box is below MAX_BASIS; the closure {x + y <= m} has
        # (m + 1)(m + 2)/2 indices: 2926 at m = 75, 3003 at m = 76
        def full_degree(m):
            return make_symbol(2, [((k, m - k), 1.0) for k in range(m + 1)])

        assert len(active_bases(full_degree(75))[0]) == 2926 <= MAX_BASIS
        with pytest.raises(BudgetError):
            build_matrix(full_degree(76))

    def test_blocks_budget_scales_with_degree(self):
        # closure 20001 > MAX_BASIS, within MAX_CLOSURE for the blocks
        s = make_symbol(1, [((20000,), 1.0)])
        with pytest.raises(BudgetError):
            build_matrix(s)
        assert build_block(s, 7).entries.tolist() == [[1.0 - 0j]]

    def test_walk_budget_refuses_before_the_walk(self, monkeypatch):
        # the 8646 monomials of degree <= 130 in d=2: a closure within MAX_CLOSURE, but
        # their boxes hold C(134, 4) = 12.8M > MAX_BASIS**2 entries
        s = all_degrees_upto(130)
        assert len(s.support) == 8646 and sum(math.prod(e + 1 for e in a) for a in s.support) == math.comb(134, 4)

        def walked(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(hankel, "_boxes", walked)  # no box is listed, for the closure or the walk
        for refused in (operator_norm, active_bases, lambda s: list(components(s))):
            with pytest.raises(BudgetError) as err:
                refused(s)
            assert str(err.value) == f"walk (MAX_BASIS**2) exceeds the budget of {MAX_BASIS**2} entries"

    def test_closure_budget_refuses_as_the_boxes_are_merged(self, monkeypatch):
        # ten lines of 15000 indices, one box per chunk: the closure passes MAX_CLOSURE at the third
        s = make_symbol(10, [(tuple(14999 * (i == j) for i in range(10)), 1.0) for j in range(10)])
        listed, boxes = [], hankel._boxes

        def counted(*args):
            for chunk in boxes(*args):
                listed.append(len(chunk[1]))
                yield chunk

        monkeypatch.setattr(hankel, "_boxes", counted)
        with pytest.raises(BudgetError) as err:
            active_bases(s)
        assert str(err.value) == f"closure (MAX_CLOSURE) exceeds the budget of {MAX_CLOSURE} monomials"
        assert listed == [15000] * 3

    def test_matrix_budget_refuses_one_large_component(self):
        # the monomials of degree <= 100 in d=2 walk C(104, 4) = 4.6M <= MAX_BASIS**2
        # entries, but form one component of 5151 > MAX_BASIS indices
        s = all_degrees_upto(100)
        closure, walk = hankel._downward_closure(s)
        row_part, col_part, count = hankel._split(closure, walk)
        assert (len(closure), count) == (5151, 1)
        with pytest.raises(BudgetError) as err:
            next(hankel._assemble(closure, walk, row_part, col_part, count))
        assert str(err.value) == f"matrix (MAX_BASIS**2) exceeds the budget of {MAX_BASIS**2} entries"
        with pytest.raises(BudgetError, match=r"^matrix \(MAX_BASIS\*\*2\)"):
            build_matrix(s)

    def test_blocks_budget_is_fixed(self):
        # a closure of 10**6 + 1 indices is refused before it is enumerated
        s = make_symbol(1, [((10**6,), 1.0)])
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=str(MAX_CLOSURE)):
            build_block(s, 1)
        assert time.perf_counter() - start < 1.0
        edge = make_symbol(1, [((MAX_CLOSURE - 1,), 1.0)])
        assert build_block(edge, 1).entries.tolist() == [[1.0 - 0j]]
        with pytest.raises(BudgetError):
            build_block(make_symbol(1, [((MAX_CLOSURE,), 1.0)]), 1)


class TestBlocks:
    def test_column_and_row_degrees(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            s = random_symbol(rng, 3, homogeneous=m)
            for k in range(m + 1):
                mat = build_block(s, k)
                assert all(sum(a) == k for a in mat.column_basis)
                assert all(sum(a) == m - k for a in mat.row_basis)

    def test_k0_is_coefficient_vector(self):
        mat = build_block(phi2(0.8), 0)
        assert mat.shape == (3, 1)
        assert spectral_norm(mat).value == pytest.approx(math.sqrt(2 + 0.64), rel=1e-14)

    def test_k_above_m_empty(self):
        mat = build_block(phi2(0.8), 3)
        assert mat.shape == (0, 0)
        assert spectral_norm(mat).value == 0.0

    def test_non_homogeneous_rejected(self):
        with pytest.raises(DomainError):
            build_block(Symbol.one(2) + z(2, 0), 0)

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            build_block(phi2(0.5), -1)


class TestSpectralNorm:
    def test_two_by_two(self):
        assert spectral_norm(np.array([[1, 0.3], [0.3, 1]])).value == pytest.approx(1.3, abs=1e-14)

    def test_cubic_block_closed_form(self):
        b = 0.4
        got = spectral_norm(build_block(phi3(b), 1)).value
        assert got == pytest.approx(math.sqrt(1 + 2 * b + 3 * b * b), rel=1e-13)

    def test_identity(self):
        assert spectral_norm(np.eye(3)).value == 1.0

    def test_method_tag(self):
        est = spectral_norm(np.eye(2))
        assert est.method == "spectral-exact"
        assert est.error_bound <= 1e-12


class TestOperatorNorm:
    def test_pair_products(self):
        assert operator_norm(pair_product(1)).value == pytest.approx(math.sqrt(2), rel=1e-12)
        assert operator_norm(pair_product(2)).value == pytest.approx(2.0, rel=1e-12)

    def test_quadratic_at_one(self):
        assert operator_norm(phi2(1.0)).value == pytest.approx(2.0, rel=1e-12)

    def test_zero_symbol(self):
        assert operator_norm(Symbol.zero(2)).value == 0.0

    def test_scaling(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            s = random_symbol(rng, 2)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if c == 0:
                continue
            assert operator_norm(c * s).value == pytest.approx(
                abs(c) * operator_norm(s).value, rel=1e-12
            )

    def test_truncation_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            s = random_symbol(rng, 2, max_degree=3)
            assert operator_norm(s).value == pytest.approx(brute_norm(s), rel=1e-12, abs=1e-12)

    def test_norm_beyond_double_range_is_refused(self):
        s = 1e308 * (Symbol.one(2) + z(2, 0) + z(2, 1))  # the largest singular value overflows
        with pytest.raises(DomainError, match="double range"):
            operator_norm(s)
        assert operator_norm(make_symbol(1, [((0,), 1e308), ((1,), 1e308)])).value == pytest.approx(1e308 * ((1 + 5**0.5) / 2))

    @pytest.mark.parametrize("e", [2**63, 10**23])
    def test_factor_beyond_int64_names_its_budget(self, e):
        # (1 + z1^e)(1 + z2) splits; the factor 1 + z1^e has e + 1 closure indices
        s = make_symbol(2, [((0, 0), 1.0), ((e, 0), 1.0), ((0, 1), 1.0), ((e, 1), 1.0)])
        with pytest.raises(BudgetError, match="MAX_CLOSURE"):
            operator_norm(s)

    def test_permuted_terms_give_identical_norms(self):
        s, r = permuted_product()
        assert operator_norm(s).value == operator_norm(r).value

    def test_block_max_identity_spot(self):
        s = phi3(0.7)
        blocks = [spectral_norm(build_block(s, k)).value for k in range(4)]
        assert operator_norm(s).value == pytest.approx(max(blocks), abs=1e-10)

    def test_adjoint_symmetry_spot(self):
        rng = np.random.default_rng(47)
        s = random_symbol(rng, 2, homogeneous=3)
        m = 3
        for k in range(m + 1):
            left = spectral_norm(build_block(s, k)).value
            right = spectral_norm(build_block(s.reflect(), m - k)).value
            assert left == pytest.approx(right, abs=1e-10)


class TestCoarsest:
    def test_the_least_precise_rule_names_a_product(self):
        for methods, coarsest in (
            ({"exact", "monte-carlo"}, "monte-carlo"),
            ({"arc-quadrature", "monte-carlo"}, "monte-carlo"),
            ({"grid-quadrature", "arc-quadrature"}, "grid-quadrature"),
        ):
            assert hankel._coarsest(methods) == coarsest


class TestFactoredNorm:
    def assert_agrees(self, s):
        """operator_norm against the dense SVD of the whole matrix, within both stated bounds."""
        est = operator_norm(s)
        dense = spectral_norm(build_matrix(s))
        assert abs(est.value - dense.value) <= est.error_bound + dense.error_bound
        return est

    def test_products_split_finest(self):
        rng = np.random.default_rng(411)
        cases = [
            (
                one_variable_product(rng, [3, 2, 2]),
                "factored into 3 [active basis 4x4] [active basis 3x3] [active basis 3x3], fit residual bound 7.34e-15",
            ),
            (
                one_variable_product(rng, [5, 5, 5, 4]),
                "factored into 4 [active basis 6x6] [active basis 6x6] [active basis 6x6] [active basis 5x5], "
                "fit residual bound 1.15e-11",
            ),
            (
                pair_product(3),
                "factored into 3 [active basis 3x3] [active basis 3x3] [active basis 3x3], fit residual bound 0",
            ),
            (
                hom2_product(rng, [2, 3]),
                "factored into 2 [active basis 6x6] [active basis 10x10], fit residual bound 1.22e-15",
            ),
            (
                build_recipe(parse_recipe(RECIPE_PRODUCT)),
                "factored into 2 [active basis 5x5] [active basis 9x9], fit residual bound 0",
            ),
        ]
        for s, metadata in cases:
            assert self.assert_agrees(s).metadata == metadata

    def test_product_beyond_squared_overflow(self):
        # coefficients near 1e200 leave a fit residual near 1e184, whose square overflows a double
        rng = np.random.default_rng(419)
        a, b = rng.uniform(0.5, 2, 3) * 1e100, rng.uniform(0.5, 2, 3) * 1e100
        terms = [((i, j), a[i] * b[j] * (1 + 1e-16 * rng.standard_normal())) for i in range(3) for j in range(3)]
        est = self.assert_agrees(make_symbol(2, terms))
        assert est.metadata.startswith("factored into 2 [active basis 3x3] [active basis 3x3]")
        assert float(est.metadata.rsplit(" ", 1)[1]) > 1e180
        assert math.isfinite(est.value) and math.isfinite(est.error_bound)

    def test_non_products_are_not_factored(self):
        s = make_symbol(2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])
        assert self.assert_agrees(s).metadata == "active basis 4x4"
        assert "factored" not in self.assert_agrees(cex_truncation(3)).metadata

    def test_perturbed_products(self):
        rng = np.random.default_rng(413)
        for eps in (1e-15, 1e-12, 1e-9, 1e-6):
            for degrees in ([3, 2, 2], [4, 4, 3]):
                s = perturbed(rng, one_variable_product(rng, degrees), eps)
                est = self.assert_agrees(s)
                n = math.prod(m + 1 for m in degrees)
                if eps == 1e-15:
                    assert est.metadata == {
                        3: "factored into 3 [active basis 4x4] [active basis 3x3] [active basis 3x3], "
                        "fit residual bound 7.93e-14",
                        4: "factored into 3 [active basis 5x5] [active basis 5x5] [active basis 4x4], "
                        "fit residual bound 2.11e-12",
                    }[degrees[0]]
                elif eps == 1e-6:  # above the constant: the whole matrix
                    assert est.metadata == f"active basis {n}x{n}"

    def test_product_error(self):
        assert product_error([2.0, 3.0], [0.1, 0.2]) == pytest.approx(2.1 * 3.2 - 6.0, rel=1e-15)
        assert product_error([2.0, 0.0], [math.inf, 0.5]) == math.inf
        rng = np.random.default_rng(419)
        for _ in range(200):
            values, errors = rng.uniform(0.1, 3, size=4), rng.uniform(0, 0.3, size=4)
            exact = values + errors * rng.uniform(-1, 1, size=4)
            assert abs(np.prod(exact) - np.prod(values)) <= product_error(list(values), list(errors)) * (1 + 1e-12)

    def test_products_over_the_whole_budget_compute(self):
        # three factors of 32 terms each; the 32^3-term product's closure is over MAX_CLOSURE
        rng = np.random.default_rng(417)
        factors = [circle_factor(rng, 31) for _ in range(3)]
        s = embedded_product(3, [((j,), f) for j, f in enumerate(factors)])
        with pytest.raises(BudgetError, match=r"^closure \(MAX_CLOSURE\)"):
            active_bases(s)
        est = operator_norm(s)
        assert est.metadata.startswith("factored into 3 [active basis 32x32] [active basis 32x32]")
        assert abs(est.value - math.prod(brute_norm(f) for f in factors)) <= est.error_bound

    def test_refused_factor_sends_the_whole_symbol(self):
        # the factor 1 + z1^30000 has 30001 closure indices; the message is the whole symbol's
        s = make_symbol(2, [((a, b), 1.0) for a in (0, 30000) for b in (0, 1)])
        assert len(split_factors(s)[0]) == 2
        with pytest.raises(BudgetError) as err:
            operator_norm(s)
        assert str(err.value) == "closure (MAX_CLOSURE) exceeds the budget of 30000 monomials"
