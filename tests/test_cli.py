import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hankel_lab.cli as cli
from hankel_lab import format_symbol
from hankel_lab.cli import main
from hankel_lab.nehari import cex_truncation
from helpers import hom2_product

# derandomized: the suite gives the same verdict on every run
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

PAIR = "dim 2\n1.0 0.0 : 1 0\n1.0 0.0 : 0 1\n"
CUBIC = "dim 2\n1.0 0.0 : 3 0\n0.5 0.0 : 2 1\n0.5 0.0 : 1 2\n1.0 0.0 : 0 3\n"


def quadratic(a):
    return f"dim 2\n1.0 0.0 : 2 0\n{a} 0.0 : 1 1\n1.0 0.0 : 0 2\n"


RECIPE = (
    "(prod (sum (mono 1.0 0.0 : 1 0 0 0) (mono 1.0 0.0 : 0 1 0 0))\n"
    "      (sum (mono 1.0 0.0 : 0 0 1 0) (mono 1.0 0.0 : 0 0 0 1)))\n"
)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.sym"
    path.write_text(PAIR)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_value(out, quantity):
    for line in out.splitlines():
        cells = line.split()
        if cells and cells[0] == quantity:
            return cells[1]
    raise AssertionError(f"{quantity} not found in output:\n{out}")


class TestNorm:
    def test_pair_values(self, capsys, pair_file):
        code, out, _ = run(capsys, "norm", pair_file)
        assert code == 0
        assert out.startswith("# hankel-lab norm")
        assert float(table_value(out, "h2_norm")) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert float(table_value(out, "operator_norm")) == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_quadratic_at_one(self, capsys, tmp_path):
        path = tmp_path / "q.sym"
        path.write_text(quadratic(1.0))
        code, out, _ = run(capsys, "norm", str(path))
        assert code == 0
        assert float(table_value(out, "operator_norm")) == pytest.approx(2.0, abs=1e-10)

    def test_empty_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "empty.sym"
        path.write_text("")
        code, _, err = run(capsys, "norm", str(path))
        assert code == 2
        assert "dim" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "norm", "/nonexistent/never.sym")
        assert code == 2
        assert "error" in err

    def test_bad_line_reports_number(self, capsys, tmp_path):
        path = tmp_path / "bad.sym"
        path.write_text("dim 2\n1.0 0.0 : 1 0\noops\n")
        code, _, err = run(capsys, "norm", str(path))
        assert code == 2
        assert "line 3" in err

    def test_closure_over_basis_size_computes(self, capsys, tmp_path):
        # the closure has 20001 > MAX_BASIS indices, in 20001 one-by-one components
        path = tmp_path / "high.sym"
        path.write_text("dim 1\n1.0 0.0 : 20000\n")
        code, out, err = run(capsys, "norm", str(path), "--json")
        assert (code, err) == (0, "")
        rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
        assert rows["operator_norm"]["value"] == 1.0
        assert rows["operator_norm"]["method"] == "spectral-exact"
        assert rows["sup_estimate"]["value"] == 1.0

    @pytest.mark.parametrize(
        "command, text",
        [
            (["norm"], "dim 2\nnan 0.0 : 1 0\n1.0 0.0 : 0 1\n"),
            (["hp-norm", "1"], "dim 2\ninf 0.0 : 1 0\n1.0 0.0 : 0 1\n"),
            (["check-minimal"], "dim 2\ninf 0.0 : 1 0\n1.0 0.0 : 0 1\n"),
            (["check-minimal", "--recipe"], "(sum (mono 1.0 0.0 : 1 0)\n     (mono nan 0 : 0 1))\n"),
        ],
    )
    def test_non_finite_coefficient_is_parse_error(self, capsys, tmp_path, command, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "line 2" in err and "not finite" in err

    def test_json_matches_text(self, capsys, pair_file):
        code, out, _ = run(capsys, "norm", pair_file)
        assert code == 0
        text_value = float(table_value(out, "operator_norm"))
        code, out, _ = run(capsys, "norm", pair_file, "--json")
        assert code == 0
        payload = json.loads(out)
        json_value = next(
            r["value"] for r in payload["reports"] if r["quantity"] == "operator_norm"
        )
        assert json_value == text_value


    @pytest.mark.parametrize("command", ["norm", "check-minimal"])
    def test_huge_coefficients_give_finite_rows(self, capsys, tmp_path, command):
        # |1e200|^2 overflows a double; the rows must not
        path = tmp_path / "big.sym"
        path.write_text("dim 2\n1e200 0.0 : 1 1\n")
        code, out, _ = run(capsys, command, str(path), "--json")
        assert code == 0
        rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
        assert rows["h2_norm"]["value"] == 1e200
        numbers = [r[k] for r in rows.values() for k in ("value", "error_bound") if isinstance(r[k], float)]
        assert len(numbers) >= 4 and all(math.isfinite(x) for x in numbers)


class TestCheckMinimal:
    def test_minimal_side(self, capsys, tmp_path):
        path = tmp_path / "q.sym"
        path.write_text(quadratic(0.4))
        code, out, _ = run(capsys, "check-minimal", str(path))
        assert code == 0
        assert table_value(out, "status") == "minimal"

    def test_not_minimal_side_prints_gap(self, capsys, tmp_path):
        path = tmp_path / "q.sym"
        path.write_text(quadratic(0.6))
        code, out, _ = run(capsys, "check-minimal", str(path))
        assert code == 0
        assert table_value(out, "status") == "not-minimal"
        assert float(table_value(out, "gap")) > 0

    def test_product_block_rows_bound_the_whole_blocks(self, capsys, tmp_path):
        # a d=4 product: the rows come from the factors' blocks, the blocks command takes whole-block SVDs
        path = tmp_path / "product.sym"
        path.write_text(format_symbol(hom2_product(np.random.default_rng(83), (4, 5))))
        rows = {r["quantity"]: r for r in json.loads(run(capsys, "check-minimal", str(path), "--json")[1])["reports"]}
        whole = {r["quantity"]: r["value"] for r in json.loads(run(capsys, "blocks", str(path), "--json")[1])["reports"]}
        for k in range(1, 5):
            row = rows[f"block_norm_k={k}"]
            assert abs(row["value"] - whole[f"block_k={k}"]) <= row["error_bound"]
            assert row["error_bound"] > 1e-12 * row["value"]  # the factors' bounds and the fit, not 1e-12 alone

    def test_nan_tolerance_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "q.sym"
        path.write_text(quadratic(0.2))  # minimal-norm: NaN must not flip it to not-minimal
        code, out, err = run(capsys, "check-minimal", str(path), "--tol", "nan")
        assert code == 1
        assert out == ""
        assert err == "error: tolerance must be >= 1e-12, got nan\n"

    @pytest.mark.parametrize(
        "leaf",
        ["(mono 1.0 0.0 : 0 -1)", "(mono 1.0 oops : 0 1)", "(mono inf 0.0 : 0 1)", "(mono 1.0 0.0 : )"],
    )
    def test_malformed_recipe_leaf_is_parse_error(self, capsys, tmp_path, leaf):
        path = tmp_path / "bad.recipe"
        path.write_text(f"# leaf on line 3\n(sum (mono 1.0 0.0 : 1 0)\n     {leaf})\n")
        code, out, err = run(capsys, "check-minimal", str(path), "--recipe")
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 3: ") and err.count("\n") == 1

    def test_recipe_certificate(self, capsys, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text(RECIPE)
        code, out, _ = run(capsys, "check-minimal", str(path), "--recipe")
        assert code == 0
        assert table_value(out, "status") == "minimal"
        assert "construction-certified" in out

    @pytest.mark.parametrize(
        "recipe",
        [
            "(prod (mono 1.0 0.0 : 3000 0) (mono 1.0 0.0 : 0 1))",  # homogeneous, closure 6002
            "(sum (mono 1.0 0.0 : 3001 0) (mono 1.0 0.0 : 0 1))",  # full matrix, closure 3003
        ],
    )
    def test_recipe_over_budget_is_certified(self, capsys, tmp_path, recipe):
        # closures over MAX_BASIS whose components are 1x1: a numeric gap, and the certificate note
        path = tmp_path / "big.txt"
        path.write_text(recipe + "\n")
        code, out, err = run(capsys, "check-minimal", str(path), "--recipe", "--json")
        assert (code, err) == (0, "")
        rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
        assert rows["status"]["value"] == "minimal" and rows["status"]["method"] != "certificate"
        assert abs(rows["gap"]["value"]) <= 1e-12
        assert rows["note"]["value"] == "boundary; construction-certified"

    def test_blocks_over_budget_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "huge.sym"
        path.write_text("dim 1\n1.0 0.0 : 1000000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "check-minimal", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == "error: closure (MAX_CLOSURE) exceeds the budget of 30000 monomials\n"

    @pytest.mark.parametrize(
        "degree, refusal",
        [
            (130, "walk (MAX_BASIS**2) exceeds the budget of 9000000 entries"),  # boxes of 12.8M entries
            (100, "matrix (MAX_BASIS**2) exceeds the budget of 9000000 entries"),  # one 5151-index component
        ],
        ids=["walk", "matrix"],
    )
    def test_walk_and_matrix_budgets_are_domain_errors(self, capsys, tmp_path, degree, refusal):
        path = tmp_path / "dense.sym"
        terms = (f"1.0 0.0 : {a} {b}\n" for a in range(degree + 1) for b in range(degree + 1 - a))
        path.write_text("dim 2\n" + "".join(terms))
        code, out, err = run(capsys, "check-minimal", str(path))
        assert (code, out, err) == (1, "", f"error: {refusal}\n")

    def test_zero_symbol_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "zero.sym"
        path.write_text("dim 2\n")
        code, _, err = run(capsys, "check-minimal", str(path))
        assert code == 1
        assert "zero" in err

    @staticmethod
    def nested_recipe(tmp_path, depth):
        path = tmp_path / "deep.txt"
        path.write_text("(sum " * depth + "(mono 1.0 0.0 : 1 0)" + ")" * depth + "\n")
        return str(path)

    def test_recipe_at_nesting_budget_is_minimal(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-minimal", self.nested_recipe(tmp_path, 200), "--recipe")
        assert code == 0
        assert table_value(out, "status") == "minimal"

    def test_recipe_beyond_nesting_budget_is_domain_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "check-minimal", self.nested_recipe(tmp_path, 3000), "--recipe")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "recipe nesting (MAX_RECIPE_DEPTH)" in err


class TestBlocks:
    def test_table_and_dump(self, capsys, tmp_path):
        path = tmp_path / "cubic.sym"
        path.write_text("dim 2\n1.0 0.0 : 3 0\n0.5 0.0 : 2 1\n0.5 0.0 : 1 2\n1.0 0.0 : 0 3\n")
        code, out, _ = run(capsys, "blocks", str(path), "--dump")
        assert code == 0
        assert "block_k=0" in out and "block_k=3" in out
        assert "rows 3 cols 2" in out  # the k=1 block of a cubic
        code, out, _ = run(capsys, "blocks", str(path), "--json", "--dump")
        payload = json.loads(out)
        k1 = next(r for r in payload["reports"] if r["quantity"] == "block_k=1")
        assert k1["matrix"] == [[[1.0, -0.0], [0.5, -0.0]], [[0.5, -0.0], [0.5, -0.0]], [[0.5, -0.0], [1.0, -0.0]]]

    def test_full_norm_is_largest_block_beyond_budget(self, capsys, tmp_path):
        # degree 76 in two variables: the closure has 3003 > MAX_BASIS indices
        path = tmp_path / "deg76.sym"
        path.write_text("dim 2\n" + "".join(f"1.0 0.5 : {k} {76 - k}\n" for k in range(77)))
        code, out, _ = run(capsys, "blocks", str(path), "--json")
        assert code == 0
        values = {r["quantity"]: r["value"] for r in json.loads(out)["reports"]}
        assert values["operator_norm"] == max(values[f"block_k={k}"] for k in range(77))

    def test_transposed_blocks_print_one_row(self, capsys, tmp_path):
        # block m-k is block k transposed: one SVD serves both rows
        rng = np.random.default_rng(40)
        coefs = rng.normal(size=(41, 2)).tolist()
        path = tmp_path / "deg40.sym"
        path.write_text("dim 2\n" + "".join(f"{re!r} {im!r} : {k} {40 - k}\n" for k, (re, im) in enumerate(coefs)))
        code, out, _ = run(capsys, "blocks", str(path), "--json", "--dump")
        assert code == 0
        rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
        for k in range(41):
            row, mirror = rows[f"block_k={k}"], rows[f"block_k={40 - k}"]
            assert {q: row[q] for q in ("value", "method", "error_bound")} == {
                q: mirror[q] for q in ("value", "method", "error_bound")
            }
            assert row["shape"] == "x".join(reversed(mirror["shape"].split("x")))
            matrix = np.array(row["matrix"]) @ [1.0, 1j]
            assert np.array_equal(matrix, (np.array(mirror["matrix"]) @ [1.0, 1j]).T)
            assert row["value"] == pytest.approx(np.linalg.norm(matrix, 2), rel=1e-12)
        assert rows["operator_norm"]["value"] == max(rows[f"block_k={k}"]["value"] for k in range(41))

    def test_zero_symbol_dumps_empty_matrix(self, capsys, tmp_path):
        path = tmp_path / "zero.sym"
        path.write_text("dim 2\n")
        code, out, err = run(capsys, "blocks", str(path), "--dump", "--json")
        assert (code, err) == (0, "")
        assert '\n      "shape": "0x0",\n      "matrix": []\n' in out

    def test_non_homogeneous_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "mixed.sym"
        path.write_text("dim 1\n1.0 0.0 : 0\n1.0 0.0 : 1\n")
        code, _, err = run(capsys, "blocks", str(path))
        assert code == 1
        assert "homogeneous" in err


class TestHpNorm:
    def test_h1_pair(self, capsys, pair_file):
        code, out, _ = run(capsys, "hp-norm", pair_file, "1", "--grid", "1024")
        assert code == 0
        assert float(table_value(out, "hp_norm")) == pytest.approx(4 / math.pi, abs=1e-5)

    def test_sup_variant(self, capsys, pair_file):
        code, out, _ = run(capsys, "hp-norm", pair_file, "inf")
        assert code == 0
        assert float(table_value(out, "hp_norm")) == pytest.approx(2.0, abs=1e-3)

    def test_monte_carlo_path(self, capsys, pair_file):
        code, out, _ = run(capsys, "hp-norm", pair_file, "2", "--samples", "50000", "--seed", "3")
        assert code == 0
        assert float(table_value(out, "hp_norm")) == pytest.approx(math.sqrt(2), abs=0.05)
        assert "monte-carlo" in out

    @pytest.mark.parametrize("p", ["400", "1e6"])
    def test_monte_carlo_at_large_p_is_finite(self, capsys, tmp_path, p):
        # |1 + z1 + z2|^p overflows a double near its sup 3 at p=400
        path = tmp_path / "t.sym"
        path.write_text("dim 2\n1.0 0.0 : 0 0\n1.0 0.0 : 1 0\n1.0 0.0 : 0 1\n")
        code, out, _ = run(capsys, "hp-norm", str(path), p, "--samples", "1000", "--json")
        assert code == 0
        rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
        value, bound = rows["hp_norm"]["value"], rows["hp_norm"]["error_bound"]
        assert isinstance(value, float) and isinstance(bound, float)
        assert 2.9 < value <= 3.0 and 0.0 <= bound < 0.1

    def test_arc_rule_at_large_p_is_finite(self, capsys, tmp_path):
        # |1 + w|^2000 overflows a double near its sup 2
        path = tmp_path / "w.sym"
        path.write_text("dim 1\n1.0 0.0 : 0\n1.0 0.0 : 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(capsys, "hp-norm", str(path), "2000", "--json")
        assert code == 0
        row = {r["quantity"]: r for r in json.loads(out)["reports"]}["hp_norm"]
        assert row["method"] == "arc-quadrature"
        assert all(isinstance(row[k], float) and math.isfinite(row[k]) for k in ("value", "error_bound"))
        assert 1.99 < row["value"] <= 2.0

    def test_tensor_grid_at_large_p_is_finite(self, capsys, tmp_path):
        # |1 + z1 + z2|^1000 overflows a double near its sup 3
        path = tmp_path / "t.sym"
        path.write_text("dim 2\n1.0 0.0 : 0 0\n1.0 0.0 : 1 0\n1.0 0.0 : 0 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(capsys, "hp-norm", str(path), "1000", "--json")
        assert code == 0
        row = {r["quantity"]: r for r in json.loads(out)["reports"]}["hp_norm"]
        assert row["method"] == "grid-quadrature"
        assert all(isinstance(row[k], float) and math.isfinite(row[k]) for k in ("value", "error_bound"))
        assert 2.97 < row["value"] <= 3.0

    @pytest.mark.parametrize("as_json", [False, True])
    def test_monte_carlo_sup_has_no_upper_bound(self, capsys, pair_file, as_json):
        code, out, _ = run(capsys, "norm", pair_file, "--samples", "20000", "--seed", "1", *(["--json"] if as_json else []))
        assert code == 0
        if as_json:
            rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
            assert (rows["sup_estimate"]["method"], rows["sup_estimate"]["error_bound"]) == ("monte-carlo", "inf")
        else:
            assert [line.split()[2:] for line in out.splitlines() if line.startswith("sup_estimate")] == [
                ["monte-carlo", "inf"]
            ]


    def test_pair_product_is_reduced(self, capsys, tmp_path):
        # (z1+z2)(z3+z4) depends on two angle differences: the default 64^4
        # grid becomes 64^2 on T^2, and (1+u)(1+v) there is a product of two
        # circle integrals
        path = tmp_path / "pairs.sym"
        path.write_text("dim 4\n" + "".join(f"1.0 0.0 : {a} {1 - a} {b} {1 - b}\n" for a in (0, 1) for b in (0, 1)))
        start = time.perf_counter()
        code, out, _ = run(capsys, "hp-norm", str(path), "1", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
        assert json.loads(out)["config"]["grid"] == 64
        value, bound = rows["hp_norm"]["value"], rows["hp_norm"]["error_bound"]
        assert abs(value - (4 / math.pi) ** 2) <= bound
        factor = "[self-reciprocal antiderivative on 2 arcs cut at the roots, d=2 reduced to r=1]"
        assert rows["note"]["value"] == f"factored into 2 {factor} {factor}, fit residual bound 0, p=1.0"

    @pytest.mark.parametrize("p", ["1", "2.5"])
    def test_constant_is_exact(self, capsys, tmp_path, p):
        path = tmp_path / "one.sym"
        path.write_text("dim 2\n1.0 0.0 : 0 0\n")
        code, out, _ = run(capsys, "hp-norm", str(path), p)
        assert code == 0
        assert [line.split() for line in out.splitlines()[1:3]] == [
            ["quantity", "value", "method", "error_bound"],
            ["hp_norm", "1.0", "exact", "0.0"],
        ]
        code, out, _ = run(capsys, "hp-norm", str(path), p, "--json")
        rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
        assert rows["note"]["value"] == f"modulus of a monomial, d=2 reduced to r=0, p={float(p)}"

    def test_bad_p_is_parse_error(self, capsys, pair_file):
        code, out, err = run(capsys, "hp-norm", pair_file, "abc")
        assert code == 2
        assert out == ""
        assert err == "error: p must be a real >= 1 or 'inf', got 'abc'\n"

    def test_negative_seed_is_domain_error(self, capsys, pair_file):
        code, out, err = run(capsys, "hp-norm", pair_file, "1", "--samples", "1000", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    GRID_REFUSED = "error: tensor grid (MAX_GRID_POINTS) exceeds the budget of 268435456 points\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("hp-norm", "{d1}", "1", "--grid", "10000000000"), GRID_REFUSED),
            (("hp-norm", "{d1}", "inf", "--grid", "10000000000"), GRID_REFUSED),
            (("psi", "--grid", "10000000000"), GRID_REFUSED),
            (
                ("hp-norm", "{d1}", "1", "--samples", "1000000000000", "--seed", "1"),
                "error: monte-carlo samples (MAX_SAMPLES) exceeds the budget of 10000000 samples\n",
            ),
            (
                ("psi", "--trunc", "100000000"),
                "error: completion series truncation (MAX_PSI_TRUNC) exceeds the budget of 10000000 terms per side\n",
            ),
            (("cex", "--trunc", "15"), "error: cex truncation (MAX_CEX_TRUNC) exceeds the budget of 14 blocks\n"),
        ],
        ids=[f"argv{i}" for i in range(6)],
    )
    def test_oversized_grid_is_refused_before_allocation(self, capsys, tmp_path, argv, message):
        path = tmp_path / "d1.sym"
        path.write_text("dim 1\n1.0 0.0 : 0\n0.5 0.0 : 1\n")
        start = time.perf_counter()
        code, out, err = run(capsys, *(a.format(d1=path) for a in argv))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == message

    LINE_REFUSED = "error: one-dimensional grid (MAX_1D_GRID_POINTS) exceeds the budget of 8388608 points\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("hp-norm", "{w}", "inf", "--grid", "100000000"),
            ("hp-norm", "{high}", "1", "--grid", "100000000"),
            ("psi", "--grid", "100000000"),
        ],
        ids=["hp-norm-inf", "hp-norm-high-degree", "psi"],
    )
    def test_whole_one_dimensional_grid_is_refused_before_allocation(self, capsys, tmp_path, argv):
        (tmp_path / "w.sym").write_text("dim 1\n1.0 0.0 : 0\n1.0 0.0 : 1\n")
        (tmp_path / "high.sym").write_text("dim 1\n1.0 0.0 : 0\n1.0 0.0 : 1\n1.0 0.0 : 65\n")
        start = time.perf_counter()
        code, out, err = run(capsys, *(a.format(w=tmp_path / "w.sym", high=tmp_path / "high.sym") for a in argv))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", self.LINE_REFUSED)

    @pytest.mark.parametrize("p, method", [("1", "exact"), ("2", "arc-quadrature")])
    def test_arc_and_exact_paths_take_no_grid(self, capsys, tmp_path, p, method):
        path = tmp_path / "w.sym"
        path.write_text("dim 1\n1.0 0.0 : 0\n1.0 0.0 : 1\n")
        code, out, _ = run(capsys, "hp-norm", str(path), p, "--grid", "100000000", "--json")
        assert code == 0
        assert {r["quantity"]: r for r in json.loads(out)["reports"]}["hp_norm"]["method"] == method

    GRID_TOO_SMALL = "error: points_per_dimension must be >= 4\n"
    TOO_FEW_SAMPLES = "error: monte-carlo needs at least 1000 samples\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("hp-norm", "{pair}", "2", "--samples", "0"), TOO_FEW_SAMPLES),
            (("hp-norm", "{pair}", "2", "--samples", "0", "--seed", "3"), TOO_FEW_SAMPLES),
            (("hp-norm", "{pair}", "2", "--grid", "0"), GRID_TOO_SMALL),
            (("hp-norm", "{pair}", "2", "--grid", "0", "--samples", "5000"), GRID_TOO_SMALL),
            (("norm", "{pair}", "--grid", "0"), GRID_TOO_SMALL),
            (("norm", "{zero}", "--grid", "0"), GRID_TOO_SMALL),
            (("nehari-bound", "{pair}", "{pair}", "--grid", "0"), GRID_TOO_SMALL),
            (("psi", "--grid", "0"), "error: grid must have at least 16 points\n"),
        ],
        ids=["hp-samples", "hp-samples-seed", "hp-grid", "hp-grid-mc", "norm", "norm-zero", "nehari-bound", "psi"],
    )
    def test_explicit_zero_is_refused_not_defaulted(self, capsys, tmp_path, pair_file, argv, message):
        zero = tmp_path / "zero.sym"
        zero.write_text("dim 2\n")
        code, out, err = run(capsys, *(a.format(pair=pair_file, zero=zero) for a in argv))
        assert (code, out, err) == (1, "", message)

    def test_under_resolved_grid_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "big.sym"
        path.write_text("dim 1\n1.0 0.0 : 100000000000000000000000\n1.0 0.0 : 1\n0.5 0.0 : 0\n")
        code, _, err = run(capsys, "hp-norm", str(path), "1")
        assert code == 1
        assert "exponent spread" in err

    def test_index_four_lattice_at_four_points(self, capsys, tmp_path):
        # 1 + z1^4 + z2^4 reduces to 1 + w1 + w2, which N=4 resolves
        path = tmp_path / "four.sym"
        path.write_text("dim 2\n1.0 0.0 : 0 0\n1.0 0.0 : 4 0\n1.0 0.0 : 0 4\n")
        code, out, _ = run(capsys, "hp-norm", str(path), "1", "--grid", "4", "--json")
        assert code == 0
        row = {r["quantity"]: r for r in json.loads(out)["reports"]}["hp_norm"]
        assert abs(row["value"] - 1.5745972) <= row["error_bound"] + 1e-7

    @pytest.mark.parametrize("e", [2**63, 10**23])
    def test_product_beyond_int64(self, capsys, tmp_path, e):
        # (1 + z1^e)(1 + z2): its H^2 norm is 2, its Hankel closure is over budget
        path = tmp_path / "huge.sym"
        path.write_text(f"dim 2\n1.0 0.0 : 0 0\n1.0 0.0 : {e} 0\n1.0 0.0 : 0 1\n1.0 0.0 : {e} 1\n")
        code, out, _ = run(capsys, "hp-norm", str(path), "2")
        assert code == 0
        assert float(table_value(out, "hp_norm")) == pytest.approx(2.0, abs=1e-12)
        code, _, err = run(capsys, "norm", str(path))
        assert code == 1
        assert err.startswith("error:") and "MAX_CLOSURE" in err

    @pytest.mark.parametrize("args", [["1"], ["2"], ["3.5"], ["inf"], ["2", "--samples", "1000"]])
    def test_values_beyond_double_range_are_domain_errors(self, capsys, tmp_path, args):
        path = tmp_path / "big.sym"
        path.write_text("dim 1\n1e308 0.0 : 0\n1e308 0.0 : 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "hp-norm", str(path), *args)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "double range" in err

    def test_exact_h1_near_double_range_computes(self, capsys, tmp_path):
        path = tmp_path / "big.sym"
        path.write_text("dim 1\n1e307 0.0 : 0\n1e307 0.0 : 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "hp-norm", str(path), "1", "--json")
        assert (code, err) == (0, "")
        row = json.loads(out)["reports"][0]
        assert row["method"] == "exact" and row["value"] == pytest.approx(1e307 * 4 / math.pi, rel=1e-14)

    def test_norm_beyond_double_range_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "big.sym"
        path.write_text("dim 2\n1e308 0.0 : 0 0\n1e308 0.0 : 1 0\n1e308 0.0 : 0 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "norm", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "double range" in err


class TestNehariCommands:
    def test_closed_form_bounds(self, capsys):
        code, out, _ = run(capsys, "nehari-bound", "--d", "2")
        assert code == 0
        got = float(table_value(out, "quadratic_witness_lower"))
        assert got == pytest.approx(5 * math.pi / (math.pi + 6 * math.sqrt(3)), abs=1e-12)
        got = float(table_value(out, "pairsum_witness_lower"))
        assert got == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-12)

    def test_odd_d_rejected(self, capsys):
        code, _, err = run(capsys, "nehari-bound", "--d", "3")
        assert code == 1
        assert "even" in err

    def test_dual_bound_from_files(self, capsys, tmp_path):
        f_path = tmp_path / "f.sym"
        f_path.write_text(quadratic(1.0))
        phi_path = tmp_path / "phi.sym"
        phi_path.write_text(quadratic(0.5))
        code, out, _ = run(capsys, "nehari-bound", str(f_path), str(phi_path), "--grid", "1024")
        assert code == 0
        assert float(table_value(out, "bound_value")) == pytest.approx(
            5 * math.pi / (math.pi + 6 * math.sqrt(3)), abs=1e-4
        )

    def test_aliased_reduction_is_domain_error(self, capsys, monkeypatch):
        # No command passes a user symbol to h1_norm_2hom, so stretch the
        # search's test functions f by monkeypatch. phi keeps its degree 2.
        import hankel_lab.nehari as nehari

        quadratic_symbol = nehari._quadratic_symbol
        S = 1 << 16

        def search_with(stretch):
            monkeypatch.setattr(nehari, "_quadratic_symbol", lambda t: quadratic_symbol(t) if t == 0.5 else stretch(t))
            return run(capsys, "nehari-search", "--a", "0.5", "--json")

        code, out, _ = run(capsys, "nehari-search", "--a", "0.5", "--json")
        assert code == 0
        plain = {r["quantity"]: r for r in json.loads(out)["reports"]}["h1_norm"]
        # f(z1^S, z2^S) reduces to f itself: the search succeeds with the same
        # H^1 norm (bound_value reads 0, as this f no longer pairs with phi)
        code, out, _ = search_with(lambda t: nehari.Symbol(2, [((2 * S, 0), 1.0), ((S, S), t), ((0, 2 * S), 1.0)]))
        assert code == 0
        h1 = {r["quantity"]: r for r in json.loads(out)["reports"]}["h1_norm"]
        assert abs(h1["value"] - plain["value"]) <= h1["error_bound"]
        # z1^(2S) + t z1^(2S-1) z2 + z2^(2S) has reduced spread 2S = 2^17,
        # beyond the 2^16-point grid
        code, out, err = search_with(
            lambda t: nehari.Symbol(2, [((2 * S, 0), 1.0), ((2 * S - 1, 1), t), ((0, 2 * S), 1.0)])
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "spread 131072" in err

    def test_search(self, capsys):
        code, out, _ = run(capsys, "nehari-search", "--a", "0.5")
        assert code == 0
        best = float(table_value(out, "best_c"))
        assert 0.8 < best < 0.9

    def test_search_interval_without_the_optimum_is_domain_error(self, capsys):
        # the score decreases across [1e20, 1e21], so its maximum there is the end 1e20
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "nehari-search", "--a", "0.5", "--cmin", "1e20", "--cmax", "1e21")
        assert not caught
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: the optimal c = 0.8702617180734189 ")

    def test_search_infinite_interval_is_domain_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "nehari-search", "--a", "0.5", "--cmax", "inf")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 1
        assert out == ""
        assert err == "error: search interval (0.0, inf) must have finite ends\n"


class TestCexPsi:
    def test_cex(self, capsys):
        code, out, _ = run(capsys, "cex", "--trunc", "3")
        assert code == 0
        assert table_value(out, "classification") == "minimal"
        assert float(table_value(out, "dual_ratio_k=200_q=1")) > 1e3

    def test_cex_builds_its_truncation_once(self, capsys, monkeypatch):
        calls = []

        def counted(K):
            calls.append(K)
            return cex_truncation(K)

        monkeypatch.setattr(cli, "cex_truncation", counted)
        code, out, _ = run(capsys, "cex", "--trunc", "6", "--json")
        assert code == 0
        assert calls == [6]
        # each h2_K=k row is bit-identical to the norm of truncation k itself
        rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
        for k in range(1, 7):
            assert rows[f"h2_K={k}"]["value"] == cex_truncation(k).h2_norm()

    def test_cex_skips_gap_beyond_budget(self, capsys):
        # cex K=10 has a closure over MAX_CLOSURE: a note says so, the h2 and dual-ratio rows stay
        code, out, err = run(capsys, "cex", "--trunc", "10", "--json")
        assert (code, err) == (0, "")
        rows = {r["quantity"]: r for r in json.loads(out)["reports"]}
        assert "classification" not in rows and "gap" not in rows
        assert rows["note"]["value"] == "closure (MAX_CLOSURE) exceeds the budget of 30000 monomials"
        assert rows["h2_K=10"]["value"] > 0 and "dual_ratio_k=200_q=1" in rows

    def test_psi(self, capsys):
        code, out, _ = run(capsys, "psi", "--trunc", "500", "--grid", "64")
        assert code == 0
        assert float(table_value(out, "sup_gridmax")) == pytest.approx(math.pi / 2, abs=0.05)
        assert "z1" in table_value(out, "projection")


    def test_psi_origin_row_names_its_truncation(self, capsys):
        code, out, _ = run(capsys, "psi", "--trunc", "200000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["trunc"] == 200000
        origin = next(r for r in payload["reports"] if r["quantity"] == "origin_value")
        # the origin value is summed to at most 1e5 terms, and says so
        assert origin["method"] == "partial-sum-K=100000"
        assert origin["value"]["re"] == pytest.approx(math.pi / 2, abs=1e-10)
        code, out, _ = run(capsys, "psi", "--trunc", "200", "--grid", "64")
        assert code == 0
        assert "partial-sum-K=200" in out


class TestReproduce:
    def test_rows_and_exit(self, capsys):
        code, out, err = run(capsys, "reproduce")
        payloads = {}
        for line in out.splitlines()[2:]:
            cells = line.split()
            if len(cells) >= 6:
                payloads[cells[0]] = cells[-1]
        # every closed-form row reproduces; the slowly convergent sup row
        # is the single known miss and drives the nonzero exit
        failing = {name for name, status in payloads.items() if status == "FAIL"}
        assert failing == {"psi_sup_gridmax"}
        assert code == 1
        assert "psi_sup_gridmax" in err

    def test_json_has_same_values(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--json")
        payload = json.loads(out)
        rows = {r["quantity"]: r for r in payload["reports"]}
        assert rows["c2_lower_closed"]["status"] == "pass"
        assert rows["witness_pairing"]["computed"] == 2.5


class TestResourceErrors:
    """Refused allocations and failed linear algebra exit 1 with one line.

    The callee is replaced by one that raises: a real refusal depends on
    the host's memory overcommit policy.
    """

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError("Unable to allocate 149. GiB for an array"), "Unable to allocate 149. GiB for an array"),
            (MemoryError(), "MemoryError"),
            (np.linalg.LinAlgError("SVD did not converge"), "SVD did not converge"),
        ],
    )
    @pytest.mark.parametrize("callee, argv", [("hp_norm", ("hp-norm", "{pair}", "1")), ("psi_sup_estimate", ("psi",))])
    def test_one_line_exit_1(self, capsys, monkeypatch, pair_file, error, message, callee, argv):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, callee, refuse)
        code, out, err = run(capsys, *(a.format(pair=pair_file) for a in argv))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


# Exact text and --json output of commands whose values are all closed
# form, so they are the same on any BLAS. Data rows are padded to the
# column widths, trailing spaces included; empty cells are "".
NEHARI_BOUND_D4_TEXT = (
    "# hankel-lab nehari-bound d=4\n"
    "quantity                 value               method             error_bound\n"
    "quadratic_witness_lower  1.3470818607017128  quadratic-witness  0.0        \n"
    "pairsum_witness_lower    1.2337005501361697  pairsum-witness    0.0        \n"
)
NEHARI_BOUND_D4_JSON = """{
  "command": "nehari-bound",
  "config": {
    "d": 4
  },
  "reports": [
    {
      "quantity": "quadratic_witness_lower",
      "value": 1.3470818607017128,
      "method": "quadratic-witness",
      "error_bound": 0.0
    },
    {
      "quantity": "pairsum_witness_lower",
      "value": 1.2337005501361697,
      "method": "pairsum-witness",
      "error_bound": 0.0
    }
  ]
}
"""
NORM_ZERO_TEXT = (
    "# hankel-lab norm grid=256 dim=2\n"
    "quantity       value  method       error_bound\n"
    "h2_norm        0.0    closed-form  0.0        \n"
    "operator_norm  0.0    closed-form  0.0        \n"
    "sup_estimate   0.0    closed-form  0.0        \n"
)
NORM_ZERO_JSON = """{
  "command": "norm",
  "config": {
    "grid": 256,
    "dim": 2
  },
  "reports": [
    {
      "quantity": "h2_norm",
      "value": 0.0,
      "method": "closed-form",
      "error_bound": 0.0
    },
    {
      "quantity": "operator_norm",
      "value": 0.0,
      "method": "closed-form",
      "error_bound": 0.0
    },
    {
      "quantity": "sup_estimate",
      "value": 0.0,
      "method": "closed-form",
      "error_bound": 0.0
    }
  ]
}
"""
CERTIFICATE_TEXT = (
    "# hankel-lab check-minimal tol=1e-09\n"
    "quantity  value                                                                                "
    "method       error_bound\n"
    "status    minimal                                                                              "
    "certificate  0.0        \n"
    "note      closure (MAX_CLOSURE) exceeds the budget of 30000 monomials; construction-certified  "
    "                        \n"
)
CERTIFICATE_JSON = """{
  "command": "check-minimal",
  "config": {
    "tol": 1e-09
  },
  "reports": [
    {
      "quantity": "status",
      "value": "minimal",
      "method": "certificate",
      "error_bound": 0.0
    },
    {
      "quantity": "note",
      "value": "closure (MAX_CLOSURE) exceeds the budget of 30000 monomials; construction-certified",
      "method": "",
      "error_bound": ""
    }
  ]
}
"""


class TestRepeatedMain:
    def test_no_option_leaks_between_calls(self, capsys, pair_file):
        # main() builds its parser once per process; each call parses afresh
        assert cli._build_parser() is cli._build_parser()
        code, out, _ = run(capsys, "hp-norm", pair_file, "1", "--grid", "8", "--json")
        assert code == 0 and json.loads(out)["config"]["grid"] == 8
        code, out, _ = run(capsys, "hp-norm", pair_file, "1", "--json")
        assert code == 0 and json.loads(out)["config"]["grid"] == 256
        code, out, _ = run(capsys, "hp-norm", pair_file, "2", "--samples", "1000", "--seed", "3", "--json")
        assert code == 0 and json.loads(out)["config"]["method"] == "monte-carlo"
        code, out, _ = run(capsys, "hp-norm", pair_file, "2", "--json")
        assert code == 0 and json.loads(out)["config"]["method"] == "tensor-uniform"
        code, out, _ = run(capsys, "norm", pair_file)
        assert code == 0 and out.startswith("# hankel-lab norm grid=256 dim=2\n")

    def test_parse_error_still_exits_2(self, capsys, pair_file):
        for argv in (["hp-norm", pair_file], ["nehari-search"], ["no-such-command"], ["hp-norm", pair_file, "1", "--grid", "x"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert "usage: hankel-lab" in capsys.readouterr().err
        code, out, _ = run(capsys, "hp-norm", pair_file, "1", "--grid", "16")
        assert code == 0 and out.startswith("# hankel-lab hp-norm p=1 method=tensor-uniform grid=16 ")


class TestExactLayout:
    @pytest.mark.parametrize("as_json", [False, True])
    def test_nehari_bound_d4(self, capsys, as_json):
        code, out, err = run(capsys, "nehari-bound", "--d", "4", *(["--json"] if as_json else []))
        assert (code, err) == (0, "")
        assert out == (NEHARI_BOUND_D4_JSON if as_json else NEHARI_BOUND_D4_TEXT)

    @pytest.mark.parametrize("as_json", [False, True])
    def test_norm_of_zero_symbol(self, capsys, tmp_path, as_json):
        path = tmp_path / "zero.sym"
        path.write_text("dim 2\n")
        code, out, err = run(capsys, "norm", str(path), *(["--json"] if as_json else []))
        assert (code, err) == (0, "")
        assert out == (NORM_ZERO_JSON if as_json else NORM_ZERO_TEXT)

    @pytest.mark.parametrize("as_json", [False, True])
    def test_recipe_certificate_branch(self, capsys, tmp_path, as_json):
        path = tmp_path / "big.txt"
        path.write_text("(sum (mono 1.0 0.0 : 30001 0) (mono 1.0 0.0 : 0 1))\n")  # closure over MAX_CLOSURE
        code, out, err = run(capsys, "check-minimal", str(path), "--recipe", *(["--json"] if as_json else []))
        assert (code, err) == (0, "")
        assert out == (CERTIFICATE_JSON if as_json else CERTIFICATE_TEXT)


# floats whose repr json must keep: signed zero, the least subnormal, the
# switches between positional and exponent notation
SPECIAL = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e22]


def shifted(text, depth):
    """A json.dumps(..., indent=2) text as it reads nested depth levels deep."""
    return text.replace("\n", "\n" + "  " * depth)


def written(value, depth=0):
    return "".join(cli._json(value, depth))


def tolists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: tolists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [tolists(item) for item in value]
    return value


float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    elements=st.floats() | st.sampled_from(SPECIAL),
)
payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | float_arrays,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


class TestJsonWriter:
    """The ndarray writer against json.dumps(array.tolist(), indent=2), byte for byte."""

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize(
        "shape", [(0, 0, 2), (0, 3, 2), (3, 0, 2), (1, 1, 2), (4, 3, 2), (0,), (7,), (0, 4), (3, 4), ()]
    )
    def test_shapes(self, shape, depth):
        a = np.resize(np.array(SPECIAL + SPECIAL[::-1]), shape)  # every value, repeated
        assert written(a, depth) == shifted(json.dumps(a.tolist(), indent=2), depth)

    @pytest.mark.parametrize("value, text", [(math.inf, "Infinity"), (-math.inf, "-Infinity"), (math.nan, "NaN")])
    def test_non_finite_is_json_text(self, value, text):
        a = np.array([[[1.0, value], [value, -0.0]]])
        out = written(a, 3)
        assert out == shifted(json.dumps(a.tolist(), indent=2), 3)
        assert f"{text},\n" in out

    @pytest.mark.parametrize("a", [np.arange(6).reshape(3, 2), np.array([[True, False]])], ids=["int", "bool"])
    def test_other_dtypes_are_json_text(self, a):
        assert written(a, 1) == shifted(json.dumps(a.tolist(), indent=2), 1)

    @SETTINGS
    @given(float_arrays, st.integers(0, 4))
    def test_random_arrays(self, a, depth):
        assert written(a, depth) == shifted(json.dumps(a.tolist(), indent=2), depth)

    @SETTINGS
    @given(payloads)
    def test_payloads_holding_arrays(self, value):
        assert written(value) == json.dumps(tolists(value), indent=2)


# every subcommand, on inputs small enough to run in well under a second each
JSON_COMMANDS = [
    ("norm", ["{pair}"]),
    ("norm", ["{zero}"]),
    ("check-minimal", ["{cubic}"]),
    ("check-minimal", ["{recipe}", "--recipe"]),
    ("blocks", ["{cubic}", "--dump"]),
    ("blocks", ["{zero}", "--dump"]),
    ("hp-norm", ["{pair}", "inf"]),
    ("hp-norm", ["{pair}", "1", "--samples", "1000", "--seed", "3"]),
    ("nehari-bound", ["{cubic}", "{cubic}", "--grid", "64"]),
    ("nehari-bound", ["--d", "4"]),
    ("nehari-search", ["--a", "0.5"]),
    ("cex", ["--trunc", "4"]),
    ("psi", ["--trunc", "100", "--grid", "64"]),
    ("reproduce", []),
]


class TestJsonFixedPoint:
    """Every --json output is exactly json.dumps(json.loads(out), indent=2)."""

    def test_every_subcommand_is_listed(self):
        (subparsers,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
        assert {command for command, _ in JSON_COMMANDS} == set(subparsers.choices)

    @pytest.mark.parametrize("command, argv", JSON_COMMANDS, ids=[" ".join([c, *a]) for c, a in JSON_COMMANDS])
    def test_layout(self, capsys, tmp_path, command, argv):
        files = {"pair": PAIR, "cubic": CUBIC, "zero": "dim 2\n", "recipe": RECIPE}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [arg.format(**{name: str(tmp_path / name) for name in files}) for arg in argv]
        code, out, err = run(capsys, command, *argv, "--json")
        # reproduce exits 1 on its known-red psi_sup_gridmax row
        assert code == (1 if command == "reproduce" else 0), err
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
