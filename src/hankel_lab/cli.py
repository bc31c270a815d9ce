"""Command-line front end.

Subcommands: norm, check-minimal, blocks, hp-norm, nehari-bound,
nehari-search, cex, psi, reproduce. Every run prints its effective
numeric settings in a header so the output is self-describing, and
--json emits the same values as flat objects. Exit codes: 0 success,
1 domain/contract error (also a refused allocation or a failed linear
algebra routine), 2 parse error (including unreadable files).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np
from numpy.linalg import LinAlgError

from . import _threads  # noqa: F401  (thread cap must precede numpy-heavy work)
from .errors import BudgetError, DomainError, ParseError
from .hankel import build_blocks, decisive_block_norms, float_texts, operator_norm, spectral_norm
from .minimal import build_recipe, classify, classify_homogeneous, parse_recipe
from .nehari import (
    PsiSeries,
    cex_ratio,
    cex_truncation,
    dual_bound,
    pairsum_witness_lower,
    psi_evaluate,
    psi_projection,
    psi_sup_estimate,
    quadratic_witness_lower,
    search_c2,
)
from .quadrature import QuadratureSpec, default_spec, h1_norm_2hom, hp_norm, hq_inverse_lower, hq_norm_basic
from .symbols import Symbol, parse_symbol

DEFAULT_TOL = 1e-9
DEFAULT_GRID = 256
DEFAULT_TRUNC = 10**4


def _load_text(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _fmt(value):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))  # plain repr even for numpy scalars
    if isinstance(value, complex):
        return f"{value.real!r}{'+' if value.imag >= 0 else '-'}{abs(value.imag)!r}j"
    return str(value)


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _holds_array(value):
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return isinstance(value, np.ndarray)
    return any(map(_holds_array, value))


def _json(value, depth=0):
    """The text of json.dumps(value, indent=2), shifted right by depth levels, in pieces.

    A scalar's text is the same with or without indent, and without it json
    writes it with its C encoder. A dict or list without an ndarray is
    json's own text, with two more spaces per level after each newline
    (JSON strings hold no raw newline). json refuses an ndarray, so a dict
    or list holding one is written a level at a time, and the ndarray as
    its tolist() would be, by _json_array.
    """
    if isinstance(value, np.ndarray):
        yield _json_array(value, depth)
        return
    if not isinstance(value, (dict, list, tuple)):
        yield json.dumps(value)
        return
    if not _holds_array(value):
        text = json.dumps(value, indent=2)
        yield text.replace("\n", "\n" + "  " * depth) if depth else text
        return
    pad = "\n" + "  " * (depth + 1)
    is_dict = isinstance(value, dict)
    yield "{" if is_dict else "["
    for i, (key, item) in enumerate(value.items() if is_dict else enumerate(value)):
        yield ("," if i else "") + pad + (json.dumps(key) + ": " if is_dict else "")
        yield from _json(item, depth + 1)
    yield "\n" + "  " * depth + ("}" if is_dict else "]")


def _json_array(a, depth):
    """The text that _json(a.tolist(), depth) yields, without a Python step per float.

    Each float's text comes from float_texts, json's own float.__repr__.
    Between two floats in C order, k of the innermost lists end and as many
    start afresh, so the text between them is one of a.ndim strings, by k;
    the whole array is one str.join. A 0-d, empty, non-finite or
    non-float64 array goes through json itself.
    """
    if a.dtype != np.float64 or a.ndim == 0 or a.size == 0 or not np.isfinite(a).all():
        return "".join(_json(a.tolist(), depth))
    n = a.ndim
    indent = ["\n" + "  " * (depth + axis) for axis in range(n + 1)]
    opens = ["[" + indent[axis + 1] for axis in range(n)]  # outermost first
    closes = [indent[axis] + "]" for axis in reversed(range(n))]  # innermost first
    # gaps[k]: k lists end, a comma, k lists start
    gaps = np.array(["".join(closes[:k] + ["," + indent[n - k]] + opens[n - k :]) for k in range(n)], dtype=object)
    # before float i, the lists of the innermost k axes end: k counts the list sizes dividing i
    i = np.arange(1, a.size)
    ends = sum(i % math.prod(a.shape[axis:]) == 0 for axis in range(1, n))
    pieces = np.empty(2 * a.size - 1, dtype=object)
    pieces[0::2] = float_texts(a)
    pieces[1::2] = gaps[ends]
    return "".join(opens) + "".join(pieces.tolist()) + "".join(closes)


def _render(command, config, rows, as_json):
    """Print the rows as a table under a settings header, or as JSON.

    The JSON is laid out exactly as json.dumps(payload, indent=2) would lay
    it out, floats written by repr so that they read back bit for bit; a
    row's float ndarray (a block's matrix) is written as its tolist() would
    be, at C speed.
    """
    if as_json:
        payload = {
            "command": command,
            "config": {k: _jsonable(v) for k, v in config.items()},
            "reports": [{k: _jsonable(v) for k, v in row.items()} for row in rows],
        }
        # piece by piece: a block matrix's text is never copied into one payload string
        sys.stdout.writelines(_json(payload))
        print()
        return
    settings = " ".join(f"{k}={_fmt(v)}" for k, v in config.items())
    print(f"# hankel-lab {command} {settings}".rstrip())
    if not rows:
        return
    columns = list(rows[0].keys())
    table = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in table)) for i, col in enumerate(columns)]
    print("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)))
    for line in table:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))


def _row(quantity, value, method="", error_bound=""):
    return {"quantity": quantity, "value": value, "method": method, "error_bound": error_bound}


def _estimate_row(quantity, est):
    return _row(quantity, est.value, est.method, est.error_bound)


def _witness_rows(report):
    witness = report.witness
    return [
        _row("bound_value", report.bound_value, report.method),
        _row("pairing", witness.pairing, "closed-form", 0.0),
        _estimate_row("hankel_norm", witness.hankel_norm),
        _estimate_row("h1_norm", witness.h1),
    ]


def _given(value, default):
    """An option's value, or default when it was not given; an explicit 0 stays 0."""
    return default if value is None else value


def _spec_from(args, dim):
    if getattr(args, "samples", None) is not None or getattr(args, "seed", None) is not None:
        return QuadratureSpec(
            points_per_dimension=_given(args.grid, DEFAULT_GRID),
            method="monte-carlo",
            seed=_given(args.seed, 0),
            samples=_given(args.samples, 10**6),
        )
    return QuadratureSpec(points_per_dimension=_given(args.grid, default_spec(dim).points_per_dimension))


# -- subcommands ---------------------------------------------------------------


def cmd_norm(args):
    s = parse_symbol(_load_text(args.symbol))
    spec = _spec_from(args, s.dim)
    rows = [_row("h2_norm", s.h2_norm(), "closed-form", 0.0)]
    if s.is_zero:
        rows += [_row(quantity, 0.0, "closed-form", 0.0) for quantity in ("operator_norm", "sup_estimate")]
    else:
        rows.append(_estimate_row("operator_norm", operator_norm(s)))
        rows.append(_estimate_row("sup_estimate", hp_norm(s, math.inf, spec)))
    config = {"grid": _given(args.grid, default_spec(s.dim).points_per_dimension), "dim": s.dim}
    _render("norm", config, rows, args.json)
    return 0


def _classify(s, tol):
    """Verdict from the decisive blocks of a homogeneous symbol, else from the full matrix."""
    if s.is_homogeneous() is not None:
        return classify_homogeneous(s, tol), "homogeneous-blocks"
    return classify(s, tol), "full-matrix"


def _check_minimal_rows(args, tol):
    certified = "construction-certified" if args.recipe else ""
    if args.recipe:
        s = build_recipe(parse_recipe(_load_text(args.symbol)))
        try:
            verdict, path = _classify(s, tol)
        except BudgetError as err:  # no numeric gap; the note says which budget
            return [_row("status", "minimal", "certificate", 0.0), _row("note", f"{err}; {certified}")]
    else:
        s = parse_symbol(_load_text(args.symbol))
        verdict, path = _classify(s, tol)
    note = "; ".join(filter(None, [verdict.note, certified]))
    rows = [
        _row("status", verdict.status, path),
        _row("gap", verdict.gap, path),
        _row("h2_norm", s.h2_norm(), "closed-form", 0.0),
    ]
    rows += [
        _row(f"block_norm_k={k}", norm, "spectral-exact", bound)
        for (k, norm), bound in zip(verdict.block_norms or [], verdict.block_bounds or [])
    ]
    if note:
        rows.append(_row("note", note))
    return rows


def cmd_check_minimal(args):
    tol = _given(args.tol, DEFAULT_TOL)
    _render("check-minimal", {"tol": tol}, _check_minimal_rows(args, tol), args.json)
    return 0


def cmd_blocks(args):
    s = parse_symbol(_load_text(args.symbol))
    m = s.is_homogeneous()
    if m is None:
        raise DomainError("blocks requires a homogeneous symbol")
    blocks = list(enumerate(build_blocks(s, range(m + 1))))
    # entry [gamma, beta] depends on gamma + beta alone, so block m-k is block k transposed
    half = [spectral_norm(block) for _, block in blocks[: m // 2 + 1]]
    estimates = [half[min(k, m - k)] for k, _ in blocks]
    rows = [
        {**_estimate_row(f"block_k={k}", est), "shape": f"{block.shape[0]}x{block.shape[1]}"}
        for (k, block), est in zip(blocks, estimates)
    ]
    # the blocks act on disjoint columns and rows, so the largest is the full norm
    rows.append({**_estimate_row("operator_norm", max(estimates, key=lambda e: e.value)), "shape": ""})
    if args.json and args.dump:
        for row, (_, block) in zip(rows, blocks):
            row["matrix"] = block.entries.view(float).reshape(*block.shape, 2)  # [re, im] pairs
    _render("blocks", {"homogeneity": m}, rows, args.json)
    if args.dump and not args.json:
        for k, block in blocks:
            print(f"# block k={k}")
            print(block.dump_text(), end="")
    return 0


def cmd_hp_norm(args):
    s = parse_symbol(_load_text(args.symbol))
    try:
        p = float(args.p)  # also reads 'inf' and 'infinity', in any case
    except ValueError:
        raise ParseError(f"p must be a real >= 1 or 'inf', got {args.p!r}") from None
    spec = _spec_from(args, s.dim)
    est = hp_norm(s, p, spec)
    config = {
        "p": args.p,
        "method": spec.method,
        "grid": spec.points_per_dimension,
        "seed": spec.seed,
        "samples": spec.samples,
    }
    rows = [_estimate_row("hp_norm", est)]
    # the norm was taken on a lower-dimensional torus, or as a product of factors
    if "reduced to" in est.metadata or "factored into" in est.metadata:
        rows.append(_row("note", est.metadata))
    _render("hp-norm", config, rows, args.json)
    return 0


def cmd_nehari_bound(args):
    if args.d is not None:
        if args.files:
            raise DomainError("give either --d or two symbol files, not both")
        quadratic = quadratic_witness_lower(args.d)
        pairsum = pairsum_witness_lower(args.d)
        rows = [
            _row("quadratic_witness_lower", quadratic.bound_value, quadratic.method, 0.0),
            _row("pairsum_witness_lower", pairsum.bound_value, pairsum.method, 0.0),
        ]
        _render("nehari-bound", {"d": args.d}, rows, args.json)
        return 0
    if len(args.files) != 2:
        raise DomainError("nehari-bound needs two symbol files (f, phi) or --d")
    f, phi = (parse_symbol(_load_text(path)) for path in args.files)
    spec = _spec_from(args, f.dim)
    rows = _witness_rows(dual_bound(f, phi, spec))
    _render("nehari-bound", {"grid": spec.points_per_dimension, "d": f.dim}, rows, args.json)
    return 0


def cmd_nehari_search(args):
    best_c, step, report = search_c2(args.a)
    rows = [_row("best_c", best_c, "search", step), *_witness_rows(report)]
    _render("nehari-search", {"a": args.a}, rows, args.json)
    return 0


def cmd_cex(args):
    K = _given(args.trunc, 4)
    s = cex_truncation(K)
    # block k has degree k, so truncation k is the degree <= k part of s
    squares = [(sum(alpha), abs(c) ** 2) for alpha, c in s.terms()]
    rows = []
    sqrt6_over_pi = math.sqrt(6.0) / math.pi
    for k in range(1, K + 1):
        h2 = math.sqrt(math.fsum(sq for deg, sq in squares if deg <= k))
        reference = sqrt6_over_pi * math.sqrt(sum(1.0 / j**2 for j in range(1, k + 1)))
        rows.append(_row(f"h2_K={k}", h2, "closed-form", abs(h2 - reference)))
    try:
        verdict = classify(s, DEFAULT_TOL)
    except BudgetError as err:  # no numeric gap; the note says which budget
        rows.append(_row("note", str(err)))
    else:
        rows += [_row("classification", verdict.status, "full-matrix"), _row("gap", verdict.gap, "full-matrix")]
    rows += [_row(f"dual_ratio_k={k}_q=1", cex_ratio(k, 1.0), "closed-form", 0.0) for k in (1, 10, 100, 200)]
    _render("cex", {"trunc": K, "dim": K * (K + 1)}, rows, args.json)
    return 0


def cmd_psi(args):
    K = _given(args.trunc, DEFAULT_TRUNC)
    grid = _given(args.grid, 512)
    est = psi_sup_estimate(K, grid)
    origin_trunc = min(K, 10**5)  # the value at the origin is summed to at most 1e5 terms
    origin = psi_evaluate(PsiSeries(origin_trunc), 0.0, 0.0)
    rows = [
        _estimate_row("sup_gridmax", est),
        _row("projection", str(psi_projection(PsiSeries(K))), "closed-form", 0.0),
        _row("origin_value", origin, f"partial-sum-K={origin_trunc}"),
        _row("half_pi", math.pi / 2.0, "closed-form", 0.0),
    ]
    _render("psi", {"trunc": K, "grid": grid}, rows, args.json)
    return 0


def _reproduce_rows():
    sqrt6_over_pi = math.sqrt(6.0) / math.pi
    pair = Symbol(2, [((1, 0), 1.0), ((0, 1), 1.0)])
    rows = []

    def add(name, computed, reference, tol):
        rows.append(
            {
                "quantity": name,
                "computed": computed,
                "reference": reference,
                "diff": abs(computed - reference),
                "tol": tol,
                "status": "pass" if abs(computed - reference) <= tol else "FAIL",
            }
        )

    add("pairsum_h2", pair.h2_norm(), math.sqrt(2.0), 1e-12)

    for d in (1, 2, 3):
        dim = 2 * d
        product = Symbol.one(dim)
        for j in range(d):
            product = product * (Symbol.variable(dim, 2 * j) + Symbol.variable(dim, 2 * j + 1))
        add(f"pair_product_opnorm_d={d}", operator_norm(product).value, 2.0 ** (d / 2.0), 1e-9)

    quadratic_half = Symbol(2, [((2, 0), 1.0), ((1, 1), 0.5), ((0, 2), 1.0)])
    add(
        "quadratic_block1_at_half",
        decisive_block_norms(quadratic_half)[0].value,
        1.5,
        1e-10,
    )
    add("quadratic_h2_at_half", quadratic_half.h2_norm(), 1.5, 1e-12)

    b = math.sqrt(2.0) - 1.0
    cubic = Symbol(2, [((3, 0), 1.0), ((2, 1), b), ((1, 2), b), ((0, 3), 1.0)])
    add(
        "cubic_block1_gram_at_threshold",
        decisive_block_norms(cubic)[0].value ** 2,
        1.0 + 2.0 * b + 3.0 * b * b,
        1e-10,
    )
    add("cubic_h2sq_at_threshold", cubic.h2_norm() ** 2, 2.0 + 2.0 * b * b, 1e-12)

    f = Symbol(2, [((2, 0), 1.0), ((1, 1), 1.0), ((0, 2), 1.0)])
    report = dual_bound(f, quadratic_half, QuadratureSpec(points_per_dimension=1024))
    c2_reference = 5.0 * math.pi / (math.pi + 6.0 * math.sqrt(3.0))
    add("witness_pairing", abs(report.witness.pairing), 2.5, 1e-15)
    add("witness_hankel_norm", report.witness.hankel_norm.value, 1.5, 1e-10)
    add("witness_h1", h1_norm_2hom(f).value, 1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi, 1e-6)
    add("c2_dual_bound", report.bound_value, c2_reference, 1e-5)
    add("c2_lower_closed", quadratic_witness_lower(2).bound_value, c2_reference, 1e-12)
    add("pairsum_lower_closed", pairsum_witness_lower(2).bound_value, math.pi / (2.0 * math.sqrt(2.0)), 1e-12)
    add(
        "pairsum_dual_bound",
        dual_bound(pair, pair, QuadratureSpec(points_per_dimension=1024)).bound_value,
        math.pi / (2.0 * math.sqrt(2.0)),
        1e-6,
    )

    add("hq_norm_q1", hq_norm_basic(1.0).value, 2.0 * math.sqrt(2.0) / math.pi, 1e-9)
    add("hq_inverse_lower_q1", hq_inverse_lower(1.0), 1.0 + (2.0 * math.log(2.0) - 1.0) / 8.0, 1e-12)

    add(
        "cex_h2_K3",
        cex_truncation(3).h2_norm(),
        sqrt6_over_pi * math.sqrt(1.0 + 0.25 + 1.0 / 9.0),
        1e-12,
    )
    add("cex_h2_limit", sqrt6_over_pi * math.sqrt(math.pi**2 / 6.0), 1.0, 1e-12)

    projection_gap = (psi_projection(PsiSeries(4)) - pair).h2_norm()
    add("psi_projection_gap", projection_gap, 0.0, 1e-15)
    add("psi_sup_gridmax", psi_sup_estimate(DEFAULT_TRUNC, 512).value, math.pi / 2.0, 2e-3)
    return rows


def cmd_reproduce(args):
    rows = _reproduce_rows()
    config = {"tol": DEFAULT_TOL, "grid": DEFAULT_GRID, "trunc": DEFAULT_TRUNC}
    _render("reproduce", config, rows, args.json)
    failures = [row["quantity"] for row in rows if row["status"] == "FAIL"]
    if failures:
        print("out of tolerance: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


# -- wiring --------------------------------------------------------------------


@functools.cache  # built on the first main(), not at import; parse_args leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hankel-lab",
        description="Small Hankel operators on the d-torus with polynomial symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False, tol=False, trunc=False, sampling=False):
        p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
        if grid:
            p.add_argument("--grid", type=int, default=None, help="points per dimension")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="classification tolerance")
        if trunc:
            p.add_argument("--trunc", type=int, default=None, help="series truncation order")
        if sampling:
            p.add_argument("--seed", type=int, default=None, help="monte-carlo seed")
            p.add_argument("--samples", type=int, default=None, help="monte-carlo sample count")

    p = sub.add_parser("norm", help="h2 norm, operator norm and sup estimate of a symbol file")
    p.add_argument("symbol")
    common(p, grid=True, sampling=True)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("check-minimal", help="classify a symbol (or a recipe) as minimal-norm")
    p.add_argument("symbol", help="symbol file, or recipe file with --recipe")
    p.add_argument("--recipe", action="store_true", help="input is a recipe s-expression")
    common(p, tol=True)
    p.set_defaults(func=cmd_check_minimal)

    p = sub.add_parser("blocks", help="homogeneous block norms (and matrices with --dump)")
    p.add_argument("symbol")
    p.add_argument("--dump", action="store_true", help="dump block matrices as text")
    common(p)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("hp-norm", help="H^p norm of a symbol file (p a real >= 1, or 'inf')")
    p.add_argument("symbol")
    p.add_argument("p")
    common(p, grid=True, sampling=True)
    p.set_defaults(func=cmd_hp_norm)

    p = sub.add_parser("nehari-bound", help="dual-pairing bound from two files, or closed-form bounds via --d")
    p.add_argument("files", nargs="*", help="f and phi symbol files")
    p.add_argument("--d", type=int, default=None, help="even dimension for the closed-form bounds")
    common(p, grid=True, sampling=True)
    p.set_defaults(func=cmd_nehari_bound)

    p = sub.add_parser("nehari-search", help="tune the quadratic test function over c")
    p.add_argument("--a", type=float, required=True, help="middle coefficient of the symbol (0 <= a <= 1/2)")
    common(p)
    p.set_defaults(func=cmd_nehari_search)

    p = sub.add_parser("cex", help="truncations of the divergent-dual symbol and their diagnostics")
    common(p, trunc=True)
    p.set_defaults(func=cmd_cex)

    p = sub.add_parser("psi", help="sup estimate and projection of the completion series for z1+z2")
    common(p, grid=True, trunc=True)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("reproduce", help="recompute the built-in reference table")
    common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MemoryError, LinAlgError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
