"""Spans around the calls into each hankel_lab module, for the traced run.

The tracer replaces the package's public functions, plus the private
stage functions that the per-layer metrics name (basis enumeration,
assembly, the grid and Monte Carlo kernels), with timing wrappers in every
module namespace that holds them, so `hankel_lab.cli.operator_norm`,
`hankel_lab.minimal.operator_norm` and `hankel_lab.hankel.operator_norm`
are all timed. Per-entry helpers (`Symbol.coeff`, `grlex_key`, `degree`,
...) are never wrapped: they run up to n^2 times per matrix and the wrapper
would dominate what it measures.

Spans (name, start, end, parent, op id) are kept in memory and written
out when the run ends. A span's self time is its duration minus the time
its child spans cover; a layer's self time is the sum over its spans.
Counts come from arguments and returned objects and are labelled computed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

_TARGETS = {
    "symbols": (
        "parse_symbol", "format_symbol", "make_symbol", "separate_variables",
        "Symbol.__add__", "Symbol.__sub__", "Symbol.__neg__", "Symbol.__mul__",
        "Symbol.__rmul__", "Symbol.reflect", "Symbol.homogeneous_part", "Symbol.embed",
        "Symbol.h2_norm",
    ),
    "hankel": (
        "active_bases", "build_matrix", "build_block", "spectral_norm", "operator_norm",
        "_downward_closure", "_fill", "HankelMatrix.dump_text",
    ),
    "minimal": (
        "classify", "classify_homogeneous", "d1_monomial_test", "build_recipe",
        "recipe_dimension", "parse_recipe", "format_recipe",
    ),
    "quadrature": (
        "hp_norm", "h1_norm_2hom", "hq_norm_basic", "hq_inverse_lower",
        "hq_inverse_intermediate", "default_spec", "_tensor_stat", "_mc_stat", "_sup_cushion",
    ),
    "nehari": (
        "pairing", "dual_bound", "quadratic_witness_lower", "pairsum_witness_lower",
        "search_c2", "cex_truncation", "cex_ratio", "psi_evaluate", "psi_projection",
        "psi_sup_estimate",
    ),
    "cli": ("_render", "_load_text"),
}

ROOT = "cli.main"

# Per-layer metrics: (name, unit). Times are self times per pass.
METRICS = (
    ("hankel.basis_s", "s"), ("hankel.assembly_s", "s"), ("hankel.svd_s", "s"),
    ("hankel.entries", "count"), ("hankel.nonzero_ratio", "ratio"), ("hankel.basis_dim_max", "count"),
    ("minimal.self_s", "s"), ("minimal.blocks", "count"), ("minimal.recipe_s", "s"),
    ("quadrature.grid_s", "s"), ("quadrature.grid_points", "count"), ("quadrature.sliced_points", "count"),
    ("quadrature.grid_points_per_s", "1/s"),
    ("quadrature.mc_s", "s"), ("quadrature.mc_samples", "count"), ("quadrature.mc_samples_per_s", "1/s"),
    ("quadrature.reduce1d_s", "s"), ("quadrature.reduce1d_calls", "count"), ("quadrature.reduce1d_points", "count"),
    ("quadrature.simpson_s", "s"), ("quadrature.simpson_calls", "count"), ("quadrature.simpson_cache_hit_ratio", "ratio"),
    ("nehari.search_s", "s"), ("nehari.search_evals", "count"), ("nehari.dual_s", "s"),
    ("nehari.psi_s", "s"), ("nehari.psi_terms", "count"), ("nehari.cex_build_s", "s"),
    ("symbols.parse_s", "s"), ("symbols.algebra_s", "s"), ("symbols.terms_parsed", "count"),
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage_ratio", "ratio"),
)


# -- counters fed from arguments and results (computed, not measured) ----------


def _count_fill(tracer, args, kwargs, result):
    counts = tracer.counts
    rows, cols = result.entries.shape
    counts["hankel.entries"] += rows * cols
    counts["hankel.nonzero"] += int(np.count_nonzero(result.entries))
    counts["hankel.basis_dim_max"] = max(counts["hankel.basis_dim_max"], cols)


def _count_tensor(tracer, args, kwargs, result):
    s, n = args[0], args[1]
    points = n**s.dim
    tracer.counts["quadrature.grid_points"] += points
    if s.dim > 1 and points > tracer.full_grid_limit:
        tracer.counts["quadrature.sliced_points"] += points


def _count_mc(tracer, args, kwargs, result):
    tracer.counts["quadrature.mc_samples"] += args[1].samples


def _count_reduce1d(tracer, args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    base = max(1 << 16, spec.points_per_dimension if spec is not None else 0)
    tracer.counts["quadrature.reduce1d_points"] += 3 * base  # N plus the 2N refinement


def _count_psi_sup(tracer, args, kwargs, result):
    tracer.counts["nehari.psi_terms"] += 2 * args[0] + 1


def _count_psi_eval(tracer, args, kwargs, result):
    tracer.counts["nehari.psi_terms"] += 2 * args[0].truncation + 1


def _count_blocks(tracer, args, kwargs, result):
    tracer.counts["minimal.blocks"] += len(result.block_norms or [])


def _count_parse(tracer, args, kwargs, result):
    tracer.counts["symbols.terms_parsed"] += len(result.support)


_OBSERVERS = {
    "hankel._fill": _count_fill,
    "quadrature._tensor_stat": _count_tensor,
    "quadrature._mc_stat": _count_mc,
    "quadrature.h1_norm_2hom": _count_reduce1d,
    "nehari.psi_sup_estimate": _count_psi_sup,
    "nehari.psi_evaluate": _count_psi_eval,
    "minimal.classify_homogeneous": _count_blocks,
    "symbols.parse_symbol": _count_parse,
}


class Tracer:
    """Records spans while an op is open; passes calls through otherwise."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = {
            "hankel.entries": 0, "hankel.nonzero": 0, "hankel.basis_dim_max": 0,
            "minimal.blocks": 0, "quadrature.grid_points": 0, "quadrature.sliced_points": 0,
            "quadrature.mc_samples": 0, "quadrature.reduce1d_points": 0,
            "nehari.psi_terms": 0, "symbols.terms_parsed": 0,
        }
        self.full_grid_limit = None  # the package's sliced-grid threshold, read on install
        self._stack = []
        self._op = None

    def _wrap(self, name, fn):
        observer = _OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self._op])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1], spans[index][2] = start, end
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every hankel_lab namespace that holds it."""
        import hankel_lab
        from hankel_lab import cli, hankel, minimal, nehari, quadrature, symbols

        self.full_grid_limit = quadrature._FULL_GRID_LIMIT
        modules = {"symbols": symbols, "hankel": hankel, "minimal": minimal,
                   "quadrature": quadrature, "nehari": nehari, "cli": cli}
        namespaces = [hankel_lab] + list(modules.values())
        for layer, names in _TARGETS.items():
            home = modules[layer]
            for name in names:
                if "." in name:
                    owner_name, attr = name.split(".")
                    owner = getattr(home, owner_name)
                    setattr(owner, attr, self._wrap(f"{layer}.{name}", getattr(owner, attr)))
                    continue
                original = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    @contextlib.contextmanager
    def op(self, op_id):
        """The root span of one CLI command."""
        index = len(self.spans)
        self.spans.append([ROOT, 0.0, 0.0, None, op_id])
        self._stack.append(index)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._op = None
            self._stack.pop()
            self.spans[index][1], self.spans[index][2] = start, end

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def span_cost(self, calls=20000):
        """Seconds one wrapper adds to a call, measured on an empty function."""

        def empty():
            return None

        wrapped = self._wrap("calibration", empty)
        saved = len(self.spans)
        self._op = -1
        try:
            start = time.perf_counter()
            for _ in range(calls):
                empty()
            plain = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - start
        finally:
            self._op = None
            del self.spans[saved:]
        return max(traced - plain, 0.0) / calls

    def layer_metrics(self, passes, output_bytes, simpson_cache):
        """Per-layer metrics per pass, from the spans and counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_by_name, calls = {}, {}
        search_evals = 0
        root_total = root_self = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name == ROOT:
                root_total += end - start
                root_self += own
            elif name == "quadrature.h1_norm_2hom" and parent is not None and self.spans[parent][0] == "nehari.search_c2":
                search_evals += 1

        def own(*names):
            return sum(self_by_name.get(n, 0.0) for n in names) / passes

        def layer_self(layer):
            return sum(v for n, v in self_by_name.items() if n.split(".")[0] == layer) / passes

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        c = {k: v / passes for k, v in self.counts.items()}
        grid_s, mc_s = own("quadrature._tensor_stat"), own("quadrature._mc_stat")
        hits, misses = simpson_cache
        span_count = len(self.spans) - calls.get(ROOT, 0)
        values = {
            "hankel.basis_s": own("hankel._downward_closure", "hankel.active_bases"),
            "hankel.assembly_s": own("hankel._fill"),
            "hankel.svd_s": own("hankel.spectral_norm"),
            "hankel.entries": c["hankel.entries"],
            "hankel.nonzero_ratio": rate(self.counts["hankel.nonzero"], self.counts["hankel.entries"]),
            "hankel.basis_dim_max": self.counts["hankel.basis_dim_max"],
            "minimal.self_s": layer_self("minimal"),
            "minimal.blocks": c["minimal.blocks"],
            "minimal.recipe_s": own("minimal.parse_recipe", "minimal.build_recipe", "minimal.recipe_dimension"),
            "quadrature.grid_s": grid_s,
            "quadrature.grid_points": c["quadrature.grid_points"],
            "quadrature.sliced_points": c["quadrature.sliced_points"],
            "quadrature.grid_points_per_s": rate(c["quadrature.grid_points"], grid_s),
            "quadrature.mc_s": mc_s,
            "quadrature.mc_samples": c["quadrature.mc_samples"],
            "quadrature.mc_samples_per_s": rate(c["quadrature.mc_samples"], mc_s),
            "quadrature.reduce1d_s": own("quadrature.h1_norm_2hom"),
            "quadrature.reduce1d_calls": calls.get("quadrature.h1_norm_2hom", 0) / passes,
            "quadrature.reduce1d_points": c["quadrature.reduce1d_points"],
            "quadrature.simpson_s": own("quadrature.hq_norm_basic"),
            "quadrature.simpson_calls": calls.get("quadrature.hq_norm_basic", 0) / passes,
            "quadrature.simpson_cache_hit_ratio": rate(hits, hits + misses),
            "nehari.search_s": own("nehari.search_c2"),
            "nehari.search_evals": search_evals / passes,
            "nehari.dual_s": own("nehari.dual_bound"),
            "nehari.psi_s": own("nehari.psi_sup_estimate", "nehari.psi_evaluate", "nehari.psi_projection"),
            "nehari.psi_terms": c["nehari.psi_terms"],
            "nehari.cex_build_s": own("nehari.cex_truncation"),
            "symbols.parse_s": own("symbols.parse_symbol"),
            "symbols.algebra_s": sum(v for n, v in self_by_name.items() if n.startswith("symbols.Symbol.") or n == "symbols.make_symbol") / passes,
            "symbols.terms_parsed": c["symbols.terms_parsed"],
            "cli.self_s": layer_self("cli"),
            "cli.output_bytes": output_bytes / passes,
            "trace.overhead_ratio": rate(span_count * self.span_cost(), root_total),
            "trace.coverage_ratio": 1.0 - rate(root_self, root_total),
        }
        return values

