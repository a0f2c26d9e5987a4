"""Span recorder for the traced run, installed from outside the package.

Each traced function is replaced by a wrapper in the module that defines it
and in every ``fnequiv`` module that imported it by name (including the
package's re-exports), so calls made inside the library are seen as well as
calls made by the benchmark.  Spans live in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

import numpy as np

# (defining module, public function) per layer; the order fixes the metric order.
TRACED = (
    ("nncore", "mse_gradient"),
    ("nncore", "forward_batch"),
    ("nncore", "params_from_flat"),
    ("basin", "train"),
    ("basin", "basin_experiment"),
    ("basin", "initialize"),
    ("basin", "initialize_batch"),
    ("basin", "amplification_check"),
    ("canonical", "canonicalize"),
    ("canonical", "symmetry_profile"),
    ("canonical", "distinct_permutation_images"),
    ("transforms", "apply_permutation"),
    ("equivalence", "decide_equivalence"),
    ("equivalence", "ball_points"),
    ("empirical", "function_class_sample"),
    ("empirical", "greedy_covering_estimate"),
    ("empirical", "greedy_packing_estimate"),
    ("empirical", "exact_covering_number"),
    ("empirical", "exact_packing_number"),
    ("bounds", "volume_covering_bound"),
    ("cli", "main"),
)


def _train_stats(counters, result, args, kwargs):
    counters["basin.train.iterations"] += result.iterations


def _init_batch_stats(counters, result, args, kwargs):
    counters["basin.initialize_batch.computed_bytes"] += result.nbytes


def _greedy_stats(counters, result, args, kwargs):
    # Each greedy step computes one |points - point| matrix per center (or per
    # kept point for packing); the byte count is derived, not measured.
    space = args[0] if args else kwargs["space"]
    counters["empirical.greedy.computed_bytes"] += result * space.points.nbytes


def _cover_stats(counters, result, args, kwargs):
    counters["empirical.greedy_covering_estimate.centers"] += result
    _greedy_stats(counters, result, args, kwargs)


STAT_HOOKS = {
    "basin.train": _train_stats,
    "basin.initialize_batch": _init_batch_stats,
    "empirical.greedy_covering_estimate": _cover_stats,
    "empirical.greedy_packing_estimate": _greedy_stats,
}

COUNTERS = (
    "basin.train.iterations",
    "basin.initialize_batch.computed_bytes",
    "empirical.greedy_covering_estimate.centers",
    "empirical.greedy.computed_bytes",
)


class SpanRecorder:
    """Records (name, start, end, parent, run) spans while ``active``."""

    def __init__(self):
        self.active = False
        self.run_id = 0
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index, run id]
        self.stack: list[int] = []
        self.first = 0
        self.counters = dict.fromkeys(COUNTERS, 0)

    def begin(self, run_id: int) -> None:
        """Start a traced iteration; earlier spans are kept for ``write``."""
        self.run_id = run_id
        self.first = len(self.spans)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        hook = STAT_HOOKS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            parent = rec.stack[-1] if rec.stack else -1
            span = [name_idx, time.perf_counter(), 0.0, parent, rec.run_id]
            rec.spans.append(span)
            rec.stack.append(len(rec.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if hook is not None:
                hook(rec.counters, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function wherever ``fnequiv`` bound its name."""
        modules = [m for k, m in sys.modules.items() if k == "fnequiv" or k.startswith("fnequiv.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"fnequiv.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)

    def summary(self) -> dict:
        """Per-function calls and self time of the current iteration, and the
        time its top-level spans cover."""
        n = len(self.names)
        calls = np.zeros(n, dtype=np.int64)
        total = np.zeros(n)
        child_by_name = np.zeros(n)
        spans = self.spans
        top_level = 0.0
        for name_idx, start, end, parent, _ in spans[self.first :]:
            dur = end - start
            calls[name_idx] += 1
            total[name_idx] += dur
            if parent >= 0:
                child_by_name[spans[parent][0]] += dur
            else:
                top_level += dur
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(total[i] - child_by_name[i])
        out["spans.covered_s"] = top_level
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name_idx, start, end, parent, run in self.spans:
                fh.write(json.dumps([self.names[name_idx], start, end, parent, run]) + "\n")
