"""Span tracer that wraps convexlab functions from outside the package.

Each traced function is replaced at every module binding that holds it:
``adaptive``, ``tolerant`` and ``ptf`` import ``sample_haar_frame`` and
``sample_body`` by name, so patching only ``gauss`` and ``nazarov`` would miss
their calls.  ``RngStream`` methods are replaced on the class.  Spans are kept
in memory as (name, start, end, parent index, run id) and written out at the
end; a layer's self time is its span's duration minus the time its child
spans cover.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict


def _rows(a):
    import numpy as np

    return np.atleast_2d(np.asarray(a["points"])).shape[0]


def _xy_pairs(a):
    from convexlab.nazarov import default_halfspace_count

    N = a.get("N_override") or default_halfspace_count(a["n"])
    return 2 * a["trials"] * N  # two N-wide normal draws per trial


# (module, attribute, span name, (counter, work from the bound arguments) or None)
SPANS = [
    ("gauss", "sample_haar_frame", "gauss.sample_haar_frame", ("gauss.sample_haar_frame.elements", lambda a: a["d"] * a["k"])),
    ("nazarov", "sample_body", "nazarov.sample_body", ("nazarov.sample_body.normals", lambda a: a["N"] * a["n"])),
    ("nazarov", "verify_high_degree_bound", "nazarov.verify_high_degree_bound", None),
    ("nazarov", "verify_flap_dogear_ratio", "nazarov.verify_flap_dogear_ratio", None),
    ("tolerant", "estimate_eps_bounds", "tolerant.estimate_eps_bounds",
     ("count.pairs", lambda a: a["instance_draws"] * a["points_per_draw"] * a["N"])),
    ("tolerant", "xy_pair_experiment", "tolerant.xy_pair_experiment", ("count.pairs", _xy_pairs)),
    ("adaptive", "sample_adaptive_instance", "adaptive.sample_adaptive_instance", None),
    ("adaptive", "detect_events", "adaptive.detect_events", None),
    ("adaptive", "eval_adaptive_batch", "adaptive.eval_adaptive_batch", ("adaptive.eval_adaptive_batch.points", _rows)),
    ("tolerant", "sample_tolerant_instance", "tolerant.sample_tolerant_instance", None),
    ("tolerant", "eval_yes_batch", "tolerant.eval_yes_batch", None),
    ("tolerant", "eval_no_batch", "tolerant.eval_no_batch", None),
    ("tolerant", "detect_bad", "tolerant.detect_bad", None),
    ("tolerant", "view_experiment", "tolerant.view_experiment", None),
    ("ptf", "sample_ptf_instance", "ptf.sample_ptf_instance", None),
    ("ptf", "eval_ptf_batch", "ptf.eval_ptf_batch", None),
    ("ptf", "response_tv_experiment", "ptf.response_tv_experiment", None),
    ("testers", "run_one_sided", "testers.run_one_sided", None),
    ("testers", "in_convex_hull", "testers.in_convex_hull", None),
    ("parallel", "map_units", "parallel.map_units", ("parallel.map_units.units", lambda a: a["n_units"])),
]

# The count estimators whose inclusive time is the base of count.pairs_per_s.
COUNT_SPANS = (
    "nazarov.verify_high_degree_bound",
    "nazarov.verify_flap_dogear_ratio",
    "tolerant.estimate_eps_bounds",
    "tolerant.xy_pair_experiment",
)


def layer_names() -> list[str]:
    """Every per-layer number a traced run can report (zero when not called)."""
    names = []
    for _, _, name, work in SPANS + [(None, None, "testers.prefilter", None),
                                     (None, None, "rng.generator", None)]:
        names += [f"{name}.calls", f"{name}.self_s", f"{name}.s"]
        if work:
            names.append(work[0])
    return sorted(set(names) | {
        "rng.child.calls", "count.pairs_per_s", "testers.hull_checks",
        "testers.prefilter_skips", "testers.prefilter_skip_ratio",
    })


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.run_id = 0
        self._stack: list[list] = []  # [span index, start, time covered by children]
        self.calls = defaultdict(int)  # (run id, name) -> calls
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)  # (run id, counter) -> work
        self._patched: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def enter(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self.spans.append([name, start, 0.0, parent, self.run_id])
        self._stack.append([len(self.spans) - 1, start, 0.0])

    def exit(self):
        index, start, covered = self._stack.pop()
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        duration = end - start
        key = (self.run_id, span[0])
        self.calls[key] += 1
        self.incl_s[key] += duration
        self.self_s[key] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, counter: str, amount: int = 1):
        self.counts[(self.run_id, counter)] += amount

    # -- wrapping --------------------------------------------------------------

    def _spanned(self, fn, name, work):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work:
                self.count(work[0], work[1](signature.bind(*args, **kwargs).arguments))
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def _prefilter(self, fn):
        @functools.wraps(fn)
        def wrapper(y, points, tol):
            self.enter("testers.prefilter")
            try:
                outside = fn(y, points, tol)
            finally:
                self.exit()
            self.count("testers.hull_checks")
            self.count("testers.prefilter_skips", int(bool(outside)))
            return outside

        return wrapper

    def _count_batches(self, fn):
        @functools.wraps(fn)
        def wrapper(norms, N, r, gen):
            self.count("count.pairs", int(norms.size) * int(N))
            return fn(norms, N, r, gen)

        return wrapper

    def _child(self, fn):
        @functools.wraps(fn)
        def wrapper(stream, index):
            self.count("rng.child.calls")
            return fn(stream, index)

        return wrapper

    def _generator(self, fn):
        @functools.wraps(fn)
        def wrapper(stream):
            self.enter("rng.generator")
            try:
                return fn(stream)
            finally:
                self.exit()

        return wrapper

    def _patch_everywhere(self, original, replacement):
        """Rebind every convexlab module attribute that holds `original`."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "convexlab" and not mod_name.startswith("convexlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, only=None):
        """Wrap the traced functions; `only` restricts to these span names."""
        # Import every traced module first, so no later import copies a wrapper.
        from convexlab import experiments, nazarov, parallel, testers  # noqa: F401
        from convexlab.rng import RngStream

        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, work in SPANS:
            if only is not None and name not in only:
                continue
            original = getattr(importlib.import_module(f"convexlab.{mod_name}"), attr)
            self._patch_everywhere(original, self._spanned(original, name, work))
        if only is None:
            self._patch_everywhere(testers._certified_outside, self._prefilter(testers._certified_outside))
            self._patch_everywhere(nazarov._count_batches, self._count_batches(nazarov._count_batches))
            for attr, wrap in (("generator", self._generator), ("child", self._child)):
                original = RngStream.__dict__[attr]
                self._patched.append((RngStream, attr, original))
                setattr(RngStream, attr, wrap(original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def run_metrics(self, run_id: int) -> dict:
        """Per-layer numbers of one traced run, keyed by metric name."""
        out = {}
        for (rid, name), calls in self.calls.items():
            if rid == run_id:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self.self_s[(rid, name)]
                out[f"{name}.s"] = self.incl_s[(rid, name)]
        for (rid, counter), amount in self.counts.items():
            if rid == run_id:
                out[counter] = amount
        pairs = out.get("count.pairs", 0)
        count_s = sum(out.get(f"{name}.s", 0.0) for name in COUNT_SPANS)
        out["count.pairs_per_s"] = pairs / count_s if count_s > 0 else 0.0
        checks = out.get("testers.hull_checks", 0)
        out["testers.prefilter_skip_ratio"] = (
            out.get("testers.prefilter_skips", 0) / checks if checks else 0.0
        )
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, run_id]) + "\n")
