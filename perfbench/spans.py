"""Spans recorded from outside the package: module-level functions are wrapped.

A ``Tracer`` replaces selected module attributes with timing wrappers while it
is installed and restores the originals afterwards, so untraced phases run the
unmodified code. Each call becomes one span (name, parent span, start, end,
counts); spans stay in memory until the run ends. Calls made while a span of
the same name is open on the same thread (recursion) are passed through, so a
function is counted once per outer call.

Functions imported by value (``from .seqlimit import estimate_limit``) are
wrapped in the namespace where they are looked up as well as where they are
defined; both wrappers record under one span name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

# Span ids are unique across tracers in one process, so their spans can be merged.
_IDS = itertools.count()


def _nbytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def targets():
    """Wrapped functions: span name -> (lookup sites, count extractor or None)."""

    def conv(args, kwargs, out):
        return {"pairs": len(args[0]) * len(args[2])}

    def assemble(args, kwargs, out):
        return {"dofs": 2 * len(args[2])}

    def solve(args, kwargs, out):
        return {"steady.newton_iters": out.newton_iters,
                "steady.failed_solves": int(not out.converged)}

    def limit(args, kwargs, out):
        import numpy as np

        return {"cells": int(np.asarray(args[0]).size), "seqlimit.route." + out[1]: 1}

    def verify(args, kwargs, out):
        return {"expansion.checks_failed": len(out.failures())}

    def io(args, kwargs, out):
        return {"bytes": _nbytes(args[0])}

    return {
        "kernels.assemble_linearized": ([("kernels", "assemble_linearized")], assemble),
        "kernels.advect_convolve": ([("kernels", "advect_convolve")], conv),
        "kernels.advect_fft": ([("kernels", "advect_fft")], None),
        "steady.solve_steady": ([("steady", "solve_steady")], solve),
        "steady.residual": ([("steady", "residual")], None),
        "spectral.bilinear_b": ([("spectral", "bilinear_b")], None),
        "spectral.bilinear_bs": ([("spectral", "bilinear_bs")], None),
        "spectral.lin_comb": ([("spectral", "lin_comb")], None),
        "spectral.eigen_basis": ([("spectral", "eigen_basis")], None),
        "seqlimit.estimate_limit": (
            [("seqlimit", "estimate_limit"), ("expansion", "estimate_limit")], limit),
        "expansion.extract_strict": ([("expansion", "extract_strict")], None),
        "expansion.refine_unitary": ([("expansion", "refine_unitary")], None),
        "expansion.restructure": ([("expansion", "restructure")], None),
        "expansion.save_expansion": ([("expansion", "save_expansion")], None),
        "expansion.load_expansion": ([("expansion", "load_expansion")], None),
        "expansion.verify_expansion": ([("expansion", "verify_expansion")], verify),
        "orders.build_S": ([("orders", "build_S")], None),
        "orders.classify": ([("orders", "classify")], None),
        "orders.compare": ([("orders", "compare")], None),
        "fieldio.write_field": ([("fieldio", "write_field")], io),
        "fieldio.read_field": ([("fieldio", "read_field")], io),
        "fixtures.example45": ([("fixtures", "example45")], None),
        "fixtures.example314": ([("fixtures", "example314")], None),
        "cli.fixtures": ([("cli", "cmd_fixtures")], None),
        "cli.extract": ([("cli", "cmd_extract")], None),
        "cli.verify": ([("cli", "cmd_verify")], None),
        "cli.classify": ([("cli", "cmd_classify")], None),
        "cli.report": ([("cli", "cmd_report")], None),
    }


class Tracer:
    """In-memory span recorder; ``with tracer.installed(pkg):`` wraps, then restores."""

    def __init__(self):
        self.spans = []          # (id, name, parent id or None, t0, t1, counts or None)
        self.missing = []        # lookup sites absent at this commit
        self._stacks = defaultdict(list)  # thread ident -> open [(id, name)]
        self._main = threading.main_thread().ident

    def _parent(self, stack):
        if stack:
            return stack[-1][0]
        # Worker threads (verify's pool) hang their spans under the main
        # thread's innermost open span.
        main = self._stacks.get(self._main)
        return main[-1][0] if main else None

    def _wrap(self, fn, name, extract):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stacks[threading.get_ident()]
            if any(n == name for _, n in stack):
                return fn(*args, **kwargs)
            sid = next(_IDS)
            parent = tracer._parent(stack)
            stack.append((sid, name))
            out, done = None, False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                counts = extract(args, kwargs, out) if extract and done else None
                tracer.spans.append((sid, name, parent, t0, t1, counts))

        return wrapper

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every target while the block runs; restore the originals after."""
        saved = []
        try:
            for name, (sites, extract) in targets().items():
                for modname, attr in sites:
                    mod = importlib.import_module(f"{package}.{modname}")
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        self.missing.append(f"{modname}.{attr}")
                        continue
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn, name, extract))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _covered(intervals):
    """Total length of the union of (t0, t1) intervals."""
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def aggregate(spans):
    """Flat per-layer values and parent edges from a list of spans.

    For span name ``x``: ``x.calls``, ``x.s`` (total time) and ``x.self_s``
    (duration minus the part of the span's interval that its child spans
    cover; children of one parent may overlap when they run on worker
    threads, so the union is subtracted, not the sum). A count key without a
    dot is reported as ``x.key``; a dotted key is a metric name of its own.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, _, parent, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    values = defaultdict(float)
    edges = defaultdict(int)
    for sid, name, parent, t0, t1, counts in spans:
        values[f"{name}.calls"] += 1
        values[f"{name}.s"] += t1 - t0
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        values[f"{name}.self_s"] += (t1 - t0) - _covered([k for k in kids if k[1] > k[0]])
        for key, val in (counts or {}).items():
            values[key if "." in key else f"{name}.{key}"] += val
        pname = by_id[parent][1] if parent in by_id else "-"
        edges[(pname, name)] += 1
    return dict(values), dict(edges)


def line_search_retries(spans):
    """Residual evaluations inside solve_steady beyond the initial one and one per
    Newton iteration: the step halvings of the damped line search."""
    names = {s[0]: s[1] for s in spans}
    evals = defaultdict(int)
    for _, name, parent, *_ in spans:
        if name == "steady.residual" and names.get(parent) == "steady.solve_steady":
            evals[parent] += 1
    return sum(evals[sid] - 1 - counts["steady.newton_iters"]
               for sid, name, _, _, _, counts in spans
               if name == "steady.solve_steady" and counts)
