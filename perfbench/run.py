"""Benchmark of the grashof-expand toolkit: continuation sweep and fixture pipelines.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 20 --trace 0

The package is imported from ``src/``; nothing is installed. Work files go to
``.bench_build/perfbench/`` in the checkout and are removed at the end, except
the run record ``<workload>-seed<n>-trace<t>.json`` (and, with ``--trace 1``,
the span file). Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json`` (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``). See ``perfbench/NOTES.md`` for the workloads, the metric
predictions and the known defects.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = "grashof_expand"
SETUP_REPS = 7

import spans as spanlib  # noqa: E402  (benchmark-local module next to this file)
from workloads import WORKLOADS  # noqa: E402

# Span name -> workloads on which it must fire; on the others it must stay at 0.
# The calls at this commit match these sets (checked by the traced run).
EVERYWHERE = {"sweep-n8", "pipeline-ex45", "pipeline-ex314"}
PIPELINES = {"pipeline-ex45", "pipeline-ex314"}
PREDICTED = {
    "kernels.assemble_linearized": {"sweep-n8"},
    "kernels.advect_convolve": {"sweep-n8", "pipeline-ex45"},
    "kernels.advect_fft": set(),  # no solver or CLI path selects method="fft" yet
    "steady.solve_steady": {"sweep-n8"},
    "steady.residual": {"sweep-n8", "pipeline-ex45"},
    "spectral.bilinear_b": {"sweep-n8", "pipeline-ex45"},
    "spectral.bilinear_bs": {"pipeline-ex45"},
    "spectral.lin_comb": EVERYWHERE,
    "spectral.eigen_basis": {"pipeline-ex314"},
    "seqlimit.estimate_limit": PIPELINES,
    "expansion.extract_strict": PIPELINES,
    "expansion.refine_unitary": PIPELINES,
    "expansion.restructure": PIPELINES,
    "expansion.save_expansion": PIPELINES,
    "expansion.load_expansion": PIPELINES,
    "expansion.verify_expansion": PIPELINES,
    "orders.build_S": {"pipeline-ex45"},
    "orders.classify": {"pipeline-ex45"},
    "orders.compare": {"pipeline-ex45"},
    "fieldio.write_field": PIPELINES,
    "fieldio.read_field": PIPELINES,
    "fixtures.example45": {"pipeline-ex45"},
    "fixtures.example314": {"pipeline-ex314"},
    "cli.fixtures": PIPELINES,
    "cli.extract": PIPELINES,
    "cli.verify": PIPELINES,
    "cli.classify": {"pipeline-ex45"},
    "cli.report": PIPELINES,
}
# Counts that must repeat exactly when the same round is traced twice.
COUNT_SUFFIXES = (".calls", ".pairs", ".dofs", ".cells", ".bytes")
COUNT_NAMES = ("steady.newton_iters", "steady.failed_solves", "expansion.checks_failed")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_import_seconds():
    """``import grashof_expand.cli`` timed inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import grashof_expand.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(pkg):
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    threads = {v: os.environ.get(v, "unset") for v in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src_lines = 0
    for d, _, files in os.walk(os.path.join(SRC, PKG)):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "scipy": "present" if importlib.util.find_spec("scipy") else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": threads,
        "verify_workers": pkg.cli.worker_count(),
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def quantile_note(values):
    """Median, plus the highest of p75/p90/p99 with at least ten samples beyond it."""
    vals = sorted(values)
    note = f"n={len(vals)}"
    for q in (99, 90, 75):
        if len(vals) * (100 - q) / 100 >= 10:
            note += f", p{q}={np.percentile(vals, q):.4g}"
            break
    return note


def run_timed(wl, seconds, sample_import):
    """Rounds until the next one would end past ``seconds``; at least one.

    Between rounds (outside their timers), ``sample_import`` takes a fresh-
    interpreter import time about every ``seconds / 6``, so that ``import_s``
    is a median over the whole run, not over a few seconds of it.
    """
    t_start = last = time.perf_counter()
    walls = []
    j = 0
    while True:
        t = time.perf_counter()
        wl.round(j)
        wl.gate_round(j)
        walls.append(time.perf_counter() - t)
        j += 1
        if time.perf_counter() - last >= seconds / 6:
            sample_import()
            last = time.perf_counter()
        if time.perf_counter() - t_start + float(np.median(walls)) > seconds:
            break
    wl.finish()
    sample_import()


def run_traced(wl, pkgname):
    """Untraced round, traced round, traced repeat of the same round.

    Returns (spans for the per-layer metrics, overhead in s, count mismatches,
    wrapped functions not found).
    """
    t_plain = wl.round(0)
    wl.gate_round(0)
    first = spanlib.Tracer()
    with first.installed(pkgname):
        t_traced = wl.round(0)
    wl.gate_round(0)
    repeat = spanlib.Tracer()
    with repeat.installed(pkgname):
        wl.round(0)
    wl.gate_round(0)
    probe = spanlib.Tracer()

    def traced_probe(fn):
        with probe.installed(pkgname):
            fn()

    wl.finish(traced_probe=traced_probe)
    a, _ = spanlib.aggregate(first.spans)
    b, _ = spanlib.aggregate(repeat.spans)
    keys = sorted(k for k in set(a) | set(b) if k.endswith(COUNT_SUFFIXES) or
                  k in COUNT_NAMES or k.startswith("seqlimit.route."))
    mismatches = [f"{k}: {a.get(k, 0)} vs {b.get(k, 0)}" for k in keys if a.get(k, 0) != b.get(k, 0)]
    return first.spans + probe.spans, t_traced - t_plain, mismatches, first.missing


def per_layer(spans, workload, overhead):
    values, edges = spanlib.aggregate(spans)
    values["spectral.bilinear.self_s"] = (values.get("spectral.bilinear_b.self_s", 0.0)
                                          + values.get("spectral.bilinear_bs.self_s", 0.0))
    values["steady.line_search_retries"] = spanlib.line_search_retries(spans)
    values["trace.overhead_s"] = overhead
    values["trace.spans"] = len(spans)
    coverage = []
    for name, where in PREDICTED.items():
        calls = values.get(f"{name}.calls", 0)
        if (workload in where) != (calls > 0):
            coverage.append(f"{name}: predicted {'calls' if workload in where else 'none'}, "
                            f"got {int(calls)}")
    values["trace.coverage_mismatches"] = len(coverage)
    return values, edges, coverage


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PKG, "__init__.py")):
        print(f"perfbench: package source {os.path.join('src', PKG)} not found under {ROOT}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import grashof_expand.cli  # noqa: F401
    inproc_import = time.perf_counter() - t0
    import grashof_expand as pkg_root
    pkg = types.SimpleNamespace(**{m: getattr(pkg_root, m) for m in (
        "cli", "expansion", "fieldio", "fixtures", "orders", "spectral", "steady")})
    env = environment(pkg)

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    cls = WORKLOADS[args.workload]
    setups, imports = [], []
    traced = None
    try:
        for _ in range(SETUP_REPS):
            imp = child_import_seconds()
            t = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            wl = cls(pkg, args.seed, workdir)
            wl.warmup()
            setups.append(imp + time.perf_counter() - t)
            imports.append(imp)
        if args.trace:
            traced = run_traced(wl, PKG)
        else:
            run_timed(wl, args.seconds, lambda: imports.append(child_import_seconds()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(wl.ops)
    known = [op for op in wl.ops if not op.ok and op.known]
    failed = [op for op in wl.ops if not op.ok and not op.known]
    correct = all(ok for ok, _ in wl.checks.values())
    tasks = wl.task_seconds()
    e2e = {
        "setup_s": (float(np.median(setups)), "s", f"median of {len(setups)}: fresh-interpreter "
                    "import + input generation + warm-up"),
        "import_s": (float(np.median(imports)), "s",
                     f"median of {len(imports)} fresh interpreters across the run "
                     f"(in-process {inproc_import:.3f} s)"),
        "task_s": (float(np.median(tasks)), "s", "median per round, " + quantile_note(tasks)),
    }
    e2e.update(wl.e2e())
    e2e["fail_frac"] = ((len(known) + len(failed)) / max(attempted, 1), "1",
                        f"{len(known) + len(failed)} of {attempted} operations "
                        f"({len(known)} known defects, {len(failed)} unexpected)")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                          "this process")

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
             "environment: " + ", ".join(f"{k}={v}" for k, v in env.items())]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_s": setups, "import_s": imports,
              "rounds": wl.rounds}
    if args.trace:
        spans, overhead, count_mismatch, missing = traced
        values, edges, coverage = per_layer(spans, args.workload, overhead)
        correct = correct and not count_mismatch
        metrics = {}
        for m in spec["per_layer"]:
            v = values.get(m["name"], 0)
            metrics[m["name"]] = {"value": int(v) if m["unit"] in ("count", "bytes") else v,
                                  "unit": m["unit"]}
        lines.append(f"tracing overhead: {overhead:+.4f} s on a {wl.task_seconds()[0]:.4f} s "
                     f"untraced round ({len(spans)} spans)")
        lines.append("per-layer (one traced round):")
        for name in sorted(PREDICTED):
            c = values.get(f"{name}.calls", 0)
            if c:
                parents = ", ".join(f"{p}x{n}" for (p, k), n in sorted(edges.items()) if k == name)
                lines.append(f"  {name:30s} calls={int(c):7d} s={values[f'{name}.s']:.4f} "
                             f"self_s={values[f'{name}.self_s']:.4f}  parents: {parents}")
        for name, m in metrics.items():
            lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
        lines.append("coverage: " + ("as predicted" if not coverage else "; ".join(coverage)))
        if missing:
            lines.append("not found at this commit: " + ", ".join(missing))
        lines.append("counts repeat exactly: " + ("yes" if not count_mismatch
                                                 else "NO: " + "; ".join(count_mismatch)))
        record.update(per_layer=values, coverage=coverage, count_mismatch=count_mismatch,
                      edges={f"{p} > {k}": n for (p, k), n in edges.items()})
        with open(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump([list(s) for s in spans], fh)
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        lines.append("end-to-end:")
        for name, (value, unit, note) in e2e.items():
            lines.append(f"  {name:15s} {value:12.6g} {unit:3s} ({note})")
    for op in known + failed:
        tag = f"known {op.known}" if op.known else "UNEXPECTED"
        lines.append(f"failure [{tag}] {op.what} at {op.index}: {op.cause}")
    lines.append("correctness gate:")
    for name, (ok, detail) in wl.checks.items():
        shown = f"{detail:.3e}" if isinstance(detail, float) else detail
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}  {shown}".rstrip())
    if args.trace and count_mismatch:
        lines.append("  [FAIL] per-layer counts repeat exactly")
    record.update(end_to_end={k: v[0] for k, v in e2e.items()},
                  ops=[vars(op) for op in wl.ops], checks=wl.checks, correct=correct)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
