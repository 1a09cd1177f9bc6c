"""The benchmark's workloads: seeded inputs, one timed round, the correctness gate.

Each workload object is built from the package modules, the seed and a work
directory. ``round(j)`` runs configuration ``j`` once and returns the timed
seconds; ``gate_round`` checks that round's outputs; ``finish`` runs what
happens once per run (the two-mode probe sweep, the rerun check). Every
operation (one continuation step or one CLI stage call) is appended to
``ops`` with its outcome; a failure is recorded with its cause and sample
index and never aborts the run.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "readme_sweep_n8.json")

# README: sweep --force g_limit.json --alpha-start 1 --alpha-factor 2 --count 12 --truncation 8
README_ALPHAS = [1.0 * 2.0**i for i in range(12)]
README_N = 8
REF_TOL = 1e-9  # relative V-norm distance to the stored README solutions


@dataclass
class Op:
    what: str
    index: str
    ok: bool
    known: str = ""   # id of the documented defect this failure matches (NOTES.md)
    cause: str = ""


def readme_force(pkg):
    """g_limit of ``fixtures example45 --c2 1``, the README sweep's forcing."""
    fx = pkg.fixtures
    return fx.example45(fx.Example45Config.single(2, 1.0), 1).g


def field_rows(field):
    """[[kx, ky, re0, im0, re1, im1], ...] over conjugate representatives, sorted."""
    rows = []
    for k in sorted(field.modes):
        if k[0] > 0 or (k[0] == 0 and k[1] > 0):
            c = field.modes[k]
            rows.append([k[0], k[1], c[0].real, c[0].imag, c[1].real, c[1].imag])
    return rows


def field_of_rows(sp, trunc, rows):
    modes = {}
    for kx, ky, a, b, c, d in rows:
        coeff = np.array([complex(a, b), complex(c, d)])
        modes[(int(kx), int(ky))] = coeff
        modes[(-int(kx), -int(ky))] = np.conj(coeff)
    return sp.SpectralField(trunc, modes)


def same_bits(u, v):
    if u.modes.keys() != v.modes.keys():
        return False
    return all(np.asarray(u.modes[k]).tobytes() == np.asarray(v.modes[k]).tobytes() for k in u.modes)


def tree_diff(a, b):
    """First difference between two directory trees (names or bytes), or ''."""
    fa = sorted(os.path.relpath(os.path.join(d, f), a) for d, _, fs in os.walk(a) for f in fs)
    fb = sorted(os.path.relpath(os.path.join(d, f), b) for d, _, fs in os.walk(b) for f in fs)
    if fa != fb:
        return f"file lists differ ({len(fa)} vs {len(fb)} files)"
    for rel in fa:
        if not filecmp.cmp(os.path.join(a, rel), os.path.join(b, rel), shallow=False):
            return f"{rel} differs"
    return ""


class Workload:
    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        self.workdir = workdir
        self.ops = []
        self.checks = {}     # name -> [ok, worst value or detail]
        self.rounds = []     # per round: {stage: seconds}

    def check(self, name, ok, detail):
        prev = self.checks.get(name)
        if prev is None:
            self.checks[name] = [bool(ok), detail]
        else:
            prev[0] = prev[0] and bool(ok)
            if isinstance(detail, float) and isinstance(prev[1], float):
                prev[1] = max(prev[1], detail)
            elif not ok:
                prev[1] = detail


# ---------------------------------------------------------------------------
# sweep-n8: the README continuation sweep plus the seeded two-mode probe
# ---------------------------------------------------------------------------


class SweepN8(Workload):
    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        fx = pkg.fixtures
        self.g = readme_force(pkg)
        self.tol = 1e-12 * max(1.0, pkg.spectral.norm_ds(self.g, 0))  # solve_steady's default
        rng = np.random.default_rng(seed)
        c2 = round(float(rng.uniform(0.5, 1.5)), 4)
        c3 = round(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)), 4)
        self.two_mode = (c2, c3)
        self.g2 = fx.example45(fx.Example45Config(coeffs=((2, c2), (3, c3))), 1).g
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        self.reference = [field_of_rows(pkg.spectral, ref["truncation"], rows)
                          for rows in ref["solutions"]]
        self.first = None     # reports of the first README sweep
        self.last = []        # reports of the latest README sweep
        self.phase_s = 0.0    # README sweeps + probe
        self.iters = 0

    def warmup(self):
        st = self.pkg.steady
        st.solve_steady(st.SteadyProblem(g=self.g, alpha=1.0, trunc=4))

    def _sweep(self, g, label):
        st = self.pkg.steady
        t0 = time.perf_counter()
        try:
            reports = st.sweep(README_ALPHAS, [g] * len(README_ALPHAS), README_N)
            err = None
        except st.ContinuationError as exc:
            reports, err = exc.reports, exc
        except Exception as exc:  # keep running; the failure is recorded below
            reports, err = [], exc
        dt = time.perf_counter() - t0
        self.phase_s += dt
        self.iters += sum(r.newton_iters for r in reports)
        for i, rep in enumerate(reports):
            self.ops.append(Op(f"{label} step", f"step {i} alpha={README_ALPHAS[i]:g}",
                               rep.converged, cause=rep.message))
        if err is not None and not isinstance(err, st.ContinuationError):
            self.ops.append(Op(f"{label} step", f"step {len(reports)}", False,
                               cause=f"{type(err).__name__}: {err}"))
        return reports, dt

    def round(self, j):
        reports, dt = self._sweep(self.g, "readme sweep")
        self.last = reports
        if self.first is None:
            self.first = reports
        self.rounds.append({"sweep": dt})
        return dt

    def gate_round(self, j):
        sp = self.pkg.spectral
        reps = self.last
        ok = len(reps) == len(README_ALPHAS) and all(r.converged for r in reps)
        self.check("readme sweep: every step converges", ok, f"{len(reps)} steps")
        if not reps:
            return
        self.check("readme sweep: residual_h <= solver tol",
                   all(r.residual_h <= self.tol for r in reps), max(r.residual_h for r in reps))
        self.check("readme sweep: bound_check <= 1",
                   all(r.bound_check <= 1.0 for r in reps), max(r.bound_check for r in reps))
        worst = 0.0
        for rep, ref in zip(reps, self.reference):
            worst = max(worst, sp.norm_ds(rep.solution - ref, 0.5) / sp.norm_ds(ref, 0.5))
        self.check(f"readme sweep: matches stored reference (rel V-norm <= {REF_TOL:g})",
                   worst <= REF_TOL and len(reps) == len(self.reference), worst)
        if reps is not self.first:
            self.check("readme sweep: repeat is bit-identical",
                       all(same_bits(a.solution, b.solution) for a, b in zip(reps, self.first)), "")

    def probe(self):
        """Seeded two-mode sweep; its continuation failure is the known defect 'stall'."""
        c2, c3 = self.two_mode
        n0 = len(self.ops)
        reports, _ = self._sweep(self.g2, f"two-mode sweep c2={c2:g} c3={c3:g}")
        for op in self.ops[n0:]:
            if not op.ok and op.cause:
                op.known = "stall"
        conv = [r for r in reports if r.converged]
        if conv:
            self.check("two-mode sweep: converged steps have residual_h <= solver tol",
                       all(r.residual_h <= 1e-12 * max(1.0, self.pkg.spectral.norm_ds(self.g2, 0))
                           for r in conv), max(r.residual_h for r in conv))

    def finish(self, traced_probe=None):
        if traced_probe is None:
            self.probe()
        else:
            traced_probe(self.probe)
        st = self.pkg.steady
        if self.first and len(self.first) == len(README_ALPHAS):
            try:
                again = st.sweep(README_ALPHAS[-1:], [self.g], README_N,
                                 initial=self.first[-2].solution)[0]
                ok = same_bits(again.solution, self.first[-1].solution) and \
                    again.residual_h == self.first[-1].residual_h
                detail = ""
            except st.ContinuationError as exc:
                ok, detail = False, str(exc)
            self.check("rerun of the last README step is bit-identical", ok, detail)

    def e2e(self):
        sweeps = [r["sweep"] for r in self.rounds]
        return {
            "sweep_s": (float(np.median(sweeps)), "s", f"median of {len(sweeps)} README sweeps"),
            "newton_iter_ms": (1e3 * self.phase_s / max(self.iters, 1), "ms",
                               f"{self.iters} Newton iterations incl. the two-mode sweep"),
        }

    def task_seconds(self):
        return [r["sweep"] for r in self.rounds]


# ---------------------------------------------------------------------------
# Fixture pipelines run in-process through cli.main
# ---------------------------------------------------------------------------


class Pipeline(Workload):
    known_checks = ()  # verify check names whose FAIL verdicts are documented defects
    known_id = ""

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.dirs = []   # per round: (config j, directory)

    def warmup(self):
        d = os.path.join(self.workdir, "warmup")
        with contextlib.redirect_stdout(io.StringIO()):
            self.pkg.cli.main(["fixtures", "example45", "--count", "4", "--out", d])
        self.pkg.fieldio.read_field(os.path.join(d, "v_0001.json"))
        shutil.rmtree(d)

    def call(self, stage, argv, index, times):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc, exc = self.pkg.cli.main(argv), None
            except Exception as e:  # keep running; the failure is recorded below
                rc, exc = None, e
            dt = time.perf_counter() - t0
        times[stage] = times.get(stage, 0.0) + dt
        op = Op(f"cli {stage}", index, rc == 0)
        if exc is not None:
            op.cause = f"{type(exc).__name__}: {exc}"
        elif rc != 0:
            fails, form = [], None
            for line in out.getvalue().splitlines():
                if line.startswith("== form"):
                    form = line.split()[-1]
                elif line.startswith("[FAIL]"):
                    fails.append((form, line.split()[1].rstrip(":")))
            if stage == "verify" and rc == 1 and fails:
                op.cause = "verify FAIL " + ", ".join(f"{f}:{c}" for f, c in fails)
                if all(c.startswith(self.known_checks) for _, c in fails):
                    op.known = self.known_id
            else:
                lines = err.getvalue().strip().splitlines()
                op.cause = f"exit {rc}: " + (lines[0] if lines else "no message")
        self.ops.append(op)

    def new_dir(self, j):
        d = os.path.join(self.workdir, f"r{len(self.dirs)}")
        self.dirs.append((j, d))
        return d

    def drop_dir(self, k):
        """Round directories after the first are removed once gated."""
        if k > 0:
            shutil.rmtree(self.dirs[k][1], ignore_errors=True)

    def finish(self, traced_probe=None):
        j, first = self.dirs[0]
        d = os.path.join(self.workdir, "rerun")
        self.run_one(j, d, {})
        diff = tree_diff(first, d)
        self.check("rerun of configuration 0 gives byte-identical artifacts", not diff, diff)

    def e2e(self):
        out = {}
        for stage in self.stages:
            vals = [r.get(stage, 0.0) for r in self.rounds]
            out[f"{stage}_s"] = (float(np.median(vals)), "s", f"median per round over {len(vals)} rounds")
        return out

    def task_seconds(self):
        return [sum(r.values()) for r in self.rounds]


class PipelineEx45(Pipeline):
    """fixtures example45 --count 20 -> extract default-2dp/6 -> verify -> classify -> report."""

    stages = ("fixtures", "extract", "verify", "classify", "report")
    # verify's convergence checks reject windows whose unitary form the gate
    # shows to match the closed forms (documented as ex45-verify in NOTES.md).
    known_checks = ("witness-convergence-k", "ratio-decay-k", "remainder-ratio")
    known_id = "ex45-verify"

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.rng = np.random.default_rng(seed)
        self.configs = []

    def config(self, j):
        """Configuration j: even j one coefficient (--c2), odd j two (--coeffs 2=..,3=..)."""
        while len(self.configs) <= j:
            c2 = round(float(self.rng.uniform(0.5, 1.5)), 4)
            if len(self.configs) % 2 == 0:
                self.configs.append({2: c2})
            else:
                c3 = round(float(self.rng.choice([-1.0, 1.0]) * self.rng.uniform(0.3, 1.0)), 4)
                self.configs.append({2: c2, 3: c3})
        return self.configs[j]

    def run_one(self, j, d, times):
        coeffs = self.config(j)
        if len(coeffs) == 1:
            spec = ["--c2", repr(coeffs[2])]
        else:
            spec = ["--coeffs", ",".join(f"{m}={c!r}" for m, c in coeffs.items())]
        idx = f"config {j} ({' '.join(spec)})"
        fxd, exd = os.path.join(d, "fx"), os.path.join(d, "exp")
        man, exf = os.path.join(fxd, "manifest.json"), os.path.join(exd, "expansion.json")
        cls = os.path.join(d, "class.json")
        self.call("fixtures", ["fixtures", "example45", *spec, "--count", "20", "--out", fxd], idx, times)
        self.call("extract", ["extract", "--manifest", man, "--scale", "default-2dp",
                              "--depth", "6", "--out", exd], idx, times)
        self.call("verify", ["verify", "--expansion", exf, "--manifest", man], idx, times)
        self.call("classify", ["classify", "--expansion", exf, "--manifest", man, "--out", cls],
                  idx, times)
        self.call("report", ["report", "--manifest", man, "--expansion", exf,
                             "--classification", cls, "--out", os.path.join(d, "report")], idx, times)

    def round(self, j):
        times = {}
        for c in (2 * j, 2 * j + 1):
            self.run_one(c, self.new_dir(c), times)
        self.rounds.append(times)
        return sum(times.values())

    def gate_round(self, j):
        """Unitary form vs the closed forms, at the tolerances of the acceptance tests."""
        fx, sp, ex = self.pkg.fixtures, self.pkg.spectral, self.pkg.expansion
        for k in (len(self.dirs) - 2, len(self.dirs) - 1):
            c, d = self.dirs[k]
            path = os.path.join(d, "exp", "expansion.json")
            if not os.path.exists(path):
                self.check("example45: extraction wrote an expansion", False, f"config {c}")
                continue
            cfg = fx.Example45Config(coeffs=tuple(self.config(c).items()))
            rec = fx.example45(cfg, 1, check=False)
            try:
                uni = ex.load_expansion(path)[0]["unitary"]
            except Exception as exc:  # a gate failure, not a crash of the run
                self.check("example45: expansion file loads", False, f"config {c}: {exc}")
                continue
            g1 = np.array([fx.SQRT2PI / fx.example45_alpha(cfg, n) for n in range(1, 21)])
            t1 = uni.terms[0] if uni.terms else None
            if t1 is None:
                self.check("example45: unitary form has a first term", False, f"config {c}")
                continue
            self.check("example45: unitary Gamma_1 rel err <= 1e-8",
                       float(np.max(np.abs(t1.gammas - g1) / g1)) <= 1e-8,
                       float(np.max(np.abs(t1.gammas - g1) / g1)))
            wn = abs(sp.norm_ds(t1.direction, 0.5) - 1.0)
            self.check("example45: | ||w_1||_V - 1 | <= 1e-10", wn <= 1e-10, wn)
            wd = min(sp.norm_ds(t1.direction - rec.w1, 0.5), sp.norm_ds(t1.direction + rec.w1, 0.5))
            self.check("example45: w_1 direction err (V) <= 1e-6", wd <= 1e-6, wd)
            le = sp.norm_ds(uni.limit - rec.v, 0.5)
            self.check("example45: limit err (V) <= 1e-10", le <= 1e-10, le)
            self.drop_dir(k)


class PipelineEx314(Pipeline):
    """fixtures example314 (T=256, with expansions) -> extract constant:0/3 -> verify x2 -> report."""

    stages = ("fixtures", "extract", "verify", "report")

    def run_one(self, j, d, times):
        idx = f"round {len(self.rounds)}"
        fxd, exd = os.path.join(d, "fx"), os.path.join(d, "exp")
        man, exf = os.path.join(fxd, "manifest.json"), os.path.join(exd, "expansion.json")
        self.call("fixtures", ["fixtures", "example314", "--count", "6", "--truncation", "256",
                               "--with-expansions", "--out", fxd], idx, times)
        self.call("extract", ["extract", "--manifest", man, "--scale", "constant:0",
                              "--depth", "3", "--out", exd], idx, times)
        self.call("verify", ["verify", "--expansion", exf, "--manifest", man], idx, times)
        self.call("verify", ["verify", "--expansion", os.path.join(fxd, "expansion_analytic.json"),
                             "--manifest", man], idx, times)
        self.call("report", ["report", "--manifest", man, "--expansion", exf,
                             "--out", os.path.join(d, "report")], idx, times)

    def round(self, j):
        times = {}
        self.run_one(0, self.new_dir(0), times)
        self.rounds.append(times)
        return sum(times.values())

    def gate_round(self, j):
        """Extracted unitary Gamma_{k,n} = e^{-kn-n^2} (tolerance of test_expansion)."""
        k_last = len(self.dirs) - 1
        path = os.path.join(self.dirs[k_last][1], "exp", "expansion.json")
        if not os.path.exists(path):
            self.check("example314: extraction wrote an expansion", False, "")
            return
        try:
            uni = self.pkg.expansion.load_expansion(path)[0]["unitary"]
        except Exception as exc:  # a gate failure, not a crash of the run
            self.check("example314: expansion file loads", False, str(exc))
            return
        ns = np.arange(1, 7)
        worst = 0.0 if len(uni.terms) == 3 else float("inf")
        for k, term in enumerate(uni.terms, start=1):
            expect = np.exp(-k * ns - ns * ns)
            worst = max(worst, float(np.max(np.abs(term.gammas - expect) / expect)))
        self.check("example314: extracted Gamma_k,n match e^{-kn-n^2} (rel <= 1e-12, k=1..3)",
                   worst <= 1e-12, worst)
        self.drop_dir(k_last)


WORKLOADS = {
    "sweep-n8": SweepN8,
    "pipeline-ex45": PipelineEx45,
    "pipeline-ex314": PipelineEx314,
}
