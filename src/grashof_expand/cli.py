"""Batch pipeline front door: sweep -> extract -> verify -> classify -> report.

Exit codes: 0 success, 1 domain error (solver/extraction/format failures),
2 usage error. A usage error writes nothing. All artifacts are written
atomically; repeated runs with the same configuration produce byte-identical
outputs. ``verify`` checks its forms one after another on one thread.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import expansion as ex
from . import fieldio
from . import fixtures as fx
from . import orders as od
from . import spectral as sp
from . import steady as st


def worker_count():
    """Threads that ``verify`` runs on: always one (``perfbench`` records it)."""
    return 1


class UsageError(ValueError):
    pass


def _parse_coeffs(spec):
    """The (m, c_m) pairs of ``m=value,m=value``, in the order given."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            m, c = part.split("=")
            out.append((int(m), float(c)))
        except ValueError as exc:
            raise UsageError(f"bad coefficient entry {part!r}; expected m=value") from exc
    if not out:
        raise UsageError("empty coefficient list")
    return tuple(out)


def _example45_config(spec, c2):
    """The example45 coefficients of ``spec`` (m=value,...), else c_2 = ``c2``
    alone; one that ``Example45Config`` rejects is a usage error."""
    coeffs = _parse_coeffs(spec) if spec else ((2, c2),)
    try:
        return fx.Example45Config(coeffs=coeffs)
    except ValueError as exc:
        raise UsageError(f"bad example45 coefficients: {exc}") from exc


def _parse_scale(spec, depth):
    """The NestedScale of ``--scale``, its regime read off its exponents; an
    unparsable or invalid spec is a usage error."""
    try:
        if spec == "default-2dp":
            return ex.default_scale_2dp(depth)
        if spec.startswith("constant:"):
            return ex.constant_scale(float(spec.split(":", 1)[1]), depth)
        return ex.NestedScale(tuple(float(s) for s in spec.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad scale spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fixtures(args):
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    if args.family == "example314" and args.count > 6:
        raise UsageError(f"example314 is defined for n = 1..6; --count {args.count} is above 6")
    if args.family == "example314" and args.truncation < 16:
        raise UsageError(f"example314 needs at least 16 eigenmodes; --truncation {args.truncation}")
    cfg = _example45_config(args.coeffs, args.c2) if args.family == "example45" else None
    os.makedirs(args.out, exist_ok=True)
    if cfg is not None:
        recs = fx.example45_window(cfg, range(1, args.count + 1))
        entries = []
        for rec in recs:
            vfile = os.path.join(args.out, f"v_{rec.n:04d}.json")
            gfile = os.path.join(args.out, f"g_{rec.n:04d}.json")
            fieldio.write_field(vfile, rec.v_n)
            fieldio.write_field(gfile, rec.g_n)
            entries.append({
                "n": rec.n, "alpha": rec.alpha, "field": vfile,
                "residual_H": rec.residual_h,
                "bound_check": sp.norm_ds(sp.apply_fractional(rec.v_n, 1.0), 0)
                / sp.norm_ds(rec.g_n, 0),
                "force": gfile,
            })
        glim = os.path.join(args.out, "g_limit.json")
        fieldio.write_field(glim, recs[-1].g)  # g does not depend on n
        fieldio.write_manifest(os.path.join(args.out, "manifest.json"), entries, g_limit=glim)
    else:
        ns = range(1, args.count + 1)
        recs, alphas = fx.example314_window(ns, args.truncation)
        entries = []
        for rec, alpha in zip(recs, alphas):
            vfile = os.path.join(args.out, f"v_{rec.n:04d}.json")
            fieldio.write_field(vfile, rec.v_n)
            entries.append({
                "n": rec.n, "alpha": alpha, "field": vfile,
                "residual_H": 0.0, "bound_check": 0.0,
            })
        fieldio.write_manifest(os.path.join(args.out, "manifest.json"), entries)
        if args.with_expansions:
            uni = fx.example314_unitary_expansion(ns, args.truncation)
            den = fx.example314_degenerate_expansion(ns, args.truncation)
            ex.save_expansion(os.path.join(args.out, "expansion_analytic.json"),
                              {"unitary": uni, "degenerate": den},
                              alphas)
    print(f"wrote fixture manifest under {args.out}")
    return 0


def cmd_sweep(args):
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    if args.fixture:
        if args.fixture != "example45":
            raise UsageError(f"unknown fixture {args.fixture!r}")
        cfg = _example45_config(args.cstar_coeffs, 1.0)
        recs = fx.example45_window(cfg, range(1, args.count + 1))
        alphas = [r.alpha for r in recs]
        forces = [r.g_n for r in recs]
        g_limit = recs[0].g
    else:
        if not args.force:
            raise UsageError("need --force <fieldfile> or --fixture example45")
        g = fieldio.read_field(args.force)
        alphas = [args.alpha_start * args.alpha_factor**i for i in range(args.count)]
        forces = [g] * args.count
        g_limit = g
    try:
        st.sweep_problems(alphas, forces, args.truncation)
    except ValueError as exc:
        raise UsageError(f"bad sweep: {exc}") from exc
    try:
        reports = st.sweep(alphas, forces, args.truncation)
    except st.ContinuationError as exc:
        print(f"sweep failed at index {exc.index}: {exc.reports[-1].message}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for i, (rep, a) in enumerate(zip(reports, alphas)):
        vfile = os.path.join(args.out, f"solution_{i + 1:04d}.json")
        fieldio.write_field(vfile, rep.solution)
        entry = {"n": i + 1, "alpha": a, "field": vfile,
                 "residual_H": rep.residual_h, "bound_check": rep.bound_check,
                 "dofs": rep.dofs, "group_order": rep.group_order}
        if args.fixture:
            gfile = os.path.join(args.out, f"g_{i + 1:04d}.json")
            fieldio.write_field(gfile, forces[i])
            entry["force"] = gfile
        entries.append(entry)
    glim_file = os.path.join(args.out, "g_limit.json")
    fieldio.write_field(glim_file, g_limit)
    fieldio.write_manifest(os.path.join(args.out, "manifest.json"), entries, g_limit=glim_file)
    print(f"swept {len(reports)} steps; manifest at {os.path.join(args.out, 'manifest.json')}")
    return 0


def _limit_force(man):
    """The manifest's g_limit, else its last per-n force, else None."""
    if "g_limit" in man:
        return fieldio.read_field(man["g_limit"])
    if man["entries"] and "force" in man["entries"][-1]:
        return fieldio.read_field(man["entries"][-1]["force"])
    return None


def _load_sequence(manifest_path):
    man = fieldio.read_manifest(manifest_path)
    fields = [fieldio.read_field(e["field"]) for e in man["entries"]]
    alphas = [e["alpha"] for e in man["entries"]]
    return ex.SequenceData(tuple(fields), tuple(alphas)), man


def cmd_extract(args):
    if args.depth < 1:
        raise UsageError(f"--depth must be at least 1; got {args.depth}")
    scale = _parse_scale(args.scale, args.depth)
    data, _ = _load_sequence(args.manifest)
    if not 0 <= args.tail <= len(data):
        raise UsageError(f"--tail {args.tail} is outside 0..{len(data)}, "
                         f"the window's {len(data)} samples (0 = auto)")
    tols = ex.ToleranceSet(kmax=args.depth, tail=args.tail)
    strict = ex.extract_strict(data, scale, tols)
    restructured = ex.restructure(strict)
    space = scale.exponent(0) if scale.regime == "constant" else 0.5  # else V = D(A^{1/2})
    unitary = ex.refine_unitary(strict, data, space=space)
    os.makedirs(args.out, exist_ok=True)
    ex.save_expansion(os.path.join(args.out, "expansion.json"),
                      {"strict": strict, "restructured": restructured, "unitary": unitary},
                      data.alphas)
    print(f"extracted: strict depth {strict.depth} ({strict.kind}); "
          f"unitary depth {unitary.depth} ({unitary.kind}); "
          f"limit estimator {strict.limit_estimator}")
    print(f"expansion at {os.path.join(args.out, 'expansion.json')}")
    return 0


def cmd_verify(args):
    forms, _ = ex.load_expansion(args.expansion)
    data, _ = _load_sequence(args.manifest)
    names = [args.form] if args.form else sorted(forms)
    if any(n not in forms for n in names):
        raise UsageError(f"form not in expansion file; available: {sorted(forms)}")
    ok = True
    for name in names:
        rep = ex.verify_expansion(forms[name], data)
        print(f"== form {name}")
        print(str(rep))
        ok = ok and rep.passed
    return 0 if ok else 1


def cmd_classify(args):
    forms, alphas = ex.load_expansion(args.expansion)
    g_limit = _limit_force(fieldio.read_manifest(args.manifest))
    if g_limit is None:
        raise UsageError("manifest carries no g_limit or per-n forces to classify against")
    name = args.form or ("unitary" if "unitary" in forms else sorted(forms)[0])
    if name not in forms:
        raise UsageError(f"form not in expansion file; available: {sorted(forms)}")
    e = forms[name]
    rep = od.classify(e, g_limit, alphas)
    doc = {
        "branch": rep.branch,
        "constants": {k: float(v) for k, v in rep.constants.items()},
        "chi": [float(c) for c in rep.chi] if rep.chi is not None else None,
        "chi_tag": rep.chi_tag,
        "residuals": {k: float(v) for k, v in rep.residuals.items()},
        "identities": {k: float(v) for k, v in rep.identities.items()},
        "totally_comparable": rep.comparability,
        "evidence": rep.evidence,
        "warnings": rep.warnings,
        "form": name,
        "tolerances": {"slope": od.SLOPE_GATE, "disp": od.DISP_GATE,
                       "residual": od.RESIDUAL_GATE},
    }
    fieldio.write_json(args.out, doc)
    print(rep.summary())
    print(f"classification at {args.out}")
    return 0


def cmd_report(args):
    if not os.path.exists(args.manifest):
        raise UsageError(f"manifest not found: {args.manifest}")
    fmt = fieldio.fmt_float
    data, man = _load_sequence(args.manifest)
    forms, alphas = ex.load_expansion(args.expansion)
    name = "unitary" if "unitary" in forms else sorted(forms)[0]
    e = forms[name]
    ratios = ex.remainder_ratios(e, data)
    classification = fieldio.read_json(args.classification) if args.classification else None
    os.makedirs(args.out, exist_ok=True)

    header = ["n", "alpha", "residual_H", "bound_check"]
    header += [f"Gamma_{k + 1}" for k in range(len(e.terms))]
    header += [f"remainder_ratio_{k + 1}" for k in range(len(e.terms))]
    lines = [",".join(header)]
    for i, entry in enumerate(man["entries"]):
        row = [str(entry["n"]), fmt(entry["alpha"]), fmt(entry["residual_H"]),
               fmt(entry["bound_check"])]
        row += [fmt(t.gammas[i]) for t in e.terms] + [fmt(r[i]) for r in ratios]
        lines.append(",".join(row))
    fieldio.atomic_write(os.path.join(args.out, "series.csv"), "\n".join(lines) + "\n")

    summary = [f"sequence window: {len(data)} samples, "
               f"alpha in [{fmt(alphas[0])}, {fmt(alphas[-1])}]",
               f"expansion form {name}: kind {e.kind}, depth {e.depth} "
               f"({e.depth_reason}); limit estimator {e.limit_estimator}"]
    for line in e.decision_log:
        summary.append(f"  decision: {line}")
    if classification:
        summary.append(f"classification branch: {classification['branch']}")
        for k, v in classification.get("constants", {}).items():
            summary.append(f"  {k} = {fmt(v)}")
        for k, v in classification.get("residuals", {}).items():
            summary.append(f"  residual {k}: {fmt(v)}")
        reslines = ["id,value"]
        for k, v in classification.get("residuals", {}).items():
            reslines.append(f"{k},{fmt(v)}")
        fieldio.atomic_write(os.path.join(args.out, "residuals.csv"),
                             "\n".join(reslines) + "\n")
        for w in classification.get("warnings", []):
            summary.append(f"  warning: {w}")
    fieldio.atomic_write(os.path.join(args.out, "summary.txt"), "\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grashof-expand",
        description="Steady-state sweeps and intrinsic asymptotic expansion extraction "
                    "for the rescaled 2D periodic Navier-Stokes equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixtures", help="emit analytic fixture fields and manifests")
    p.add_argument("family", choices=["example45", "example314"])
    p.add_argument("--c2", type=float, default=1.0, help="single coefficient c_2")
    p.add_argument("--coeffs", help="coefficient list m=value,m=value")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--truncation", type=int, default=64)
    p.add_argument("--with-expansions", action="store_true",
                   help="also write the hand-built expansions (example314)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("sweep", help="continuation sweep over increasing alpha")
    p.add_argument("--alpha-start", type=float, default=1.0)
    p.add_argument("--alpha-factor", type=float, default=2.0)
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--force", help="field file with the forcing g")
    p.add_argument("--fixture", help="example45: per-n forces g_n from the fixture")
    p.add_argument("--cstar-coeffs", help="fixture coefficients m=value,m=value")
    p.add_argument("--truncation", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("extract", help="extract strict + unitary expansions from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scale", default="default-2dp",
                   help="default-2dp | constant:<s> | s0,s1,...")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--tail", type=int, default=0, help="estimator tail window (0 = auto)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="verify expansion axioms against the raw window")
    p.add_argument("--expansion", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--form", help="verify one form only")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="classify an expansion against the branch tree")
    p.add_argument("--expansion", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--form", help="expansion form to classify (default: unitary)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="merge manifest + expansion + classification")
    p.add_argument("--manifest", required=True)
    p.add_argument("--expansion", required=True)
    p.add_argument("--classification")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # stdout closed early (| head), files written: exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (fieldio.FieldFormatError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (sp.MalformedFieldError, ex.NotConvergentError, ex.StagnationError,
            st.ContinuationError, od.InconsistentRelationsError,
            od.ClassificationBlockedError, fx.FixtureIntegrityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
