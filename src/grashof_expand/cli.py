"""Batch pipeline front door: sweep -> extract -> verify -> classify -> report.

Exit codes: 0 success; 1 domain error (a failed solve, extraction or
classification, or a field that breaks an invariant); 2 usage error, an input
or output that cannot be opened (missing, a directory read as a file, a file
in the way of a directory), or an input file that is not valid JSON or not of
its schema (``report`` checks a classification's keys before it writes), each
named in the message. A usage error found before the first write writes nothing
(one found part-way leaves the files written before it: ROADMAP item 19). Each
file is written atomically; repeated runs with the same configuration produce
byte-identical outputs. ``verify`` checks its forms one after another on one thread.
"""

from __future__ import annotations

import argparse
import functools
import math
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


def _at_least_1(text):
    """``--count`` and ``--depth``: an int of at least 1, else argparse names the flag."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an int of at least 1; got {text!r}")
    return int(text)


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


def _example45_config(spec, c2=None):
    """The example45 coefficients of ``spec`` (m=value,...), else c_2 = ``c2``
    alone (1 if None); one that ``Example45Config`` rejects is a usage error."""
    coeffs = _parse_coeffs(spec) if spec is not None else ((2, 1.0 if c2 is None else c2),)
    try:
        return fx.Example45Config(coeffs=coeffs)
    except ValueError as exc:
        raise UsageError(f"bad example45 coefficients: {exc}") from exc


def _parse_scale(spec, depth):
    """The NestedScale of ``--scale`` to depth at most ``depth`` (an explicit list
    keeps its first depth + 1 exponents), its regime read off its exponents; an
    unparsable or invalid spec is a usage error."""
    try:
        if spec == "default-2dp":
            return ex.default_scale_2dp(depth)
        if spec.startswith("constant:"):
            return ex.constant_scale(float(spec.split(":", 1)[1]), depth)
        exponents = ex.NestedScale(tuple(float(s) for s in spec.split(","))).exponents
        return ex.NestedScale(exponents[:depth + 1])
    except ValueError as exc:
        raise UsageError(f"bad scale spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fixtures(args):
    if args.family == "example45":
        recs = fx.example45_window(_example45_config(args.coeffs, args.c2),
                                   range(1, args.count + 1))
        entries = [{"n": rec.n, "alpha": rec.alpha, "residual_H": rec.residual_h,
                    "bound_check": sp.norm_ds(sp.apply_fractional(rec.v_n, 1.0), 0)
                    / sp.norm_ds(rec.g_n, 0)} for rec in recs]
        fieldio.write_window(args.out, "v", [r.v_n for r in recs], entries,
                             forces=[r.g_n for r in recs], g_limit=recs[-1].g)  # one g for every n
    else:
        ns, truncation = range(1, args.count + 1), args.truncation
        try:
            fields, alphas = fx.example314_window(ns, truncation)
        except ValueError as exc:
            raise UsageError(f"bad example314 arguments: {exc}") from exc
        entries = [{"n": n, "alpha": alpha, "residual_H": 0.0, "bound_check": 0.0}
                   for n, alpha in zip(ns, alphas)]
        fieldio.write_window(args.out, "v", fields, entries)
        if args.with_expansions:
            forms = {"unitary": fx.example314_unitary_expansion(ns, truncation),
                     "degenerate": fx.example314_degenerate_expansion(ns, truncation)}
            ex.save_expansion(os.path.join(args.out, "expansion_analytic.json"), forms, alphas)
    print(f"wrote fixture manifest under {args.out}")
    return 0


def cmd_sweep(args):
    if args.cstar_coeffs is not None and not args.fixture:
        raise UsageError("--cstar-coeffs needs --fixture example45")
    for flag, value in (("--alpha-start", args.alpha_start), ("--alpha-factor", args.alpha_factor)):
        if args.fixture and value is not None:
            raise UsageError(f"{flag} is for --force only; the fixture gives its own alphas")
    if args.fixture:
        cfg = _example45_config(args.cstar_coeffs)
        recs = fx.example45_window(cfg, range(1, args.count + 1))
        alphas = [r.alpha for r in recs]
        forces = [r.g_n for r in recs]
        g_limit = recs[0].g
    else:
        g = fieldio.read_field(args.force)
        start = 1.0 if args.alpha_start is None else args.alpha_start
        factor = 2.0 if args.alpha_factor is None else args.alpha_factor
        alphas = [start * factor**i for i in range(args.count)]
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
    entries = [{"n": i + 1, "alpha": a, "residual_H": rep.residual_h,
                "bound_check": rep.bound_check, "dofs": rep.dofs, "group_order": rep.group_order}
               for i, (rep, a) in enumerate(zip(reports, alphas))]
    fieldio.write_window(args.out, "solution", [rep.solution for rep in reports], entries,
                         forces=forces if args.fixture else None, g_limit=g_limit)
    print(f"swept {len(reports)} steps; manifest at {os.path.join(args.out, 'manifest.json')}")
    return 0


def _load_sequence(manifest_path):
    man = fieldio.read_manifest(manifest_path)
    keys, rows, truncs = fieldio.read_fields([e["field"] for e in man["entries"]])
    alphas = [e["alpha"] for e in man["entries"]]
    return ex.SequenceData(keys, rows, max(truncs, default=1), alphas), man


def cmd_extract(args):
    scale = _parse_scale(args.scale, args.depth)
    data, _ = _load_sequence(args.manifest)
    strict = ex.extract_strict(data, scale)
    restructured = ex.restructure(strict)
    unitary = ex.refine_unitary(strict, data)
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
    man = fieldio.read_manifest(args.manifest)
    if "g_limit" not in man:
        raise UsageError(f"{args.manifest}: manifest carries no g_limit to classify against")
    g_limit = fieldio.read_field(man["g_limit"])
    try:
        st.nonzero_forcing(g_limit)
    except ValueError as exc:
        raise fieldio.FieldFormatError(f"{man['g_limit']}: {exc}") from None
    name = args.form or ("unitary" if "unitary" in forms else sorted(forms)[0])
    if name not in forms:
        raise UsageError(f"form not in expansion file; available: {sorted(forms)}")
    rep = od.classify(forms[name], g_limit, alphas)
    fieldio.write_json(args.out, {**vars(rep), "form": name, "tolerances": {
        "slope": od.SLOPE_GATE, "disp": od.DISP_GATE, "residual": od.RESIDUAL_GATE}})
    print(rep.summary())
    print(f"classification at {args.out}")
    return 0


def _read_classification(path):
    """The classification document at ``path``: a string ``form`` and ``branch``,
    and where present ``constants`` and ``residuals`` objects of numbers and
    ``warnings`` a list of strings; anything else is a FieldFormatError naming
    the file and the key."""
    doc = fieldio.read_json(path)
    if not isinstance(doc, dict):
        raise fieldio.FieldFormatError(f"{path}: classification is not a JSON object")

    def numbers(v):
        try:  # each value one finite number by fieldio's rule (JSON reads 1e400 as infinity)
            values = fieldio.numbers(list(v.values()), "", ndim=1)
        except (AttributeError, ValueError):  # not an object, or a value not a number
            return False
        return values.shape == (len(v),) and all(map(math.isfinite, values))

    def strings(v):
        return isinstance(v, list) and all(isinstance(x, str) for x in v)

    for key, what, ok in (("form", "a string", lambda v: isinstance(v, str)),
                          ("branch", "a string", lambda v: isinstance(v, str)),
                          ("constants", "an object of finite numbers", numbers),
                          ("residuals", "an object of finite numbers", numbers),
                          ("warnings", "a list of strings", strings)):
        if (key in doc or key in ("form", "branch")) and not ok(doc.get(key)):
            raise fieldio.FieldFormatError(f"{path}: classification {key!r} is not {what}")
    return doc


def cmd_report(args):
    fmt = fieldio.fmt_float
    data, man = _load_sequence(args.manifest)
    forms, alphas = ex.load_expansion(args.expansion)
    classification = _read_classification(args.classification) if args.classification else None
    name = "unitary" if "unitary" in forms else sorted(forms)[0]
    if classification is not None:  # report on the form that was classified
        name = classification["form"]
        if name not in forms:
            raise UsageError(f"{args.classification}: classified form {name!r} is not in the "
                             f"expansion file; available: {sorted(forms)}")
    e = forms[name]
    ratios = ex.remainder_ratios(e, data)

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
    if classification is not None:
        summary.append(f"classification branch: {classification['branch']}")
        for k, v in classification.get("constants", {}).items():
            summary.append(f"  {k} = {fmt(v)}")
        reslines = ["id,value"]
        for k, v in classification.get("residuals", {}).items():
            summary.append(f"  residual {k}: {fmt(v)}")
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


@functools.cache
def build_parser():
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="grashof-expand",
        description="Steady-state sweeps and intrinsic asymptotic expansion extraction "
                    "for the rescaled 2D periodic Navier-Stokes equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixtures", help="emit analytic fixture fields and manifests")
    family = p.add_subparsers(dest="family", required=True)
    p45 = family.add_parser("example45", help="the example 4.5 family (per-n forces g_n)")
    coeffs = p45.add_mutually_exclusive_group()
    coeffs.add_argument("--c2", type=float, help="single coefficient c_2 (default 1)")
    coeffs.add_argument("--coeffs", help="coefficient list m=value,m=value")
    p314 = family.add_parser("example314", help="the example 3.14 family in H")
    p314.add_argument("--truncation", type=int, default=64, help="eigenmodes (default 64)")
    p314.add_argument("--with-expansions", action="store_true", help="write hand-built expansions")
    for p in (p45, p314):
        p.add_argument("--count", type=_at_least_1, default=20)
        p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="continuation sweep over increasing alpha")
    p.add_argument("--alpha-start", type=float, help="first alpha (default 1)")
    p.add_argument("--alpha-factor", type=float, help="ratio of successive alphas (default 2)")
    p.add_argument("--count", type=_at_least_1, default=12)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--force", help="field file with the forcing g")
    source.add_argument("--fixture", choices=["example45"], help="per-n forces g_n of the fixture")
    p.add_argument("--cstar-coeffs", help="fixture coefficients m=value,m=value")
    p.add_argument("--truncation", type=int, default=8)
    p.add_argument("--out", required=True)

    p = sub.add_parser("extract", help="extract strict + unitary expansions from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scale", default="default-2dp",
                   help="default-2dp | constant:<s> | s0,s1,...")
    p.add_argument("--depth", type=_at_least_1, default=6)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="verify expansion axioms against the raw window")
    p.add_argument("--expansion", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--form", help="verify one form only")

    p = sub.add_parser("classify", help="classify an expansion against the branch tree")
    p.add_argument("--expansion", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--form", help="expansion form to classify (default: unitary)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="merge manifest + expansion + classification")
    p.add_argument("--manifest", required=True)
    p.add_argument("--expansion", required=True)
    p.add_argument("--classification")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # looked up per call, so a cmd_* replaced after the parser was built runs
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # stdout closed early (| head), files written: exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (fieldio.FieldFormatError, OSError) as exc:  # OSError names the file it could not open
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (sp.MalformedFieldError, ex.NotConvergentError, st.ContinuationError,
            od.InconsistentRelationsError, od.ClassificationBlockedError,
            fx.FixtureIntegrityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
