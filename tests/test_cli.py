"""CLI pipeline tests: subcommands, exit codes, deterministic artifacts."""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from grashof_expand import cli
from grashof_expand import expansion as ex
from grashof_expand import fieldio
from grashof_expand import orders as od
from grashof_expand import seqlimit


def run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """fixtures -> extract -> classify -> report, shared by several tests."""
    root = tmp_path_factory.mktemp("pipeline")
    fxdir = str(root / "fx")
    expdir = str(root / "exp")
    cls = str(root / "class.json")
    repdir = str(root / "rep")
    assert run(["fixtures", "example45", "--c2", "1", "--count", "20", "--out", fxdir]) == 0
    assert run(["extract", "--manifest", f"{fxdir}/manifest.json",
                "--scale", "default-2dp", "--depth", "6", "--out", expdir]) == 0
    assert run(["classify", "--expansion", f"{expdir}/expansion.json",
                "--manifest", f"{fxdir}/manifest.json", "--out", cls]) == 0
    assert run(["report", "--manifest", f"{fxdir}/manifest.json",
                "--expansion", f"{expdir}/expansion.json",
                "--classification", cls, "--out", repdir]) == 0
    return root


def test_pipeline_classification_branch(pipeline):
    doc = fieldio.read_json(pipeline / "class.json")
    assert doc["branch"] == "4.4(iii)(a)"
    assert doc["constants"]["mu"] == pytest.approx(np.sqrt(2) * np.pi, abs=1e-6)
    assert doc["totally_comparable"] is True
    # the report's own fields, in order, then the form and the gates
    assert list(doc) == [f.name for f in dataclasses.fields(od.ClassificationReport)] + [
        "form", "tolerances"]


def test_classify_refuses_a_non_finite_constant(pipeline, tmp_path, capsys, monkeypatch):
    """A stage whose document holds a NaN exits 1 naming the file and the key,
    and writes nothing, where it once wrote a file that no stage could read."""
    classify = od.classify

    def with_nan(*args):
        rep = classify(*args)
        rep.constants["mu"] = float("nan")
        return rep

    monkeypatch.setattr(od, "classify", with_nan)
    out = tmp_path / "class.json"
    capsys.readouterr()
    assert run(["classify", "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: non-finite value nan at constants.mu\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_pipeline_records_its_gates(pipeline):
    # The gates are module constants; the file still records them once as provenance.
    # A form's only setting is its scale: it records no space or tolerances of its own.
    doc = fieldio.read_json(pipeline / "exp" / "expansion.json")
    gates = {"floor": ex.FLOOR, "finite": ex.FINITE, "zero": ex.ZERO, "snap": seqlimit.SNAP_REL}
    assert list(doc["tolerances"].items()) == list(gates.items())
    assert sorted(doc["forms"]) == ["restructured", "strict", "unitary"]
    for rec in doc["forms"].values():
        assert "space" not in rec and "tolerances" not in rec
    cls = fieldio.read_json(pipeline / "class.json")
    assert cls["tolerances"] == {"slope": od.SLOPE_GATE, "disp": od.DISP_GATE,
                                 "residual": od.RESIDUAL_GATE}


def test_pipeline_verify_passes(pipeline):
    code = run(["verify", "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json")])
    assert code == 0


def test_pipeline_report_artifacts(pipeline):
    series = (pipeline / "rep" / "series.csv").read_text()
    header = series.splitlines()[0].split(",")
    assert header[:4] == ["n", "alpha", "residual_H", "bound_check"]
    assert "Gamma_1" in header and "remainder_ratio_1" in header
    assert len(series.splitlines()) == 21
    assert (pipeline / "rep" / "summary.txt").exists()
    assert (pipeline / "rep" / "residuals.csv").exists()
    assert "\r" not in series  # LF endings


def test_report_takes_the_classified_form(pipeline, tmp_path):
    """With a classification of the strict form, series.csv's Gammas, the
    summary's form line and the branch all belong to the strict form."""
    man, exf = str(pipeline / "fx" / "manifest.json"), str(pipeline / "exp" / "expansion.json")
    cls, rep = tmp_path / "class.json", tmp_path / "rep"
    assert run(["classify", "--expansion", exf, "--manifest", man, "--form", "strict",
                "--out", str(cls)]) == 0
    assert run(["report", "--manifest", man, "--expansion", exf,
                "--classification", str(cls), "--out", str(rep)]) == 0
    strict = ex.load_expansion(exf)[0]["strict"]
    header = (rep / "series.csv").read_text().splitlines()[0].split(",")
    assert sum(h.startswith("Gamma_") for h in header) == strict.depth == 6
    summary = (rep / "summary.txt").read_text()
    assert f"expansion form strict: kind {strict.kind}, depth {strict.depth}" in summary
    assert f"classification branch: {fieldio.read_json(cls)['branch']}" in summary


def test_report_on_a_form_the_expansion_lacks_exit_2(pipeline, tmp_path, capsys):
    cls = tmp_path / "class.json"
    fieldio.write_json(cls, {**fieldio.read_json(pipeline / "class.json"), "form": "nosuch"})
    assert run(["report", "--manifest", str(pipeline / "fx" / "manifest.json"),
                "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--classification", str(cls), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert f"{cls}: classified form 'nosuch' is not in the expansion file" in err
    assert "available: ['restructured', 'strict', 'unitary']" in err
    assert not (tmp_path / "rep").exists()


def test_report_byte_identical_reruns(pipeline, tmp_path):
    rep2 = str(tmp_path / "rep2")
    assert run(["report", "--manifest", str(pipeline / "fx" / "manifest.json"),
                "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--classification", str(pipeline / "class.json"), "--out", rep2]) == 0
    a = (pipeline / "rep" / "series.csv").read_bytes()
    b = (tmp_path / "rep2" / "series.csv").read_bytes()
    assert a == b


def test_sweep_cli_fixed_force(tmp_path):
    fxdir = str(tmp_path / "fx")
    out = str(tmp_path / "sweep")
    assert run(["fixtures", "example45", "--count", "6", "--out", fxdir]) == 0
    assert run(["sweep", "--force", f"{fxdir}/g_limit.json", "--alpha-start", "1",
                "--alpha-factor", "2", "--count", "6", "--truncation", "6",
                "--out", out]) == 0
    man = fieldio.read_manifest(os.path.join(out, "manifest.json"))
    assert len(man["entries"]) == 6
    assert all(e["bound_check"] <= 1 + 1e-10 for e in man["entries"])
    assert all("dofs" not in e for e in man["entries"])  # read_manifest ignores them
    # the README forcing's group of order 4 leaves 23 of the 90 unknowns on 2Z x Z at N = 6
    raw = fieldio.read_json(os.path.join(out, "manifest.json"))["entries"]
    assert [(e["dofs"], e["group_order"]) for e in raw] == [(23, 4)] * 6


def test_sweep_cli_fixture_family(tmp_path):
    out = str(tmp_path / "sweep45")
    assert run(["sweep", "--fixture", "example45", "--cstar-coeffs", "2=1",
                "--count", "8", "--truncation", "4", "--out", out]) == 0
    man = fieldio.read_manifest(os.path.join(out, "manifest.json"))
    assert "g_limit" in man
    assert all("force" in e for e in man["entries"])


def test_extract_constant_scale_cli(tmp_path):
    fxdir = str(tmp_path / "fx314")
    out = str(tmp_path / "exp314")
    assert run(["fixtures", "example314", "--count", "6", "--truncation", "64",
                "--out", fxdir]) == 0
    assert run(["extract", "--manifest", f"{fxdir}/manifest.json",
                "--scale", "constant:0", "--depth", "3", "--out", out]) == 0
    forms, alphas = __import__("grashof_expand.expansion", fromlist=["load_expansion"]) \
        .load_expansion(os.path.join(out, "expansion.json"))
    assert set(forms) == {"strict", "restructured", "unitary"}
    assert len(alphas) == 6


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["report", "--manifest", str(tmp_path / "missing.json"),
                "--expansion", str(tmp_path / "missing2.json"),
                "--out", str(tmp_path / "r")]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["sweep", "--out", str(tmp_path / "s")]) == 2  # no force, no fixture
    assert "one of the arguments --force --fixture is required" in capsys.readouterr().err
    assert run(["sweep", "--unknown-flag", "1", "--out", "x"]) == 2
    # g_limit.json is written from a sample's record, and so are the example314
    # expansions; an empty sweep would write an empty manifest
    for argv in (["fixtures", "example45"],
                 ["fixtures", "example314", "--with-expansions"],
                 ["sweep", "--force", str(tmp_path / "g.json")]):
        capsys.readouterr()
        assert run(argv + ["--count", "0", "--out", str(tmp_path / "c0")]) == 2
        assert "argument --count: must be an int of at least 1; got '0'" in capsys.readouterr().err
        assert not (tmp_path / "c0").exists()
    fxdir = str(tmp_path / "fx")
    assert run(["fixtures", "example45", "--count", "6", "--out", fxdir]) == 0
    for spec in ("constant:abc", "0.7,abc"):
        capsys.readouterr()
        assert run(["extract", "--manifest", f"{fxdir}/manifest.json", "--scale", spec,
                    "--out", str(tmp_path / "e")]) == 2
        assert "bad scale spec" in capsys.readouterr().err
    assert run(["classify", "--expansion", "x.json", "--manifest", f"{fxdir}/manifest.json",
                "--slope-tol", "0.2", "--out", str(tmp_path / "c.json")]) == 2
    assert "unrecognized arguments: --slope-tol" in capsys.readouterr().err
    # a flag the fixture's alphas leave unread
    for argv, words in ((["sweep", "--fixture", "example45", "--alpha-start", "7"],
                         "--alpha-start is for --force only"),
                        (["sweep", "--fixture", "example45", "--alpha-factor", "3"],
                         "--alpha-factor is for --force only")):
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "w")]) == 2
        assert words in capsys.readouterr().err
        assert not (tmp_path / "w").exists()


EX314_ARGS = ["fixtures", "example314", "--count", "6", "--truncation", "16"]


@pytest.mark.parametrize("argv, words", [
    (["fixtures", "example45", "--c2", "0.7", "--coeffs", "2=1"],
     "argument --coeffs: not allowed with argument --c2"),
    (["fixtures", "example45", "--coeffs", "2=1", "--c2", "0.7"],
     "argument --c2: not allowed with argument --coeffs"),
    (["fixtures", "example45", "--with-expansions"], "unrecognized arguments: --with-expansions"),
    (["fixtures", "example45", "--truncation", "5"], "unrecognized arguments: --truncation 5"),
    (EX314_ARGS + ["--coeffs", "2=5"], "unrecognized arguments: --coeffs 2=5"),
    (EX314_ARGS + ["--c2", "0.7"], "unrecognized arguments: --c2 0.7"),
    (["fixtures", "example46"], "argument family: invalid choice: 'example46'"),
    (["sweep"], "one of the arguments --force --fixture is required"),
    (["sweep", "--force", "g.json", "--fixture", "example45"],
     "argument --fixture: not allowed with argument --force"),
    (["sweep", "--fixture", "example45", "--force", "g.json"],
     "argument --force: not allowed with argument --fixture"),
    (["sweep", "--fixture", "other"], "argument --fixture: invalid choice: 'other'"),
], ids=["c2-then-coeffs", "coeffs-then-c2", "expansions-on-example45", "truncation-on-example45",
        "coeffs-on-example314", "c2-on-example314", "unknown-family", "no-force-source",
        "force-and-fixture", "fixture-and-force", "unknown-fixture"])
def test_parser_holds_the_flag_rules(tmp_path, capsys, argv, words):
    """A flag the chosen family or force source does not take, two of a kind
    that exclude each other, no force source, or an unknown family or fixture
    exits 2, names the flag on stderr and creates no --out."""
    out = tmp_path / "w"
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 2
    assert words in capsys.readouterr().err
    assert not out.exists()


def test_flag_defaults_resolve_where_read(tmp_path):
    """With no --c2 the example45 fixture has c_2 = 1, and with no --alpha-start
    and --alpha-factor a --force sweep runs alpha = 1, 2, 4, ..."""
    fxdir, out = tmp_path / "fx", tmp_path / "sweep"
    assert run(["fixtures", "example45", "--count", "2", "--out", str(fxdir)]) == 0
    assert hashlib.sha256((fxdir / "v_0002.json").read_bytes()).hexdigest() == \
        EX45_SHA256["c2/v_0002.json"]
    assert run(["sweep", "--force", str(fxdir / "g_limit.json"), "--count", "3",
                "--truncation", "4", "--out", str(out)]) == 0
    assert [e["alpha"] for e in fieldio.read_manifest(out / "manifest.json")["entries"]] == [
        1.0, 2.0, 4.0]


def test_example314_truncation_defaults_to_64(tmp_path):
    """Unset, example314's --truncation is 64."""
    for name, extra in (("default", []), ("64", ["--truncation", "64"])):
        assert run(["fixtures", "example314", "--count", "1", *extra,
                    "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "default" / "v_0001.json").read_bytes() == \
        (tmp_path / "64" / "v_0001.json").read_bytes()


def test_example314_fixture_arguments_are_usage_errors(tmp_path, capsys):
    """example314 is defined for n = 1..6 and T >= 16: a larger --count (the
    default 20 too) or a smaller --truncation exits 2 with the fixture's message
    before anything is written."""
    out = tmp_path / "fx"
    bad_n, bad_t = "example314 is defined for 1 <= n <= 6", "need at least 16 eigenmodes"
    for extra, words in ((["--count", "7"], bad_n), ([], bad_n),
                         (["--count", "6", "--truncation", "8"], bad_t)):
        capsys.readouterr()
        assert run(["fixtures", "example314", *extra, "--out", str(out)]) == 2
        assert words in capsys.readouterr().err
        assert not out.exists()


def test_example45_coefficient_faults_are_usage_errors(tmp_path, capsys):
    """A NaN, infinite or zero c_m, an m below 2 or given twice exits 2 and
    writes nothing, in ``fixtures`` and in ``sweep --fixture``."""
    out = tmp_path / "fx"
    for spec, coeffs, words in ((["--coeffs", "2=nan"], "2=nan", "c_2 = nan"),
                                (["--c2", "inf"], "2=inf", "c_2 = inf"),
                                (["--c2", "0"], "2=0", "c_2 = 0.0 must be finite and nonzero"),
                                (["--coeffs", "2=1,3=0"], "2=1,3=0", "c_3 = 0.0"),
                                (["--coeffs", "2=1,2=3"], "2=1,2=3", "c_2 is given more than once"),
                                (["--coeffs", "1=1"], "1=1", "coefficients start at m = 2; got m = 1"),
                                (["--coeffs", "2:1"], "2:1", "bad coefficient entry '2:1'"),
                                (["--coeffs", ","], ",", "empty coefficient list")):
        for argv in (["fixtures", "example45", *spec],
                     ["sweep", "--fixture", "example45", "--cstar-coeffs", coeffs, "--count", "2"]):
            capsys.readouterr()
            assert run(argv + ["--out", str(out)]) == 2
            assert words in capsys.readouterr().err
            assert not out.exists()


def _extract_usage_errors(manifest, out, capsys, cases):
    for extra, words in cases:
        capsys.readouterr()
        assert run(["extract", "--manifest", manifest, *extra, "--out", str(out)]) == 2
        assert words in capsys.readouterr().err
        assert not out.exists()


def test_extract_scale_and_depth_faults_are_usage_errors(pipeline, tmp_path, capsys):
    """A --scale that NestedScale rejects, a non-finite exponent among them,
    or --depth 0, exits 2 and writes nothing."""
    _extract_usage_errors(str(pipeline / "fx" / "manifest.json"), tmp_path / "exp", capsys, (
        (["--scale", "0.7"], "scale needs at least two exponents"),
        (["--scale", "0.6,0.7"], "strictly decreasing"),
        (["--scale", "0.9,0.3"], "general scale exponents must lie in (0.0, 0.5)"),
        (["--scale", "constant:inf"], "scale exponents must be finite"),
        (["--scale", "constant:nan"], "scale exponents must be finite"),
        (["--scale", "0.9,nan"], "scale exponents must be finite"),
        (["--depth", "0"], "argument --depth: must be an int of at least 1; got '0'"),
    ))


@pytest.mark.parametrize("extra, words", [
    (["--alpha-factor", "1"], "alphas must be strictly increasing"),
    (["--alpha-factor", "0.5"], "alphas must be strictly increasing"),
    (["--alpha-start", "0"], "alphas must be strictly increasing"),
    (["--alpha-start", "-1"], "sweep index 0: alpha -1.0 must be finite and nonnegative"),
    (["--alpha-start", "nan"], "sweep index 0: alpha nan must be finite"),
    (["--alpha-factor", "inf"], "sweep index 1: alpha inf must be finite"),
    (["--truncation", "1"], "sweep index 0: truncation radius 1 must cover the forcing modes"),
    (["--fixture", "example45"], "argument --fixture: not allowed with argument --force"),
    (["--cstar-coeffs", "2=5"], "--cstar-coeffs needs --fixture example45"),
], ids=["factor-1", "factor-half", "start-0", "start-negative", "start-nan", "factor-inf",
        "truncation-1", "with-fixture", "cstar-coeffs"])
def test_sweep_argument_faults_are_usage_errors(pipeline, tmp_path, capsys, extra, words):
    """Alphas that are not finite, nonnegative and strictly increasing, a
    truncation that does not cover the force, or a fixture flag beside --force,
    exit 2 before any solve and create no --out."""
    out = tmp_path / "sweep"
    assert run(["sweep", "--force", str(pipeline / "fx" / "g_limit.json"), *extra,
                "--out", str(out)]) == 2
    assert words in capsys.readouterr().err
    assert not out.exists()


def test_failed_sweep_creates_no_out(tmp_path, capsys):
    """A sweep that breaks inside Newton exits 1 and leaves no --out behind."""
    fxdir = tmp_path / "fx"
    assert run(["fixtures", "example45", "--count", "2", "--out", str(fxdir)]) == 0
    out = tmp_path / "sweep"
    # alpha 1 converges; the jump to alpha 100 finds no residual decrease
    assert run(["sweep", "--force", str(fxdir / "g_limit.json"), "--alpha-factor", "100",
                "--count", "4", "--out", str(out)]) == 1
    assert "sweep failed at index 1: Newton stalled" in capsys.readouterr().err
    assert not out.exists()


def test_failed_fixture_check_creates_no_out(tmp_path, capsys, monkeypatch):
    """A fixture that fails its own check exits 1 and leaves no --out behind."""
    def failing(*args):
        raise cli.fx.FixtureIntegrityError("example45 n=3: reconstruction check failed")

    monkeypatch.setattr(cli.fx, "example45_window", failing)
    out = tmp_path / "fx"
    assert run(["fixtures", "example45", "--out", str(out)]) == 1
    assert "n=3: reconstruction check failed" in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_a_regime_its_exponents_do_not_give(pipeline, tmp_path, capsys):
    """expansion.json records each form's regime; one that its exponents do
    not give is a malformed file (exit 2)."""
    out = tmp_path / "exp"
    shutil.copytree(pipeline / "exp", out)
    doc = fieldio.read_json(out / "expansion.json")
    assert doc["forms"]["strict"]["scale"]["regime"] == "2d-periodic"
    doc["forms"]["strict"]["scale"]["regime"] = "general"
    fieldio.write_json(out / "expansion.json", doc)
    assert run(["verify", "--expansion", str(out / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json")]) == 2
    assert "scale records regime 'general', but its exponents" in capsys.readouterr().err


def test_extract_tail_is_not_an_option(pipeline, tmp_path, capsys):
    """The estimators' tail is ceil(M/3) of the window; --tail is no option (exit 2)."""
    _extract_usage_errors(str(pipeline / "fx" / "manifest.json"), tmp_path / "exp", capsys, (
        (["--tail", "3"], "unrecognized arguments: --tail 3"),
    ))


@pytest.mark.parametrize("extra", [
    ["--scale", "0.75,0.7,0.65,0.6", "--depth", "2"],
    ["--scale", "0.75,0.7,0.65"],
], ids=["list-cut-by-depth", "list-under-default-depth"])
def test_extract_explicit_scale_is_every_forms_cap(pipeline, tmp_path, extra):
    """--depth keeps the first depth + 1 exponents of an explicit list, and the
    scale's depth caps the unitary form as it caps the strict one."""
    man, out = str(pipeline / "fx" / "manifest.json"), tmp_path / "exp"
    assert run(["extract", "--manifest", man, *extra, "--out", str(out)]) == 0
    assert run(["verify", "--expansion", str(out / "expansion.json"), "--manifest", man]) == 0
    forms = fieldio.read_json(out / "expansion.json")["forms"]
    assert forms["strict"]["scale"]["exponents"] == [0.75, 0.7, 0.65]
    assert len(forms["unitary"]["scale"]["exponents"]) == 3
    for rec in forms.values():
        assert len(rec["scale"]["exponents"]) <= 3 and len(rec["terms"]) <= 2


@pytest.mark.parametrize("spec, depths, cut", [
    (["--c2", "0.7"], (5, 5, 2), ("level 6 fails remainder-ratio", None)),
    (["--coeffs", "2=1.27,3=0.9"], (4, 4, 2), ("level 5 fails witness-convergence-k5", None)),
    (["--coeffs", "2=1.1181,3=0.7442"], (4, 4, 1),
     ("level 5 fails witness-convergence-k5", "level 2 fails witness-convergence-k2")),
    (["--c2", "1"], (6, 6, 2), (None, None)),
], ids=["c2-0.7", "two-coeffs", "two-coeffs-unitary-cut", "readme"])
def test_extract_keeps_the_levels_verify_accepts(tmp_path, spec, depths, cut):
    # extract cuts each form to the levels verify accepts, so verify passes on
    # windows it used to reject; the README window is not cut.
    fxdir, expdir = str(tmp_path / "fx"), str(tmp_path / "exp")
    assert run(["fixtures", "example45", *spec, "--count", "20", "--out", fxdir]) == 0
    assert run(["extract", "--manifest", f"{fxdir}/manifest.json",
                "--scale", "default-2dp", "--depth", "6", "--out", expdir]) == 0
    assert run(["verify", "--expansion", f"{expdir}/expansion.json",
                "--manifest", f"{fxdir}/manifest.json"]) == 0
    forms = fieldio.read_json(tmp_path / "exp" / "expansion.json")["forms"]
    assert tuple(len(forms[f]["terms"]) for f in ("strict", "restructured", "unitary")) == depths
    strict_cut, unitary_cut = cut
    for name, reason in (("strict", strict_cut), ("restructured", strict_cut),
                         ("unitary", unitary_cut)):
        if reason is None:
            assert not forms[name]["depth_reason"].startswith("level")
        else:
            assert forms[name]["depth_reason"] == reason
            assert reason in forms[name]["decision_log"]
    # The unitary log starts from the strict limit it reuses, not the strict levels or cut.
    unitary_log = forms["unitary"]["decision_log"]
    assert unitary_log[:2] == [forms["strict"]["decision_log"][0],
                               "unitary refinement in D(A^0.5)"]
    assert strict_cut is None or strict_cut not in unitary_log


@pytest.fixture(scope="module")
def doubling_sweep(tmp_path_factory):
    """The README doubling sweep at N = 8: alpha = 1, 2, ..., 2048 on the example45 g_limit."""
    root = tmp_path_factory.mktemp("doubling")
    assert run(["fixtures", "example45", "--c2", "1", "--count", "20",
                "--out", str(root / "fx")]) == 0
    assert run(["sweep", "--force", str(root / "fx" / "g_limit.json"), "--count", "12",
                "--truncation", "8", "--out", str(root / "sweep")]) == 0
    return root / "sweep"


@pytest.mark.parametrize("start", range(7))
def test_doubling_sweep_suffixes_extract_where_verify_passes(doubling_sweep, tmp_path, capsys,
                                                            start):
    """extract has no convergence gate of its own: on the suffix from each start
    of the N = 8 doubling sweep it exits 1 only where verify rejects level 1 (the
    full window), and elsewhere writes depth 1 in every form, which verify passes."""
    doc = fieldio.read_json(doubling_sweep / "manifest.json")
    man = doubling_sweep / f"from_{start}.json"  # beside the field files it names
    fieldio.write_json(man, dict(doc, entries=doc["entries"][start:]))
    out = tmp_path / "exp"
    capsys.readouterr()
    code = run(["extract", "--manifest", str(man), "--out", str(out)])
    if start == 0:
        assert code == 1
        assert "strict expansion: level 1 fails witness-convergence-k1" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 0
    assert run(["verify", "--expansion", str(out / "expansion.json"), "--manifest", str(man)]) == 0
    forms = fieldio.read_json(out / "expansion.json")["forms"]
    assert [len(forms[f]["terms"]) for f in ("strict", "restructured", "unitary")] == [1, 1, 1]
    assert forms["strict"]["depth_reason"] == "level 2 fails witness-convergence-k2"


def test_domain_error_exit_1(tmp_path):
    # a manifest whose window is too short for extraction
    fxdir = str(tmp_path / "short")
    assert run(["fixtures", "example45", "--count", "3", "--out", fxdir]) == 0
    code = run(["extract", "--manifest", f"{fxdir}/manifest.json",
                "--out", str(tmp_path / "e")])
    assert code == 1


def test_extract_constant_manifest_gives_trivial(tmp_path, capsys):
    # laminar sweep: identical solutions at every alpha -> trivial expansion
    import conftest
    from grashof_expand import spectral as sp

    g = conftest.shear_field()
    fdir = str(tmp_path / "lam")
    os.makedirs(fdir)
    fieldio.write_field(os.path.join(fdir, "g.json"), g)
    assert run(["sweep", "--force", f"{fdir}/g.json", "--alpha-start", "1",
                "--alpha-factor", "3", "--count", "8", "--truncation", "4",
                "--out", fdir]) == 0
    out = str(tmp_path / "exp")
    assert run(["extract", "--manifest", f"{fdir}/manifest.json", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "(trivial)" in text
    assert run(["classify", "--expansion", f"{out}/expansion.json",
                "--manifest", f"{fdir}/manifest.json",
                "--out", str(tmp_path / "c.json")]) == 0
    doc = fieldio.read_json(tmp_path / "c.json")
    assert doc["branch"] == "4.4(ii)"


@pytest.fixture(scope="module")
def pipeline314(tmp_path_factory):
    """fixtures example314 --count 6 -> extract constant:0, depth 3."""
    root = tmp_path_factory.mktemp("pipeline314")
    assert run(["fixtures", "example314", "--count", "6", "--truncation", "64",
                "--out", str(root / "fx")]) == 0
    assert run(["extract", "--manifest", str(root / "fx" / "manifest.json"),
                "--scale", "constant:0", "--depth", "3", "--out", str(root / "exp")]) == 0
    return root


def test_extract_writes_index_and_matrix(pipeline, pipeline314):
    for root in (pipeline, pipeline314):
        assert sorted(os.listdir(root / "exp")) == ["expansion.json", "expansion.npy"]


def test_closed_stdout_exits_quietly(pipeline, tmp_path):
    """A stage whose standard output closes before it prints (``extract ... | true``)
    still writes its files, then exits 1 without a traceback."""
    out = tmp_path / "exp"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "grashof_expand.cli", "extract",
                           "--manifest", str(pipeline / "fx" / "manifest.json"),
                           "--scale", "default-2dp", "--depth", "6", "--out", str(out)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()  # long before the interpreter has started
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""
    for name in ("expansion.json", "expansion.npy"):
        assert (out / name).read_bytes() == (pipeline / "exp" / name).read_bytes()


def test_extract_byte_identical_reruns(pipeline, tmp_path):
    out = tmp_path / "exp2"
    assert run(["extract", "--manifest", str(pipeline / "fx" / "manifest.json"),
                "--scale", "default-2dp", "--depth", "6", "--out", str(out)]) == 0
    names = sorted(os.listdir(pipeline / "exp"))
    assert sorted(os.listdir(out)) == names
    for name in names:
        assert (pipeline / "exp" / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("stage", ["verify", "classify", "report"])
def test_non_expansion_file_exit_2(pipeline, tmp_path, capsys, stage):
    man = str(pipeline / "fx" / "manifest.json")
    # An expansion file of the right schema that holds no forms.
    no_forms = str(tmp_path / "no_forms.json")
    doc = fieldio.read_json(pipeline / "exp" / "expansion.json")
    fieldio.write_json(no_forms, {**doc, "forms": {}})
    for path, message in ((man, "found schema None"), (no_forms, "holds no forms")):
        args = [stage, "--expansion", path, "--manifest", man, "--out", str(tmp_path / "o")]
        if stage == "verify":
            args = args[:-2]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert path in err and message in err


def test_classify_unknown_form_exit_2(pipeline, tmp_path, capsys):
    assert run(["classify", "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json"), "--form", "nosuch",
                "--out", str(tmp_path / "class.json")]) == 2
    err = capsys.readouterr().err
    assert "available: ['restructured', 'strict', 'unitary']" in err
    assert not (tmp_path / "class.json").exists()


def test_verify_unknown_form_exit_2(pipeline, capsys):
    assert run(["verify", "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json"), "--form", "nosuch"]) == 2
    assert "available: ['restructured', 'strict', 'unitary']" in capsys.readouterr().err


def test_report_on_foreign_window_exit_1(pipeline, pipeline314, tmp_path, capsys):
    man = str(pipeline / "fx" / "manifest.json")
    exf = str(pipeline314 / "exp" / "expansion.json")
    message = "expansion carries modes outside the data window"
    assert run(["verify", "--expansion", exf, "--manifest", man]) == 1
    assert message in capsys.readouterr().err
    assert run(["report", "--manifest", man, "--expansion", exf,
                "--out", str(tmp_path / "rep")]) == 1
    assert message in capsys.readouterr().err


def test_misordered_alphas_are_rejected(pipeline, tmp_path, capsys):
    fxdir = tmp_path / "fx"
    shutil.copytree(pipeline / "fx", fxdir)
    man = fxdir / "manifest.json"
    doc = fieldio.read_json(man)
    a16, a17 = doc["entries"][15]["alpha"], doc["entries"][16]["alpha"]
    doc["entries"][15]["alpha"], doc["entries"][16]["alpha"] = a17, a16
    fieldio.write_json(man, doc)
    message = f"alphas must be strictly increasing: sample 17 has alpha {a16!r} after {a17!r}"
    out = tmp_path / "out"
    assert run(["extract", "--manifest", str(man), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert run(["verify", "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--manifest", str(man)]) == 1
    assert message in capsys.readouterr().err
    assert run(["report", "--manifest", str(man), "--out", str(out),
                "--expansion", str(pipeline / "exp" / "expansion.json")]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _classify_with(pipeline, tmp_path, edit):
    """classify the pipeline's expansion against a copy of its manifest changed by ``edit``."""
    fxdir = tmp_path / "fx"
    shutil.copytree(pipeline / "fx", fxdir)
    doc = fieldio.read_json(fxdir / "manifest.json")
    edit(doc)
    fieldio.write_json(fxdir / "manifest.json", doc)
    out = tmp_path / "class.json"
    code = run(["classify", "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--manifest", str(fxdir / "manifest.json"), "--out", str(out)])
    return code, out


def test_classify_without_g_limit_exit_2(pipeline, tmp_path, capsys):
    """The per-n forces are not the limit force g: a manifest that has them but
    no g_limit is not classified."""
    code, out = _classify_with(pipeline, tmp_path, lambda doc: doc.pop("g_limit"))
    assert code == 2
    assert f"{tmp_path / 'fx' / 'manifest.json'}: manifest carries no g_limit" in \
        capsys.readouterr().err
    assert not out.exists()


def test_classify_without_any_force_exit_2(pipeline, tmp_path, capsys):
    def strip(doc):
        doc.pop("g_limit")
        for entry in doc["entries"]:
            entry.pop("force")
    code, out = _classify_with(pipeline, tmp_path, strip)
    assert code == 2
    assert "manifest carries no g_limit to classify against" in capsys.readouterr().err
    assert not out.exists()


def test_classify_reads_no_window_files(tmp_path):
    fxdir = str(tmp_path / "fx")
    out = str(tmp_path / "exp")
    assert run(["fixtures", "example45", "--c2", "1", "--count", "20", "--out", fxdir]) == 0
    assert run(["extract", "--manifest", f"{fxdir}/manifest.json",
                "--scale", "default-2dp", "--depth", "6", "--out", out]) == 0
    for name in os.listdir(fxdir):
        if name.startswith("v_"):
            os.remove(os.path.join(fxdir, name))
    cls = str(tmp_path / "class.json")
    assert run(["classify", "--expansion", f"{out}/expansion.json",
                "--manifest", f"{fxdir}/manifest.json", "--out", cls]) == 0
    assert fieldio.read_json(cls)["branch"] == "4.4(iii)(a)"


def test_corrupt_term_row_is_named(pipeline, tmp_path, capsys):
    doc = fieldio.read_json(pipeline / "exp" / "expansion.json")
    m = len(doc["alphas"])
    kx, ky = doc["modes"][0]
    for form, offset, where in (("unitary", 1 + 3, "term 1: witness n=3"),
                                ("strict", 0, "limit"),
                                ("restructured", 1 + (1 + m), "term 2: direction")):
        out = tmp_path / form
        shutil.copytree(pipeline / "exp", out)
        path = out / "expansion.npy"
        rows = np.load(path, allow_pickle=False)
        # Push mode 0 of the row off k.c = 0 through the component that k sees.
        rows[doc["forms"][form]["rows"][0] + offset, 0, 2 if ky != 0 else 0] += 1.0
        np.save(path, rows)
        assert run(["verify", "--expansion", str(out / "expansion.json"),
                    "--manifest", str(pipeline / "fx" / "manifest.json")]) == 1
        err = capsys.readouterr().err
        assert (f"error: {path}: form {form}: {where}: divergence-free condition violated "
                f"at mode ({kx}, {ky})") in err


def _wrong_dtype(path):
    np.save(path, np.load(path).astype(np.float32))


def _wrong_shape(path):
    np.save(path, np.load(path)[:, :-1])  # one mode fewer than the index lists


def _wrong_rows(path):
    np.save(path, np.load(path)[:-1])  # one row fewer than the index has truncations


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-8])


def _object_array(path):
    np.save(path, np.load(path).astype(object), allow_pickle=True)


@pytest.mark.parametrize("damage", [_wrong_dtype, _wrong_shape, _wrong_rows, _truncated,
                                    _object_array],
                         ids=["wrong-dtype", "wrong-shape", "wrong-rows", "truncated",
                              "object-array"])
def test_malformed_term_matrix_exit_2(pipeline, tmp_path, capsys, damage):
    out = tmp_path / "exp"
    shutil.copytree(pipeline / "exp", out)
    path = out / "expansion.npy"
    damage(path)
    with pytest.raises(fieldio.FieldFormatError, match="malformed expansion matrix") as exc:
        ex.load_expansion(str(out / "expansion.json"))
    assert str(path) in str(exc.value)
    assert run(["verify", "--expansion", str(out / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json")]) == 2
    assert f"{path}: malformed expansion matrix" in capsys.readouterr().err


def test_corrupt_field_file_is_named(pipeline, tmp_path, capsys):
    fxdir = tmp_path / "fx"
    shutil.copytree(pipeline / "fx", fxdir)
    path = fxdir / "v_0007.json"
    doc = fieldio.read_json(path)
    rec = next(r for r in doc["modes"] if r["k"] == [0, 1])
    rec["c"][1][0] += 1.0  # k.c = c[1] for k = (0, 1)
    fieldio.write_json(path, doc)
    assert run(["extract", "--manifest", str(fxdir / "manifest.json"),
                "--out", str(tmp_path / "exp")]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: divergence-free condition violated at mode (0, 1)" in err


def _edit_text(path, edit, text):
    """Rewrite the JSON document at ``path`` with ``edit`` setting some value to
    the placeholder "@", then put ``text`` (not JSON, or out of range) in its place."""
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc).replace('"@"', text))


def _set_alpha(doc):
    doc["entries"][2]["alpha"] = "@"


def _set_residual(doc):
    doc["entries"][0]["residual_H"] = "@"


def _set_coefficient(doc):
    next(r for r in doc["modes"] if r["k"] == [2, 0])["c"][1][1] = "@"  # an imaginary part


@pytest.mark.parametrize("file, edit, text, code, words", [
    ("manifest.json", _set_alpha, "NaN", 2, "not valid JSON (NaN is not a JSON number)"),
    ("manifest.json", _set_residual, "Infinity", 2,
     "not valid JSON (Infinity is not a JSON number)"),
    ("manifest.json", _set_alpha, "1e400", 2,
     "malformed manifest entry (entries[2]: alpha, residual_H and bound_check must be finite)"),
    ("v_0007.json", _set_coefficient, "NaN", 2, "not valid JSON (NaN is not a JSON number)"),
    ("v_0007.json", _set_coefficient, "1e400", 1, "non-finite coefficient at mode (2, 0)"),
], ids=["alpha-nan", "residual-infinity", "alpha-overflow", "coefficient-nan",
        "coefficient-overflow"])
def test_non_finite_inputs_are_named(pipeline, tmp_path, capsys, file, edit, text, code, words):
    """NaN and infinities, which every comparison lets through, are refused before
    use, naming the file: a NaN alpha once read as "alphas must be strictly
    increasing", a NaN coefficient as a reconstruction failure, and an infinite
    residual_H passed."""
    fxdir = tmp_path / "fx"
    shutil.copytree(pipeline / "fx", fxdir)
    _edit_text(fxdir / file, edit, text)
    capsys.readouterr()
    assert run(["extract", "--manifest", str(fxdir / "manifest.json"),
                "--out", str(tmp_path / "exp")]) == code
    assert f"{fxdir / file}: {words}" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


MANIFEST, FIELD = "malformed manifest entry", "malformed field file"
INDEX = "malformed expansion file (missing or bad"
WRONG_TYPES = {
    "alpha-string": ("manifest.json", ("entries", 2, "alpha"), str,
                     f"{MANIFEST} (entries[2].alpha: not a number)"),
    "n-fraction": ("manifest.json", ("entries", 2, "n"), "2.7",
                   f"{MANIFEST} (entries[2].n: not an integer)"),
    "n-true": ("manifest.json", ("entries", 0, "n"), "true",
               f"{MANIFEST} (entries[0].n: not an integer)"),
    "n-string": ("manifest.json", ("entries", 2, "n"), str,
                 f"{MANIFEST} (entries[2].n: not an integer)"),
    "residual-string": ("manifest.json", ("entries", 0, "residual_H"), '"0"',
                        f"{MANIFEST} (entries[0].residual_H: not a number)"),
    "wavevector-fraction": ("v_0003.json", ("modes", 1, "k", 0), "2.5",
                            f"{FIELD} ('k': not an integer)"),
    "coefficient-string": ("v_0003.json", ("modes", 0, "c", 0, 0), '"0"',
                           f"{FIELD} ('c': not a number)"),
    "truncation-fraction": ("v_0003.json", ("truncation",), "2.9",
                            f"{FIELD} ('truncation': not an integer)"),
    "truncation-string": ("v_0003.json", ("truncation",), '"2"',
                          f"{FIELD} ('truncation': not an integer)"),
    "truncation-true": ("v_0003.json", ("truncation",), "true",
                        f"{FIELD} ('truncation': not an integer)"),
    "alphas-string": ("expansion.json", ("alphas", 3), str, f"{INDEX} 'alphas': not a number)"),
    "truncations-string": ("expansion.json", ("truncations", 2), '"2"',
                           f"{INDEX} 'truncations': not an integer)"),
    "truncations-fraction": ("expansion.json", ("truncations", 2), "2.5",
                             f"{INDEX} 'truncations': not an integer)"),
    "modes-fraction": ("expansion.json", ("modes", 1, 0), "2.5", f"{INDEX} 'modes': not an integer)"),
    "exponent-string": ("expansion.json", ("forms", "unitary", "scale", "exponents", 1), str,
                        "form unitary: bad scale ('exponents': not a number)"),
}


@pytest.mark.parametrize("file, keys, text, words", list(WRONG_TYPES.values()), ids=list(WRONG_TYPES))
def test_numbers_of_the_wrong_json_type_are_named(pipeline, tmp_path, capsys, file, keys, text, words):
    """A string, a boolean or a fraction where a manifest, a field file or an
    expansion index holds a number (an integer for n, wavevectors, modes and
    truncations) exits 2 naming the file, and writes nothing. Each once read as
    the number it spells or rounds to: ``extract`` and ``verify`` exited 0, and
    a ``true`` truncation read as 1 and failed as a mode outside it."""
    for name in ("fx", "exp"):
        shutil.copytree(pipeline / name, tmp_path / name)
    path = tmp_path / ("exp" if file == "expansion.json" else "fx") / file
    doc = holder = json.loads(path.read_text())
    *parents, last = keys
    for key in parents:
        holder = holder[key]
    holder[last] = str(holder[last]) if text is str else "@"  # str: the number it held, quoted
    path.write_text(json.dumps(doc) if text is str else json.dumps(doc).replace('"@"', text))
    capsys.readouterr()
    if file == "expansion.json":
        argv = ["verify", "--expansion", str(path), "--manifest", str(tmp_path / "fx" / "manifest.json")]
    else:
        argv = ["extract", "--manifest", str(path.parent / "manifest.json"), "--depth", "2",
                "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert f"usage error: {path}: {words}" in captured.err
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_overflowing_gamma_is_named(pipeline, tmp_path, capsys):
    """A literal that overflows to infinity is valid JSON: the index's own check
    names the form and the term."""
    out = tmp_path / "exp"
    shutil.copytree(pipeline / "exp", out)

    def overflow(doc):
        doc["forms"]["unitary"]["terms"][0]["gammas"][3] = "@"
    _edit_text(out / "expansion.json", overflow, "1e400")
    assert run(["verify", "--expansion", str(out / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json")]) == 2
    assert (f"{out / 'expansion.json'}: form unitary: term 1: 'gammas' is not a list of 20 "
            "finite numbers") in capsys.readouterr().err


def test_non_finite_term_row_is_named(pipeline, tmp_path, capsys):
    """A NaN in an expansion's term matrix names the matrix, the form and the row."""
    doc = fieldio.read_json(pipeline / "exp" / "expansion.json")
    out = tmp_path / "exp"
    shutil.copytree(pipeline / "exp", out)
    path = out / "expansion.npy"
    rows = np.load(path, allow_pickle=False)
    rows[doc["forms"]["unitary"]["rows"][0] + 1 + 3, 0, 1] = np.nan
    np.save(path, rows)
    assert run(["verify", "--expansion", str(out / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json")]) == 1
    kx, ky = doc["modes"][0]
    assert (f"error: {path}: form unitary: term 1: witness n=3: non-finite coefficient at "
            f"mode ({kx}, {ky})") in capsys.readouterr().err


def _swap_first_modes(doc):
    doc["modes"][0], doc["modes"][1] = doc["modes"][1], doc["modes"][0]
    return f"mode {tuple(doc['modes'][1]['k'])} is not a conjugate representative in increasing order"


def _zero_mode_first(doc):
    doc["modes"].insert(0, {"k": [0, 0], "c": [[1.0, 0.0], [0.0, 0.0]]})
    return "mode (0, 0) is not a conjugate representative in increasing order"


@pytest.mark.parametrize("damage", [_swap_first_modes, _zero_mode_first],
                         ids=["out-of-order", "zero-mode"])
def test_misordered_field_modes_are_named(pipeline, tmp_path, capsys, damage):
    """A field file whose representatives are out of order or list (0, 0) exits 1
    and names the file."""
    fxdir = tmp_path / "fx"
    shutil.copytree(pipeline / "fx", fxdir)
    path = fxdir / "v_0003.json"
    doc = fieldio.read_json(path)
    words = damage(doc)
    fieldio.write_json(path, doc)
    assert run(["extract", "--manifest", str(fxdir / "manifest.json"),
                "--out", str(tmp_path / "exp")]) == 1
    assert f"error: {path}: {words}" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def _index_modes_out_of_order(doc):
    doc["modes"][0], doc["modes"][1] = doc["modes"][1], doc["modes"][0]
    return 1, f"mode {tuple(doc['modes'][1])} is not a conjugate representative in increasing order"


def _index_rows_do_not_tile(doc):
    doc["forms"]["strict"]["rows"][1] -= 1
    return 2, "do not tile the"


def _index_term_without_estimator(doc):
    del doc["forms"]["unitary"]["terms"][0]["estimator"]
    return 2, "malformed expansion file (missing or bad 'estimator')"


def _index_scale_of_one_exponent(doc):
    doc["forms"]["unitary"]["scale"]["exponents"] = [0.5]
    return 2, "form unitary: bad scale (scale needs at least two exponents)"


def _index_forms(value):
    def damage(doc):
        doc["forms"] = value(doc["forms"])
        return 2, "expansion file holds no forms: 'forms' is no nonempty object"
    return damage


def _index_gammas(value):
    def damage(doc):
        term = doc["forms"]["unitary"]["terms"][0]
        term["gammas"] = value(term["gammas"])
        return 2, "form unitary: term 1: 'gammas' is not a list of 20 finite numbers"
    return damage


def _index_nan_gamma(doc):
    doc["forms"]["unitary"]["terms"][0]["gammas"][3] = float("nan")
    return 2, "not valid JSON (NaN is not a JSON number)"  # the reader refuses it first


def _index_degenerate_n(value):
    def damage(doc):
        doc["forms"]["unitary"]["degenerate_N"] = value
        return 2, "form unitary: 'degenerate_N' is not null or an int"
    return damage


INDEX_DAMAGES = {
    "modes-out-of-order": _index_modes_out_of_order,
    "rows-do-not-tile": _index_rows_do_not_tile,
    "no-estimator": _index_term_without_estimator,
    "one-exponent": _index_scale_of_one_exponent,
    "forms-a-list": _index_forms(list),
    "forms-a-string": _index_forms(lambda forms: "unitary"),
    "gammas-null": _index_gammas(lambda g: None),
    "gammas-a-number": _index_gammas(lambda g: g[0]),
    "gammas-string-entry": _index_gammas(lambda g: g[:3] + ["x"] + g[4:]),
    "gammas-nan-entry": _index_nan_gamma,
    "gammas-null-entry": _index_gammas(lambda g: g[:3] + [None] + g[4:]),
    "degenerate-n-string": _index_degenerate_n("1"),
    "degenerate-n-list": _index_degenerate_n([1]),
}


@pytest.mark.parametrize("damage", list(INDEX_DAMAGES.values()), ids=list(INDEX_DAMAGES))
def test_malformed_expansion_index(pipeline, tmp_path, capsys, damage):
    """A damaged expansion index exits with its code, naming the index and the
    fault; an exit 2 (a format error) prints nothing on standard output."""
    out = tmp_path / "exp"
    shutil.copytree(pipeline / "exp", out)
    doc = fieldio.read_json(out / "expansion.json")
    code, words = damage(doc)
    (out / "expansion.json").write_text(json.dumps(doc))  # NaN as JSON's NaN
    assert run(["verify", "--expansion", str(out / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json")]) == code
    captured = capsys.readouterr()
    assert str(out / "expansion.json") in captured.err and words in captured.err
    assert code != 2 or captured.out == ""


def _manifest_without_entries(doc):
    doc.pop("entries")
    return doc, "manifest has no entries list"


def _entry_without_alpha(doc):
    doc["entries"][4].pop("alpha")
    return doc, "malformed manifest entry ('alpha')"


def _manifest_null(doc):
    return None, "manifest has no entries list"


def _manifest_number(doc):
    return 5, "manifest has no entries list"


def _entry_force_not_a_path(doc):
    doc["entries"][4]["force"] = 7
    return doc, "malformed manifest entry ("


def _g_limit_not_a_path(doc):
    doc["g_limit"] = 7
    return doc, "malformed g_limit ("


@pytest.mark.parametrize("damage", [_manifest_without_entries, _entry_without_alpha,
                                    _manifest_null, _manifest_number, _entry_force_not_a_path,
                                    _g_limit_not_a_path],
                         ids=["no-entries", "no-alpha", "null", "number", "force-not-a-path",
                              "g-limit-not-a-path"])
def test_malformed_manifest_exit_2(pipeline, tmp_path, capsys, damage):
    fxdir = tmp_path / "fx"
    shutil.copytree(pipeline / "fx", fxdir)
    doc, words = damage(fieldio.read_json(fxdir / "manifest.json"))
    fieldio.write_json(fxdir / "manifest.json", doc)
    assert run(["extract", "--manifest", str(fxdir / "manifest.json"),
                "--out", str(tmp_path / "exp")]) == 2
    assert f"{fxdir / 'manifest.json'}: {words}" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("stage", ["extract", "verify"])
def test_unparsable_json_exit_2_naming_the_file(pipeline, tmp_path, capsys, stage):
    """A manifest (extract) or an expansion index (verify) that is not JSON is
    a format error that names the file, as a malformed one is."""
    fxdir, expdir = tmp_path / "fx", tmp_path / "exp"
    shutil.copytree(pipeline / "fx", fxdir)
    shutil.copytree(pipeline / "exp", expdir)
    bad = fxdir / "manifest.json" if stage == "extract" else expdir / "expansion.json"
    bad.write_text('{"entries": [')
    argv = (["extract", "--out", str(tmp_path / "out")] if stage == "extract"
            else ["verify", "--expansion", str(expdir / "expansion.json")])
    assert run(argv + ["--manifest", str(fxdir / "manifest.json")]) == 2
    assert f"{bad}: not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, bad", [
    (["extract", "--manifest", "{fx}", "--out", "{tmp}/out"], "{fx}"),
    (["verify", "--expansion", "{exp}", "--manifest", "{fx}/manifest.json"], "{exp}"),
    (["extract", "--manifest", "{fx}/manifest.json", "--out", "{tmp}/file"], "{tmp}/file"),
    (["fixtures", "example45", "--count", "2", "--out", "{tmp}/file"], "{tmp}/file"),
], ids=["dir-as-manifest", "dir-as-expansion", "file-as-extract-out", "file-as-fixtures-out"])
def test_unopenable_path_exit_2_naming_it(pipeline, tmp_path, capsys, argv, bad):
    """An input or output that cannot be opened (a directory read as a file, a
    file in the way of an output directory) exits 2 naming it, and writes nothing."""
    (tmp_path / "file").write_text("")

    def fill(arg):
        return arg.format(fx=pipeline / "fx", exp=pipeline / "exp", tmp=tmp_path)
    assert run([fill(arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and fill(bad) in err
    assert os.listdir(tmp_path) == ["file"] and (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("edit, key", [
    (lambda doc: {k: v for k, v in doc.items() if k != "branch"}, "branch"),
    (lambda doc: {**doc, "branch": 7}, "branch"),
    (lambda doc: {**doc, "constants": [1, 2]}, "constants"),
    (lambda doc: {**doc, "residuals": {**doc["residuals"], "R1": "0.1"}}, "residuals"),
    (lambda doc: {**doc, "warnings": "none"}, "warnings"),
], ids=["no-branch", "branch-number", "constants-list", "residual-string", "warnings-string"])
def test_report_checks_the_classification_first(pipeline, tmp_path, capsys, edit, key):
    """A classification with a key of the wrong type is a format error naming the
    file and the key, found before report writes anything."""
    cls = tmp_path / "class.json"
    fieldio.write_json(cls, edit(fieldio.read_json(pipeline / "class.json")))
    assert run(["report", "--manifest", str(pipeline / "fx" / "manifest.json"),
                "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--classification", str(cls), "--out", str(tmp_path / "rep")]) == 2
    assert f"{cls}: classification {key!r} is not" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


# sha256 of every file that ``fixtures example314 --count 6 --truncation 16
# --with-expansions`` and ``extract --scale constant:0 --depth 3`` write,
# recorded with numpy 2.4.6 on x86_64 (OpenBLAS).
EX314_SHA256 = {
    "exp/expansion.json": "91e14fa70ee9f333631269ad0b96a8e251297762bbb4cd0d61590a3da79f1726",
    "exp/expansion.npy": "60163190a87df6dd4f0ed7d3c11fccbe603fd2771aa5a18a9835d1832d180a8e",
    "fx/expansion_analytic.json": "f7a0671a614121c1b5786d133b8931b20b787b462c6aadf4b09259ec7b9c881c",
    "fx/expansion_analytic.npy": "461aadb68d96a535dc14ab84328b922ed45f10d65bb55095b0bf8604e0a5efce",
    "fx/manifest.json": "6836cb56035c213b7ca6ed671e868d0ab2626ddf75f1b25dac9f4ed9ac345b15",
    "fx/v_0001.json": "1da33cc6ca396c1384c817f81a5df0e603301690b05129949c109f18fd5a999c",
    "fx/v_0002.json": "56904b2976d63259559a39de3b88ca352eff6669acd32687f2d58e1c5be3105b",
    "fx/v_0003.json": "abfceddc537df4f0308f4e16f18e7fda761012aa9b7bb43f2dbbcba5da884e30",
    "fx/v_0004.json": "fbe3b82fc6c18a26a745d050e116e18320e8899ca9ba1473ba675fde7f2e4454",
    "fx/v_0005.json": "f142585b7fc9a5201be50afad850fef8c8a2913193e87a8a1158f2b0d2333791",
    "fx/v_0006.json": "cb3f8388a0eccf6e8e19f928d43a31aef16abf162c04484a48f2b76eb054fe36",
}


def test_example314_files_are_pinned(tmp_path):
    fxdir, expdir = tmp_path / "fx", tmp_path / "exp"
    assert run(["fixtures", "example314", "--count", "6", "--truncation", "16",
                "--with-expansions", "--out", str(fxdir)]) == 0
    assert run(["extract", "--manifest", str(fxdir / "manifest.json"), "--scale", "constant:0",
                "--depth", "3", "--out", str(expdir)]) == 0
    got = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*/*"))}
    assert sorted(got) == sorted(EX314_SHA256)
    assert [name for name in sorted(got) if got[name] != EX314_SHA256[name]] == []

# sha256 of every file that ``fixtures example45 --count 20`` writes with
# ``--c2 1`` (c2/) and with ``--coeffs 2=0.93,3=-0.6`` (c23/), recorded with
# numpy 2.4.6 on x86_64 (OpenBLAS) from the per-n construction that the
# window's array pass replaced.
EX45_SHA256 = {
    "c2/g_0001.json": "6020092c09bbd530166c7e3a6b61d12c092fd469dcda60bca8f67ba55f9b67a6",
    "c2/g_0002.json": "4719a859293a31ea3439764e574c07a45a27e0a77febf0ecffd366c0301d2e5a",
    "c2/g_0003.json": "09da234b7dba9cf9ef957fa8210f0187a2d033770e26f39e5878cb0020e58748",
    "c2/g_0004.json": "a849a4b00b1282a7616f121f904956cd8a27c787daffa4b4f646175bbf3b6f20",
    "c2/g_0005.json": "ee8e63aff6e4e979e57e2f7c4311ede464682df7eb3b0c311199dd9bb91409bf",
    "c2/g_0006.json": "35543935d4ea89c49044dcb396c2ca3b3d33d6345087bf6fcdd7e75c09a0d59a",
    "c2/g_0007.json": "3173eb5a83923a041ba16de73cc4608bc869cb993de3c0f1c060b7fbd008aa82",
    "c2/g_0008.json": "52d147395343b4b19d64c96ac9ebdf06a19d379ec7188b2648a5caae2ad626f9",
    "c2/g_0009.json": "36c0e280817e20d38488c9d99ff0cbee6698875dd94c34335a9a25a7fd500fc6",
    "c2/g_0010.json": "924ed4823ef69e2fd765a9c17400115ec5d2a88023d69427df4cead40d1c2634",
    "c2/g_0011.json": "0e322a995fb2f688c94fd73f5c90cc28ebe2823764416c5703cfd247ab8c95fe",
    "c2/g_0012.json": "0164f09317f9cf45b8749508f0e2415802eca631180ea5627040c78c861771d5",
    "c2/g_0013.json": "f880f69a9a17c4de7f2a9321276960b232495b8e25ba42223348e7fe8c3b3b53",
    "c2/g_0014.json": "77cf538d5ebfa4acbfbb0a94f4e202fd1f68670251d2fabf78028c005ad47c1d",
    "c2/g_0015.json": "051a89e55c48bba4779e44f136348ac73306e9303929bed69e5b014a900b14c6",
    "c2/g_0016.json": "1cf5061a24d29293f27b88bdfe6a6a5bcc0c11d188294a257dfbb93ff1a226e1",
    "c2/g_0017.json": "70bc4baaab9dc54c8fee98700d203dcadbbbf86f6be59f27619fb9d0298cc5a9",
    "c2/g_0018.json": "1a0fdaa000b46ada44435365d714b689cd2ce53106a5a0c5f18aa847be4c49bb",
    "c2/g_0019.json": "7a28b8b75df2d4eda6d9d30cbd8dd7bd5511eb504783640bf2556a729227f148",
    "c2/g_0020.json": "160e39c456d8ad67b2734fa65fea2f018ceddebfc4f78037f4d35066ac13d6a2",
    "c2/g_limit.json": "e87c5a685c391b3d5b8bc4b5f78856d4b1661c5e56a36811168495bce23f2739",
    "c2/manifest.json": "6d7abfd11b2d3ca57457b4af59ff5c593288a6bf96d0418b137111e17072b681",
    "c2/v_0001.json": "cb5939356573e6f0a533128eabf17bbba7ae0b2b494c29b366ced32d6c63d980",
    "c2/v_0002.json": "b32b388da6bf1619e45b87e934dad7967e9127a5089f0f21e23f01c4b39b9c1c",
    "c2/v_0003.json": "3ef1b9dcca5da895e127825f31759b410a96473ae061ff9328cc1b42cd35cd83",
    "c2/v_0004.json": "3496313e68eec46f2963681b82bfbbe85a1759c9ce3c3c3eb7aaae2279c0cbe0",
    "c2/v_0005.json": "c907d9f26882426ce48c5545655cec86876a51d2e5edc6e0189b1b40eb34b20b",
    "c2/v_0006.json": "e8e74ad7d2f92ce53bd11e258b248ec1132e18346721da59d0e1da74d6874d99",
    "c2/v_0007.json": "a51f5610617cf2b11ff8a19e518a590904780e0394f21b67bb278671b1e370ef",
    "c2/v_0008.json": "b509ac3ab8d476f97e52ce3a8478bd8e54bdce39f62defe9180bd717af3aa921",
    "c2/v_0009.json": "38224b533f434d21b6e9970ac820c75e7564baa001f2d9d6e40997acc4c0d4a9",
    "c2/v_0010.json": "5c9ca2f80cb5ff6cec6762b92b6a796867a2fcf95b4e9e507443c14c754d1617",
    "c2/v_0011.json": "ac20f916c2f3719f7ee435e7a603a6e6fc8733e483a7ff42c12a2ae52931f7ff",
    "c2/v_0012.json": "3177b43add89656b73b00badd5401cfefe61c4efb2f83ad662fd974bf3450465",
    "c2/v_0013.json": "1a4bfb10e0a56d730acaa170c8cdb1f0a20a8193c81a0c277d857b4303ffeb3b",
    "c2/v_0014.json": "0efae8e3e484cc0abe98abc2011830ac4638ebf7d5b6735a6a11b2bbebbc27a4",
    "c2/v_0015.json": "a27cf9900557ca27f022775bd4f0d3f2fec8b22e83f4848f15d3f32067ecbd40",
    "c2/v_0016.json": "15f97e25812250a8d4a21eeee8fded338eb1a91db47126815bb359afe12f154b",
    "c2/v_0017.json": "1e78c4c32e6858b45d4a50d65f69fd6728fdbf94001ee2707df21afba8be4157",
    "c2/v_0018.json": "3249262e7edb3b678eb59b230115bacc5ec8a506bd7ca58eeadee600a8ff048e",
    "c2/v_0019.json": "975519d25fd2710116d7f55f97f92dcb1d324fd661dc30ffc4d4e48bf19b3090",
    "c2/v_0020.json": "8219be4e352d689aa97a06e8e235673d5bfa15c4c6a3990a648263c8aa953b74",
    "c23/g_0001.json": "376ce0cfa33a7b6949784dc256326670eb739a9449e4ee108f7c4d9bbc762b48",
    "c23/g_0002.json": "1b7957df4b74aefd204f8d7ec8414d8b599f0d9e2589f91b9cf125979af5ed17",
    "c23/g_0003.json": "b42bc9105cf77d5aecda769788891bd30671e922112e92b766fbb65a64504a3d",
    "c23/g_0004.json": "d3e5ff28a2060066d1e88b0547088995441c408a066c30b67b1a0f53be3ae5e1",
    "c23/g_0005.json": "22bfcb1f8855022a601517419fa545f64db9fef85ebe46dc427208d3cffdf3f0",
    "c23/g_0006.json": "c4d069cfd564249d6df5f0653bb95017f9c92d8b1f793d8e4b3e16d7d457284c",
    "c23/g_0007.json": "2ed574ef2c0e3652042091a34659180e6fc398324f1082a69d986ca4450d8015",
    "c23/g_0008.json": "3e54f077325f8cae7e467e64c551cd204f05c9a09ae4fb5fc8b0110e7d3e17e9",
    "c23/g_0009.json": "4716b74f3de4d793a6372ef72c83e914071dcb8e6c8cd2d4e43d8a7fd6c79039",
    "c23/g_0010.json": "bb95f5de88e4189d2d06a81b0236b72da5912228108c088b33a515662b23ac9c",
    "c23/g_0011.json": "ee8fbd9f609a1c8b7245d94a843739d9f219318e158245d671417693b6688d29",
    "c23/g_0012.json": "c8b6c23c6c127ae5d9684ac79a3604bf2b3611128d2f541efc116964f0aa1d23",
    "c23/g_0013.json": "3e1d61095089f2ea92ad2b22796134efd235015f22a0b8513e400db51469eb59",
    "c23/g_0014.json": "a827d047afe7281f3240a4f8f86e02e86030ff51f02485f4300c9568c84480c2",
    "c23/g_0015.json": "7aa185e2df5d632a17e1bd5b3b4c889b458d1eaf77e8752ce892678ddc8823ad",
    "c23/g_0016.json": "0aa1732f662c2a06842a8f595cedc6778e8d6ac00c9533d1c9c92ab76cfa98e9",
    "c23/g_0017.json": "f698280e93b0d42e66c677577aeca0ad0b349aafb1ede15926e0040ffc0fcbf2",
    "c23/g_0018.json": "1af797e037e593a52f4f55b6d7e4b1f45672951c27e97678557947427af39724",
    "c23/g_0019.json": "b0b55c81df85ffeb4fcacc0d07b963ff7dca70f44367f339a6fa567c220b93dc",
    "c23/g_0020.json": "9b6ef780778511271016cb80ca2ec2e796fd10c0f82cb934826aba2f2be75786",
    "c23/g_limit.json": "9e046c452e5df57011c94b08eb1a6f8374530be048d10c461ba06827644ad814",
    "c23/manifest.json": "d3741ef49de63c3494a9ca7a3797d5cbc4ef21ecce1b834bf751233adfc4f59a",
    "c23/v_0001.json": "78c9a78f4dd4792f912b4ed51775734449673e73d34de785acae9272ccf4d294",
    "c23/v_0002.json": "9e4a1775d0f83ef945f08869a44e00a6ab3654c3f5896df48201804a56cd02c7",
    "c23/v_0003.json": "6e60e91b4b5ab4062229b4f2b5b41de04f4cabc95d8095a2cf782d2c50b36fe5",
    "c23/v_0004.json": "eb6cc90fddab10524441653ef32cd560d2d3d52ae13b79c17006c80e9484658a",
    "c23/v_0005.json": "596e3b1a37ef0ad3cf3ac7f2dde66cba111ff23d551d7a728571c31cbb577f1d",
    "c23/v_0006.json": "fd0c098f82b5c7fdab3e5dc3af97b85d9f9e7470e7f3dd677f96a49363c93756",
    "c23/v_0007.json": "dfeb3d71e28547bdc8582115f49d6012bd23a4c2aaca30e9ef07cb64914389e3",
    "c23/v_0008.json": "4bbc92f6150e2e899fbd15f1c767c422f7ff58d2313be79b4e38a3891a5b3f75",
    "c23/v_0009.json": "456debe8d304139ee4fc0c1e9ea0fc6b56c03760e18204777533081ae061140c",
    "c23/v_0010.json": "933da0a5b9d83d352495954ca705269dba7ae23fecb0f169dd0bae4b1145d376",
    "c23/v_0011.json": "d8418e627a2dc7feace323bcdae5e5d296febf4bbb82a5575fc88ce0ee0b60c8",
    "c23/v_0012.json": "108c61ea87bef58342f7483a369b730778643e6160c50dae40f0a776b7031905",
    "c23/v_0013.json": "48f447a4a7432a5f2c60ca11f74192aedc48bdc8900ce4488d66e993fbc53e37",
    "c23/v_0014.json": "d9299569a9d9f4d7c3d620f08530a0e6de1c985a730cd6b35de647797b1ca276",
    "c23/v_0015.json": "308a00a252b385d9bf54923b0b6cbce3b5dc69af6da1dcdc1725194b398a708d",
    "c23/v_0016.json": "614887842aac23c5b553068a027bdfb44f5a624f1e672f602771116d183c2f19",
    "c23/v_0017.json": "2f68290d984a2a3246f8ad5f13776be68edaaa74a4ce75784da9e07bffc5b3a6",
    "c23/v_0018.json": "973e13a8e2f27fe3a2838199c62335aeb53fa6f07358164c6c0037afb6b58c88",
    "c23/v_0019.json": "3da96d3712153f25191dbc50d7da7cd8b3ad331da3afc73131cde63b22a912d3",
    "c23/v_0020.json": "7e69e4287cc9c9b066bc56d4abbb60dc51dfb41548e85ac88db1edf4ab2f3db4",
}


def test_example45_files_are_pinned(tmp_path):
    for name, spec in (("c2", ["--c2", "1"]), ("c23", ["--coeffs", "2=0.93,3=-0.6"])):
        assert run(["fixtures", "example45", *spec, "--count", "20", "--out", str(tmp_path / name)]) == 0
    got = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*/*"))}
    assert sorted(got) == sorted(EX45_SHA256)
    assert [name for name in sorted(got) if got[name] != EX45_SHA256[name]] == []


def test_main_builds_its_parser_once(monkeypatch):
    """Stages run in one process share one parser: two ``main`` calls
    construct the root ``ArgumentParser`` once."""
    roots = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            if kwargs.get("prog") == "grashof-expand":
                roots.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=Counting))
    cli.build_parser.cache_clear()
    try:
        assert run(["no-such-command"]) == 2
        assert run(["fixtures", "--help"]) == 0
    finally:
        cli.build_parser.cache_clear()  # later tests build a plain parser again
    assert len(roots) == 1


def test_main_runs_the_stage_function_bound_at_call_time(monkeypatch, tmp_path):
    """A ``cmd_*`` replaced after the shared parser was built is the one that
    runs, as wrappers that time the stages expect."""
    assert run(["fixtures", "example45", "--count", "2", "--out", str(tmp_path / "fx")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_fixtures", lambda args: seen.append(args.family) or 0)
    assert run(["fixtures", "example314", "--out", str(tmp_path / "unwritten")]) == 0
    assert seen == ["example314"]
    assert sorted(os.listdir(tmp_path)) == ["fx"]


def test_shared_parser_keeps_no_flag_from_an_earlier_call(tmp_path):
    """With no --c2, ``fixtures example45`` writes the c_2 = 1 files, also right
    after a call with --c2 0.7 in the same process."""
    assert run(["fixtures", "example45", "--c2", "0.7", "--count", "3",
                "--out", str(tmp_path / "c07")]) == 0
    assert run(["fixtures", "example45", "--count", "20", "--out", str(tmp_path / "c2")]) == 0
    got = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("c2/*"))}
    assert got == {name: digest for name, digest in EX45_SHA256.items() if name.startswith("c2/")}


@pytest.mark.parametrize("argv", [
    ["fixtures", "example45", "--c2", "0.7", "--coeffs", "2=1", "--out", "unwritten"],
    ["classify", "--expansion", "x.json", "--manifest", "m.json", "--slope-tol", "0.2",
     "--out", "unwritten.json"],
], ids=["usage-error", "unknown-flag"])
def test_usage_error_after_a_stage_reads_as_in_a_fresh_process(argv, tmp_path, capsys,
                                                               monkeypatch):
    """A usage error exits 2 with the same standard error after a successful
    call in the same process as in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    monkeypatch.chdir(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    alone = subprocess.run([sys.executable, "-m", "grashof_expand.cli", *argv],
                           capture_output=True, env=env)
    assert alone.returncode == 2
    assert run(["fixtures", "example45", "--count", "2", "--out", "fx"]) == 0
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == alone.stderr.decode()
    assert sorted(os.listdir(tmp_path)) == ["fx"]


@pytest.fixture(scope="module")
def ab():
    """``tools/ab.py``, the A/B harness, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
    spec = importlib.util.spec_from_file_location("ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten parent runs of 1.00 ... 1.09 s: median 1.045, interquartile range 0.045
AB_PARENT = [1.0 + 0.01 * i for i in range(10)]


def verdict(ab, parent, change, bound, better="lower"):
    return ab.verdict(ab.tally(parent, change, better), bound, better)


def test_ab_verdict_improved_needs_nine_wins_in_ten_and_a_gap_past_the_spread(ab):
    lost_one = [p - 0.2 for p in AB_PARENT[:9]] + [AB_PARENT[9] + 0.01]
    assert verdict(ab, AB_PARENT, lost_one, 0.25) == "improved"
    # 8 wins in 10 never improve, however large the gap
    lost_two = [p - 0.5 for p in AB_PARENT[:8]] + [p + 0.01 for p in AB_PARENT[8:]]
    assert verdict(ab, AB_PARENT, lost_two, 0.25) == "unchanged"
    # nor do fewer than 10 pairs, all won
    assert verdict(ab, AB_PARENT[:9], [p - 0.5 for p in AB_PARENT[:9]], 0.25) == "unchanged"
    # every pair won, but by less than the parent's interquartile range
    assert verdict(ab, AB_PARENT, [p - 0.01 for p in AB_PARENT], 0.25) == "unchanged"
    # a metric where higher is better wins by being higher
    assert verdict(ab, AB_PARENT, [p + 0.2 for p in AB_PARENT], 0.25, "higher") == "improved"


def test_ab_verdict_worse_past_the_bound(ab):
    assert verdict(ab, AB_PARENT, [1.4 * p for p in AB_PARENT], 0.25) == "worse"
    assert verdict(ab, AB_PARENT, [1.2 * p for p in AB_PARENT], 0.25) == "unchanged"
    assert verdict(ab, AB_PARENT, [0.6 * p for p in AB_PARENT], 0.25, "higher") == "worse"


def test_ab_verdict_unresolved_on_a_wide_parent_spread(ab):
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.5]
    assert verdict(ab, wide, list(reversed(wide)), 0.25) == "unresolved"
    # unless every change run beats every parent run (4 pairs are too few to improve)
    assert verdict(ab, wide[:4], [0.5, 0.55, 0.4, 0.3], 0.25) == "unchanged"


# sha256 of every file that the README example45 pipeline writes past its
# fixtures (``extract --scale default-2dp --depth 6``, ``classify`` and
# ``report``; the fixtures are c2/ in EX45_SHA256), and of the text that
# ``verify`` prints, recorded with numpy 2.4.6 on x86_64 (OpenBLAS).
README_PIPELINE_SHA256 = {
    "class.json": "156278288ca0e01af5110e1e5b644c495a575abdb90c0b4f1a53860ee7729ab5",
    "exp/expansion.json": "e26d8678912c585c5875165a65e2bfc1a7ec57a077ac5da30071ddb3947e9ace",
    "exp/expansion.npy": "b8426e7ed67d37142b545be6d608980f697ee0428a8d550e0a491d4d7cba906b",
    "report/residuals.csv": "7ced5cb3501f8f26fd0bc63be4258ad726f6869236e9edf7662f08c63e1bfa65",
    "report/series.csv": "785d22f58b6b87dde21b35d22a19e527d62893936518d4ee8a5bc9aef1c16be3",
    "report/summary.txt": "2f8ab44199bff5c44d655135184a824b1f3db2a410e6aadc5a9edbf736af6e89",
}
README_VERIFY_STDOUT_SHA256 = "cc597412b8aeb44326a370b8132aec4fc4eb28b41e940cc37e6b55423340ffb7"


def test_readme_pipeline_files_are_pinned(tmp_path, capsys):
    fx, exp = str(tmp_path / "fx"), str(tmp_path / "exp")
    man, expf, cls = f"{fx}/manifest.json", f"{exp}/expansion.json", str(tmp_path / "class.json")
    assert run(["fixtures", "example45", "--c2", "1", "--count", "20", "--out", fx]) == 0
    assert run(["extract", "--manifest", man, "--scale", "default-2dp", "--depth", "6",
                "--out", exp]) == 0
    capsys.readouterr()
    assert run(["verify", "--expansion", expf, "--manifest", man]) == 0
    verify_out = capsys.readouterr().out.encode()
    assert run(["classify", "--expansion", expf, "--manifest", man, "--out", cls]) == 0
    assert run(["report", "--manifest", man, "--expansion", expf, "--classification", cls,
                "--out", str(tmp_path / "report")]) == 0
    assert hashlib.sha256(verify_out).hexdigest() == README_VERIFY_STDOUT_SHA256
    want = {**README_PIPELINE_SHA256, **{"fx/" + name[3:]: digest for name, digest
                                         in EX45_SHA256.items() if name.startswith("c2/")}}
    got = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert sorted(got) == sorted(want)
    assert [name for name in sorted(got) if got[name] != want[name]] == []


# sha256 of every file that the README sweep writes, ``sweep --force
# <README g_limit> --alpha-factor 2 --count 12`` at ``--truncation`` 8 and 16
# (n8/ and n16/), recorded with numpy 2.4.6 on x86_64 (OpenBLAS, one thread:
# the LU rounds by the thread count). The solutions carry the Newton
# iterates' bits, so any change to the Jacobian's arithmetic or layout moves
# them.
SWEEP_README_SHA256 = {
    "n16/g_limit.json": "e87c5a685c391b3d5b8bc4b5f78856d4b1661c5e56a36811168495bce23f2739",
    "n16/manifest.json": "bca82d5c28759729bed7e796b388566feff3cf377880123002e3f9684daae774",
    "n16/solution_0001.json": "88cb64dd13b58b7e59d81db148f175a229227176a4dcbc73263817a03c8cbc7b",
    "n16/solution_0002.json": "e02bb2a745c828aa34c1b1033d730961a2f4eb90d3fa9513c60fe607c2668628",
    "n16/solution_0003.json": "0b66d1ce11402c01cf82b7187f2ecbf1ca4de97c08724ffa4040589139524dbd",
    "n16/solution_0004.json": "aa777924b241011662e4c0320784e01ce19ee6af47361231c139da773727f93d",
    "n16/solution_0005.json": "e926de4d9a62ca69c0d458c97ae8a7a4529a159c41d3951f75ce044d0a6eae20",
    "n16/solution_0006.json": "7a23e22de081cc8f1b4085a4d3436452c80eb298091210753a37bac0b153972c",
    "n16/solution_0007.json": "92cedda920d5f06e8e4d785b595dd56a4771920e014565c6ececce24dc9b8cc0",
    "n16/solution_0008.json": "cce39bc69a6d4985fc958e4c47fae76956f3e42c50107679d778d398dfab0e4d",
    "n16/solution_0009.json": "a8d2994e213ee605fafb91c91661838981c8c8a1033ae3da0817cd3726b2471c",
    "n16/solution_0010.json": "2e814138f0a3007f305931412124089b7533c89d36596f52152a7e7ceeb08a20",
    "n16/solution_0011.json": "4dba1b5a5afdfd1e00ca95a584a88958973383c8be3067cab8ce963fccf96e32",
    "n16/solution_0012.json": "4b175a5bd78523237e58db474978467d0ca6f474319997327cff92b2a8d1851c",
    "n8/g_limit.json": "e87c5a685c391b3d5b8bc4b5f78856d4b1661c5e56a36811168495bce23f2739",
    "n8/manifest.json": "a494c26bdc93966c8a66c2925752fb2ed483d54720a7af883b83218c8803658d",
    "n8/solution_0001.json": "ee6d2470fd3c09805862a1b477b3415192571b3e6374330149f6507694c1c208",
    "n8/solution_0002.json": "57c3842d9b28e59794cb4ea1f3f8655ee1940230b9b4467bd84e00084efd4a67",
    "n8/solution_0003.json": "805dfb7e589faed05c1db0481cad90b24f50b587db168f60893a2bcbf4ad212c",
    "n8/solution_0004.json": "7356e8bbf998f33c15dff05ab63acef2cf37e13d64d52877f92d58289092c519",
    "n8/solution_0005.json": "f50ea0e760b8a29cebdcf83a8c531f65a9060dc24aa4211abd872557e191c62e",
    "n8/solution_0006.json": "68d7781a8d2cc111977bae3d11ddbae90fa7b58e480fa38d64948464a96af148",
    "n8/solution_0007.json": "6b46dfab7cf09ae72941e080aa72122e1fa5652dcaba6d03df4dfdd83fd0d27c",
    "n8/solution_0008.json": "72416edf385323557837e0cabf2ecb77d44aded4ad289b5755e9827b595b7b98",
    "n8/solution_0009.json": "fcaee755aedc16e742e28e99ba4dcb819ea8e7470d7eb5988e3d40f75da9bdfe",
    "n8/solution_0010.json": "043c9bd5b16d956749d78d09f6dd29ba5d698cfe606152357dd58d9404acace6",
    "n8/solution_0011.json": "c2a587eceb7cc0832179fe1652eb76699419f26079e0229aa325f7c42238dd0e",
    "n8/solution_0012.json": "d73312d5b527a59cb69d91dac5a0fa2b403fd3a2ebd7a4286a69e28e3d0c8628",
}


def test_readme_sweep_files_are_pinned(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fx = str(tmp_path / "fx")
    stages = [["fixtures", "example45", "--c2", "1", "--count", "20", "--out", fx]]
    stages += [["sweep", "--force", f"{fx}/g_limit.json", "--alpha-factor", "2", "--count", "12",
                "--truncation", str(n), "--out", str(tmp_path / f"n{n}")] for n in (8, 16)]
    for argv in stages:
        done = subprocess.run([sys.executable, "-m", "grashof_expand.cli", *argv],
                              capture_output=True, env=env)
        assert done.returncode == 0, done.stderr.decode()
    got = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file() and p.parts[-2] != "fx"}
    assert sorted(got) == sorted(SWEEP_README_SHA256)
    assert [name for name in sorted(got) if got[name] != SWEEP_README_SHA256[name]] == []
