"""CLI pipeline tests: subcommands, exit codes, deterministic artifacts."""

import argparse
import dataclasses
import fnmatch
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from grashof_expand import cli
from grashof_expand import expansion as ex
from grashof_expand import fieldio
from grashof_expand import orders as od
from grashof_expand import seqlimit
from grashof_expand import spectral as sp


def run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """fixtures -> extract -> classify -> report, shared by several tests, and
    beside it (exp314) an expansion of example314 at T = 64 (constant:0, depth 3)."""
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
    assert run(["fixtures", "example314", "--count", "6", "--truncation", "64",
                "--out", str(root / "fx314")]) == 0
    assert run(["extract", "--manifest", str(root / "fx314" / "manifest.json"),
                "--scale", "constant:0", "--depth", "3", "--out", str(root / "exp314")]) == 0
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


def test_extract_constant_scale_cli(pipeline):
    forms, alphas = ex.load_expansion(pipeline / "exp314" / "expansion.json")
    assert set(forms) == {"strict", "restructured", "unitary"}
    assert len(alphas) == 6


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


def test_failed_fixture_check_creates_no_out(tmp_path, capsys, monkeypatch):
    """A fixture that fails its own check exits 1 and leaves no --out behind."""
    def failing(*args):
        raise cli.fx.FixtureIntegrityError("example45 n=3: reconstruction check failed")

    monkeypatch.setattr(cli.fx, "example45_window", failing)
    out = tmp_path / "fx"
    assert run(["fixtures", "example45", "--out", str(out)]) == 1
    assert "n=3: reconstruction check failed" in capsys.readouterr().err
    assert not out.exists()


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
def doubling_sweep(pipeline):
    """The README doubling sweep at N = 8: alpha = 1, 2, ..., 2048 on the example45 g_limit."""
    assert run(["sweep", "--force", str(pipeline / "fx" / "g_limit.json"), "--alpha-start", "1",
                "--alpha-factor", "2", "--count", "12", "--truncation", "8",
                "--out", str(pipeline / "sweep")]) == 0
    return pipeline / "sweep"


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


def test_extract_constant_manifest_gives_trivial(tmp_path, capsys):
    # laminar sweep: identical solutions at every alpha -> trivial expansion
    import conftest

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


def test_extract_writes_index_and_matrix(pipeline):
    for name in ("exp", "exp314"):
        assert sorted(os.listdir(pipeline / name)) == ["expansion.json", "expansion.npy"]


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


def test_classify_reads_no_window_files(pipeline, tmp_path):
    fxdir = tmp_path / "fx"  # the README window's manifest and forces, no v_*.json
    shutil.copytree(pipeline / "fx", fxdir, ignore=shutil.ignore_patterns("v_*"))
    cls = str(tmp_path / "class.json")
    assert run(["classify", "--expansion", str(pipeline / "exp" / "expansion.json"),
                "--manifest", str(fxdir / "manifest.json"), "--out", cls]) == 0
    assert fieldio.read_json(cls)["branch"] == "4.4(iii)(a)"


# ---------------------------------------------------------------------------
# Failure paths: one table, one runner
# ---------------------------------------------------------------------------


class Case(NamedTuple):
    """A stage run and what it must give. ``argv`` is split on spaces once its
    placeholders are filled: {fx}, {exp} and {cls} are the pipeline's window,
    expansion and classification, {exp314} the example314 expansion and {tmp}
    the row's temp dir. ``edit`` first changes one file: (file, JSON keys, JSON
    text, or None to delete the value) or (file, damage), where ``damage(path)``
    rewrites it. The run exits ``code`` with ``words`` on stderr ({file} is the
    edited file) and, where ``quiet``, nothing on stdout; unless it exits 0,
    nothing under {tmp} is new or written anew."""
    argv: str
    code: int
    words: str
    edit: tuple = ()
    quiet: bool = True


def _set_json(path, keys, text):
    """Set the value at ``keys`` of the JSON document ``path`` to the JSON ``text``
    (the whole document where ``keys`` is empty), or delete it where ``text`` is None."""
    if keys:
        doc = holder = json.loads(path.read_text())
        *parents, last = keys
        for key in parents:
            holder = holder[key]
        if text is None:
            del holder[last]
        else:
            holder[last] = "@"
        text = json.dumps(doc) if text is None else json.dumps(doc).replace('"@"', text)
    path.write_text(text)


def _json(edit):
    """The damage that applies ``edit`` to the parsed document in place."""
    def damage(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return damage


def _swap(key, i, j, field=None):
    """Swap items ``i`` and ``j`` of the list ``key`` (their ``field`` only, if given)."""
    def edit(doc):
        a, b = doc[key][i], doc[key][j]
        if field is None:
            doc[key][i], doc[key][j] = b, a
        else:
            a[field], b[field] = b[field], a[field]
    return _json(edit)


def _strip_forces(doc):
    doc.pop("g_limit")
    for entry in doc["entries"]:
        entry.pop("force")


def _two_bad_files(path):
    """k . c != 0 at the last mode of ``path``, and a later window file that is not JSON."""
    _set_json(path, ("modes", 1, "c", 0, 0), "2.0")  # k = (2, 0)
    fieldio.atomic_write(path.parent / "v_0012.json", '{"truncation": 2, "modes": [')


def _two_mode_force(path):
    """The ``--coeffs 2=1.27,3=0.9`` forcing, whose doubling sweep stalls at index 10."""
    cfg = cli.fx.Example45Config(coeffs=((2, 1.27), (3, 0.9)))
    fieldio.write_field(path, cli.fx.example45_window(cfg, [1])[-1].g)


def _matrix_add(row, part, value):
    """Add ``value`` to part ``part`` (re1, im1, re2, im2) of mode 0, (0, 1), in ``row``."""
    def damage(path):
        rows = np.load(path, allow_pickle=False)
        rows[row, 0, part] += value
        np.save(path, rows)
    return damage


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


EXTRACT = "extract --manifest {fx}/manifest.json --out {tmp}/out"
VERIFY = "verify --expansion {exp}/expansion.json --manifest {fx}/manifest.json"
CLASSIFY = "classify --expansion {exp}/expansion.json --manifest {fx}/manifest.json --out {tmp}/out"
REPORT = ("report --manifest {fx}/manifest.json --expansion {exp}/expansion.json "
          "--classification {cls} --out {tmp}/out")
SWEEP = "sweep --force {fx}/g_limit.json"
EX314 = "fixtures example314 --count 6 --truncation 16"
NOT_ONE = "must be an int of at least 1; got '0'"
MAN, FIELD, INDEX = "{fx}/manifest.json", "{fx}/v_0003.json", "{exp}/expansion.json"
MATRIX, UNITARY_GAMMAS = "{exp}/expansion.npy", ("forms", "unitary", "terms", 0, "gammas")
NOT_GAMMAS = "{file}: form unitary: term 1: 'gammas' is not a list of 20 positive finite numbers"
AVAILABLE = "available: ['restructured', 'strict', 'unitary']"
SWAPPED = "alphas must be strictly increasing: sample 17 has alpha 292.26606400769174 after " \
          "310.5285959771229"
KINDS = "'kind' is not one of trivial, finite-unitary, infinite-unitary, degenerate, strict"
NO_G_LIMIT = "manifest carries no g_limit to classify against"
NOT_IN_ORDER = "is not a conjugate representative in increasing order"
# The README expansion's forms own the matrix rows strict [0, 127), restructured
# [127, 254) and unitary [254, 297): the limit, then per term the direction and
# the 20 witnesses. Mode 0 is (0, 1), where k . c is the second component.
DIVERGENCE = "divergence-free condition violated at mode (0, 1)"

CASES = {
    # The parser holds the flag rules: exit 2 naming the flag.
    "no-such-command": Case("no-such-command", 2, "invalid choice: 'no-such-command'"),
    "unknown-flag": Case("sweep --force g.json --unknown-flag 1 --out {tmp}/out", 2,
                         "unrecognized arguments: --unknown-flag 1"),
    "slope-tol": Case(CLASSIFY + " --slope-tol 0.2", 2, "unrecognized arguments: --slope-tol"),
    "extract-tail": Case(EXTRACT + " --tail 3", 2, "unrecognized arguments: --tail 3"),
    **{f"count-0-{name}": Case(f"{argv} --count 0 --out {{tmp}}/out", 2,
                               f"argument --count: {NOT_ONE}")
       for name, argv in (("example45", "fixtures example45"),
                          ("example314", "fixtures example314 --with-expansions"),
                          ("sweep", "sweep --force {tmp}/g.json"))},
    "depth-0": Case(EXTRACT + " --depth 0", 2, f"argument --depth: {NOT_ONE}"),
    "c2-then-coeffs": Case("fixtures example45 --c2 0.7 --coeffs 2=1 --out {tmp}/out", 2,
                           "argument --coeffs: not allowed with argument --c2"),
    "coeffs-then-c2": Case("fixtures example45 --coeffs 2=1 --c2 0.7 --out {tmp}/out", 2,
                           "argument --c2: not allowed with argument --coeffs"),
    "expansions-on-example45": Case("fixtures example45 --with-expansions --out {tmp}/out", 2,
                                    "unrecognized arguments: --with-expansions"),
    "truncation-on-example45": Case("fixtures example45 --truncation 5 --out {tmp}/out", 2,
                                    "unrecognized arguments: --truncation 5"),
    "coeffs-on-example314": Case(EX314 + " --coeffs 2=5 --out {tmp}/out", 2,
                                 "unrecognized arguments: --coeffs 2=5"),
    "c2-on-example314": Case(EX314 + " --c2 0.7 --out {tmp}/out", 2,
                             "unrecognized arguments: --c2 0.7"),
    "unknown-family": Case("fixtures example46 --out {tmp}/out", 2,
                           "argument family: invalid choice: 'example46'"),
    "no-force-source": Case("sweep --out {tmp}/out", 2,
                            "one of the arguments --force --fixture is required"),
    "force-and-fixture": Case("sweep --force g.json --fixture example45 --out {tmp}/out", 2,
                              "argument --fixture: not allowed with argument --force"),
    "fixture-and-force": Case("sweep --fixture example45 --force g.json --out {tmp}/out", 2,
                              "argument --force: not allowed with argument --fixture"),
    "unknown-fixture": Case("sweep --fixture other --out {tmp}/out", 2,
                            "argument --fixture: invalid choice: 'other'"),
    "with-fixture": Case(SWEEP + " --fixture example45 --out {tmp}/out", 2,
                         "argument --fixture: not allowed with argument --force"),
    # A flag that this use of the stage does not read.
    "cstar-coeffs": Case(SWEEP + " --cstar-coeffs 2=5 --out {tmp}/out", 2,
                         "--cstar-coeffs needs --fixture example45"),
    **{f"{flag}-with-fixture": Case(f"sweep --fixture example45 --{flag} 7 --out {{tmp}}/out",
                                    2, f"--{flag} is for --force only")
       for flag in ("alpha-start", "alpha-factor")},
    # example314 is defined for n = 1..6 (not the default --count 20) and T >= 16.
    "example314-count-7": Case("fixtures example314 --count 7 --out {tmp}/out", 2,
                               "example314 is defined for 1 <= n <= 6"),
    "example314-default-count": Case("fixtures example314 --out {tmp}/out", 2,
                                     "example314 is defined for 1 <= n <= 6"),
    "example314-truncation-8": Case(
        "fixtures example314 --count 6 --truncation 8 --out {tmp}/out", 2,
        "need at least 16 eigenmodes"),
    # example45's c_m are finite and nonzero, each m >= 2 given once, in both stages.
    **{f"{stage}-coeffs-{name}": Case(f"{argv} --out {{tmp}}/out", 2, words)
       for name, flags, coeffs, words in (
           ("nan", "--coeffs 2=nan", "2=nan", "c_2 = nan"),
           ("inf", "--c2 inf", "2=inf", "c_2 = inf"),
           ("zero", "--c2 0", "2=0", "c_2 = 0.0 must be finite and nonzero"),
           ("zero-c3", "--coeffs 2=1,3=0", "2=1,3=0", "c_3 = 0.0"),
           ("twice", "--coeffs 2=1,2=3", "2=1,2=3", "c_2 is given more than once"),
           ("m-1", "--coeffs 1=1", "1=1", "coefficients start at m = 2; got m = 1"),
           ("colon", "--coeffs 2:1", "2:1", "bad coefficient entry '2:1'"),
           # a closed form that would underflow (1 / |w_2|) or overflow (alpha_n)
           ("underflow", "--c2 1e-300", "2=1e-300",
            "c_2 = 1e-300 must be finite and nonzero, with m^2 |c_m| in [2^-256, 2^256]"),
           ("overflow", "--coeffs 2=1e308", "2=1e308", "c_2 = 1e+308 must be finite"),
           ("empty", "--coeffs ,", ",", "empty coefficient list"))
       for stage, argv in (
           ("fixtures", f"fixtures example45 {flags}"),
           ("sweep", f"sweep --fixture example45 --cstar-coeffs {coeffs} --count 2"))},
    # --scale specs that NestedScale rejects.
    **{f"scale-{spec}": Case(f"{EXTRACT} --scale {spec}", 2, words) for spec, words in (
        ("constant:abc", "bad scale spec"), ("0.7,abc", "bad scale spec"),
        ("0.7", "scale needs at least two exponents"), ("0.6,0.7", "strictly decreasing"),
        ("0.9,0.3", "general scale exponents must lie in (0.0, 0.5)"),
        ("constant:inf", "scale exponents must be finite"),
        ("constant:nan", "scale exponents must be finite"),
        ("0.9,nan", "scale exponents must be finite"))},
    # Sweep alphas are finite, nonnegative and strictly increasing, and the
    # truncation covers the force: checked before any solve.
    **{name: Case(f"{SWEEP} {flags} --out {{tmp}}/out", 2, words) for name, flags, words in (
        ("factor-1", "--alpha-factor 1", "alphas must be strictly increasing"),
        ("factor-half", "--alpha-factor 0.5", "alphas must be strictly increasing"),
        ("start-0", "--alpha-start 0", "alphas must be strictly increasing"),
        ("start-negative", "--alpha-start -1",
         "sweep index 0: alpha -1.0 must be finite and nonnegative"),
        ("start-nan", "--alpha-start nan", "sweep index 0: alpha nan must be finite"),
        ("factor-inf", "--alpha-factor inf", "sweep index 1: alpha inf must be finite"),
        ("truncation-1", "--truncation 1",
         "sweep index 0: truncation radius 1 must cover the forcing modes"))},
    # A sweep that breaks inside Newton exits 1.
    "sweep-stalls": Case(SWEEP + " --alpha-factor 100 --count 4 --out {tmp}/out", 1,
                         "sweep failed at index 1: Newton stalled"),
    "two-mode-sweep-stalls": Case(
        SWEEP + " --alpha-factor 2 --count 12 --truncation 8 --out {tmp}/out", 1,
        "sweep failed at index 10", ("{fx}/g_limit.json", _two_mode_force)),
    # Inputs and outputs that cannot be opened are named.
    "missing-inputs": Case(
        "report --manifest {tmp}/missing.json --expansion {tmp}/missing2.json --out {tmp}/out",
        2, "No such file or directory: '{tmp}/missing.json'"),
    "dir-as-manifest": Case("extract --manifest {fx} --out {tmp}/out", 2,
                            "usage error: [Errno 21] Is a directory: '{fx}'"),
    "dir-as-expansion": Case("verify --expansion {exp} --manifest {fx}/manifest.json", 2,
                             "usage error: [Errno 21] Is a directory: '{exp}'"),
    "file-as-extract-out": Case("extract --manifest {fx}/manifest.json --out {tmp}/file", 2,
                                "usage error: [Errno 17] File exists: '{tmp}/file'",
                                ("{tmp}/file", Path.touch)),
    "file-as-fixtures-out": Case("fixtures example45 --count 2 --out {tmp}/file", 2,
                                 "usage error: [Errno 17] File exists: '{tmp}/file'",
                                 ("{tmp}/file", Path.touch)),
    # Manifests.
    "manifest-not-json": Case(EXTRACT, 2, "{file}: not valid JSON", (MAN, (), '{"entries": [')),
    "null": Case(EXTRACT, 2, "{file}: manifest has no entries list", (MAN, (), "null")),
    "number": Case(EXTRACT, 2, "{file}: manifest has no entries list", (MAN, (), "5")),
    "no-entries": Case(EXTRACT, 2, "{file}: manifest has no entries list",
                       (MAN, ("entries",), None)),
    "no-alpha": Case(EXTRACT, 2, "{file}: malformed manifest entry ('alpha')",
                     (MAN, ("entries", 4, "alpha"), None)),
    "force-not-a-path": Case(EXTRACT, 2, "{file}: malformed manifest entry (",
                             (MAN, ("entries", 4, "force"), "7")),
    "g-limit-not-a-path": Case(EXTRACT, 2, "{file}: malformed g_limit (",
                               (MAN, ("g_limit",), "7")),
    "alpha-nan": Case(EXTRACT, 2, "{file}: not valid JSON (NaN is not a JSON number)",
                      (MAN, ("entries", 0, "alpha"), "NaN")),
    "residual-infinity": Case(EXTRACT, 2, "{file}: not valid JSON (Infinity is not a JSON number)",
                              (MAN, ("entries", 0, "residual_H"), "Infinity")),
    "alpha-overflow": Case(EXTRACT, 2, "{file}: malformed manifest entry (entries[2]: alpha, "
                           "residual_H and bound_check must be finite)",
                           (MAN, ("entries", 2, "alpha"), "1e400")),
    **{name: Case(EXTRACT, 2, f"usage error: {{file}}: malformed manifest entry ({words})",
                  (MAN, keys, text)) for name, keys, text, words in (
        ("alpha-string", ("entries", 2, "alpha"), '"292.27"', "entries[2].alpha: not a number"),
        ("alpha-string-first", ("entries", 0, "alpha"), '"18.8"',
         "entries[0].alpha: not a number"),
        ("n-fraction", ("entries", 2, "n"), "2.7", "entries[2].n: not an integer"),
        ("n-true", ("entries", 0, "n"), "true", "entries[0].n: not an integer"),
        ("n-string", ("entries", 2, "n"), '"3"', "entries[2].n: not an integer"),
        ("residual-string", ("entries", 0, "residual_H"), '"0"',
         "entries[0].residual_H: not a number"))},
    **{f"misordered-alphas-{stage}": Case(argv, 1, SWAPPED,
                                          (MAN, _swap("entries", 15, 16, "alpha")))
       for stage, argv in (("extract", EXTRACT), ("verify", VERIFY), ("report", REPORT))},
    "window-of-3": Case(EXTRACT, 1, "extraction window must contain at least 6 samples",
                        (MAN, _json(lambda doc: doc.update(entries=doc["entries"][:3])))),
    "classify-without-g-limit": Case(CLASSIFY, 2, f"{{file}}: {NO_G_LIMIT}",
                                     (MAN, ("g_limit",), None)),
    "classify-without-any-force": Case(CLASSIFY, 2, f"{{file}}: {NO_G_LIMIT}",
                                       (MAN, _json(_strip_forces))),
    "classify-zero-g-limit": Case(CLASSIFY, 2, "usage error: {file}: forcing g must be nonzero",
                                  ("{fx}/g_limit.json", ("modes",), "[]")),
    # Field files: the first bad one in manifest order is named.
    **{name: Case(EXTRACT, 2, f"usage error: {{file}}: malformed field file ({words})",
                  (FIELD, keys, text)) for name, keys, text, words in (
        ("wavevector-fraction", ("modes", 1, "k", 0), "2.5", "'k': not an integer"),
        ("wavevector-true", ("modes", 0, "k", 1), "true", "'k': not an integer"),
        ("coefficient-string", ("modes", 0, "c", 0, 0), '"0"', "'c': not a number"),
        ("coefficient-true", ("modes", 0, "c", 0, 0), "true", "'c': not a number"),
        ("truncation-fraction", ("truncation",), "2.9", "'truncation': not an integer"),
        ("truncation-string", ("truncation",), '"2"', "'truncation': not an integer"),
        ("truncation-true", ("truncation",), "true", "'truncation': not an integer"))},
    "coefficient-nan": Case(EXTRACT, 2, "{file}: not valid JSON (NaN is not a JSON number)",
                            ("{fx}/v_0007.json", ("modes", 1, "c", 1, 1), "NaN")),
    "coefficient-overflow": Case(EXTRACT, 1, "{file}: non-finite coefficient at mode (2, 0)",
                                 ("{fx}/v_0007.json", ("modes", 1, "c", 1, 1), "1e400")),
    "field-not-divergence-free": Case(EXTRACT, 1, f"error: {{file}}: {DIVERGENCE}",
                                      ("{fx}/v_0007.json", ("modes", 0, "c", 1, 0), "1.0")),
    "two-bad-field-files": Case(
        EXTRACT, 1, "{file}: divergence-free condition violated at mode (2, 0)",
        ("{fx}/v_0007.json", _two_bad_files)),
    "out-of-order": Case(EXTRACT, 1, f"error: {{file}}: mode (0, 1) {NOT_IN_ORDER}",
                         (FIELD, _swap("modes", 0, 1))),
    "zero-mode": Case(EXTRACT, 1, f"error: {{file}}: mode (0, 0) {NOT_IN_ORDER}",
                      (FIELD, _json(lambda doc: doc["modes"].insert(
                          0, {"k": [0, 0], "c": [[1.0, 0.0], [0.0, 0.0]]})))),
    # Expansion indexes, named by each stage that reads one.
    **{f"{stage}-{name}": Case(argv.replace(INDEX, expansion), 2, words, edit)
       for stage, argv in (("verify", VERIFY), ("classify", CLASSIFY),
                           ("report", REPORT.replace(" --classification {cls}", "")))
       for name, expansion, words, edit in (
           ("manifest-as-expansion", MAN, f"{MAN}: not an expansion file of schema "
            "grashof-expand/expansion-v5 (found schema None)", ()),
           ("no-forms", INDEX, "{file}: expansion file holds no forms",
            (INDEX, ("forms",), "{}")))},
    "classify-unknown-form": Case(CLASSIFY + " --form nosuch", 2, AVAILABLE),
    "verify-unknown-form": Case(VERIFY + " --form nosuch", 2, AVAILABLE),
    "index-not-json": Case(VERIFY, 2, "{file}: not valid JSON", (INDEX, (), '{"entries": [')),
    "modes-out-of-order": Case(VERIFY, 1, f"{{file}}: mode (0, 1) {NOT_IN_ORDER}",
                               (INDEX, _swap("modes", 0, 1))),
    "rows-do-not-tile": Case(VERIFY, 2, "{file}: form row offsets",
                             (INDEX, ("forms", "strict", "rows", 1), "126")),
    "no-estimator": Case(VERIFY, 2, "{file}: malformed expansion file (missing or bad 'estimator')",
                         (INDEX, UNITARY_GAMMAS[:-1] + ("estimator",), None)),
    "one-exponent": Case(
        VERIFY, 2, "{file}: form unitary: bad scale (scale needs at least two exponents)",
        (INDEX, ("forms", "unitary", "scale", "exponents"), "[0.5]")),
    "exponent-string": Case(
        VERIFY, 2, "{file}: form unitary: bad scale ('exponents': not a number)",
        (INDEX, ("forms", "unitary", "scale", "exponents", 1), '"0.5"')),
    "scale-shorter-than-terms": Case(
        VERIFY, 2, "{file}: form strict: scale of depth 5 is shorter than its 6 terms",
        (INDEX, ("forms", "strict", "scale", "exponents", 0), None)),
    # The index's alphas follow the window's rule, in every stage that reads them.
    **{f"{stage}-index-alphas-{name}": Case(argv, 2, f"usage error: {{file}}: {words}",
                                            (INDEX, ("alphas", 0), text))
       for stage, argv in (("verify", VERIFY), ("classify", CLASSIFY))
       for name, text, words in (
           ("negative", "-1", "alphas must be positive"),
           ("not-increasing", "1e9", "alphas must be strictly increasing: sample 2 has alpha "))},
    # JSON reads an overflowing alpha as infinity: refused by the same rule.
    **{f"{stage}-index-alpha-overflow": Case(argv, 2, "usage error: {file}: alphas must be finite",
                                             (INDEX, ("alphas", -1), "1e400"))
       for stage, argv in (("classify", CLASSIFY), ("report", REPORT))},
    "regime-not-its-exponents": Case(
        VERIFY, 2, "{file}: scale records regime 'general', but its exponents",
        (INDEX, ("forms", "strict", "scale", "regime"), '"general"')),
    **{f"forms-{name}": Case(VERIFY, 2, "{file}: expansion file holds no forms: 'forms' is no "
                             "nonempty object", (INDEX, ("forms",), text))
       for name, text in (("a-list", '["restructured", "strict", "unitary"]'),
                          ("empty-list", "[]"), ("a-string", '"unitary"'))},
    **{f"gammas-{name}": Case(VERIFY, 2, NOT_GAMMAS, (INDEX, UNITARY_GAMMAS + keys, text))
       for name, keys, text in (("null", (), "null"), ("a-number", (), "0.5"),
                                ("string-entry", (3,), '"x"'), ("null-entry", (3,), "null"),
                                ("overflowing-entry", (3,), "1e400"), ("zero-entry", (3,), "0"),
                                ("negative-entry", (3,), "-1e-3"),
                                ("subnormal-entry", (3,), "1e-320"))},
    # Every writer stores positive gammas: the index is refused before a stage
    # divides by one or compares it.
    **{f"{stage}-gammas-{name}": Case(argv, 2, NOT_GAMMAS, (INDEX, UNITARY_GAMMAS + (3,), text))
       for stage, argv, name, text in (("classify", CLASSIFY, "negative-entry", "-1e-3"),
                                       ("report", REPORT, "zero-entry", "0"))},
    "gammas-nan-entry": Case(VERIFY, 2, "{file}: not valid JSON (NaN is not a JSON number)",
                             (INDEX, UNITARY_GAMMAS + (3,), "NaN")),
    **{f"degenerate-n-{name}": Case(
        VERIFY, 2, "{file}: form unitary: 'degenerate_N' is not null or an int",
        (INDEX, ("forms", "unitary", "degenerate_N"), text))
       for name, text in (("string", '"1"'), ("list", "[1]"), ("negative", "-1"),
                          ("past-the-terms", "2"))},
    **{f"{key}-{name}": Case(VERIFY, 2, f"{{file}}: form strict: {words}",
                             (INDEX, ("forms", "strict", key), text))
       for key, words in (("form", "'form' is not one of strict, unitary"), ("kind", KINDS))
       for name, text in (("bogus", '"bogus"'), ("7", "7"), ("null", "null"))},
    **{name: Case(VERIFY, 2, f"usage error: {{file}}: malformed expansion file (missing or bad "
                  f"{words})", (INDEX, keys, text)) for name, keys, text, words in (
        ("alphas-string", ("alphas", 3), '"x"', "'alphas': not a number"),
        ("alphas-true", ("alphas", 3), "true", "'alphas': not a number"),
        ("truncations-string", ("truncations", 2), '"2"', "'truncations': not an integer"),
        ("truncations-fraction", ("truncations", 2), "2.5", "'truncations': not an integer"),
        ("truncations-true", ("truncations", 2), "true", "'truncations': not an integer"),
        ("modes-fraction", ("modes", 1, 0), "2.5", "'modes': not an integer"),
        ("modes-true", ("modes", 1, 0), "true", "'modes': not an integer"))},
    # The row matrix: a bad file names it, and a bad row names the form and the row.
    **{name: Case(VERIFY, 2, "usage error: {file}: malformed expansion matrix", (MATRIX, damage))
       for name, damage in (("wrong-dtype", _wrong_dtype), ("wrong-shape", _wrong_shape),
                            ("wrong-rows", _wrong_rows), ("truncated", _truncated),
                            ("object-array", _object_array))},
    **{f"term-row-{form}": Case(VERIFY, 1, f"error: {{file}}: form {form}: {where}: {DIVERGENCE}",
                                (MATRIX, _matrix_add(row, 2, 1.0)))
       for form, row, where in (("unitary", 254 + 1 + 3, "term 1: witness n=3"),
                                ("strict", 0, "limit"),
                                ("restructured", 127 + 1 + 21, "term 2: direction"))},
    "term-row-nan": Case(VERIFY, 1, "error: {file}: form unitary: term 1: witness n=3: non-finite "
                         "coefficient at mode (0, 1)",
                         (MATRIX, _matrix_add(254 + 1 + 3, 1, np.nan))),
    # An expansion of another window.
    **{f"{stage}-foreign-window": Case(argv.replace("{exp}", "{exp314}"), 1,
                                       "expansion carries modes outside the data window")
       for stage, argv in (("verify", VERIFY),
                           ("report", REPORT.replace(" --classification {cls}", "")))},
    # report checks the classification before it writes.
    **{f"classification-{name}": Case(REPORT, 2, f"{{file}}: classification {keys[0]!r} is not",
                                      ("{cls}", keys, text))
       for name, keys, text in (("no-branch", ("branch",), None),
                                ("branch-number", ("branch",), "7"),
                                ("constants-list", ("constants",), "[1, 2]"),
                                ("residual-string", ("residuals", "R1"), '"0.1"'),
                                ("warnings-string", ("warnings",), '"none"'))},
    "report-classification-overflow": Case(
        REPORT, 2, "{file}: classification 'residuals' is not an object of finite numbers",
        ("{cls}", ("residuals", "B(v,v)=0"), "1e400")),
    "classification-not-an-object": Case(REPORT, 2, "{file}: classification is not a JSON object",
                                         ("{cls}", (), "[]")),
    "classified-form-not-in-expansion": Case(
        REPORT, 2, f"{{file}}: classified form 'nosuch' is not in the expansion file; {AVAILABLE}",
        ("{cls}", ("form",), '"nosuch"')),
}


def _listing(root):
    """Every path under ``root`` with its inode and size: a file written anew has
    a new inode."""
    found, dirs = {}, [root]
    while dirs:
        with os.scandir(dirs.pop()) as entries:
            for entry in entries:
                found[entry.path] = entry.inode(), entry.stat(follow_symlinks=False).st_size
                if entry.is_dir(follow_symlinks=False):
                    dirs.append(entry.path)
    return found


def _run_case(case, pipeline, tmp, capsys):
    """Run ``case`` and check it. The pipeline's files are read in place, except
    that the directory holding the edited file is laid out under ``tmp`` as hard
    links (once: the probe reuses it, editing one file) and the edited file is a
    copy."""
    places = {"fx": pipeline / "fx", "exp": pipeline / "exp", "cls": pipeline / "class.json",
              "exp314": pipeline / "exp314", "tmp": tmp}
    edited = None
    if case.edit:
        source = Path(case.edit[0].format(**places))
        key = case.edit[0][1:case.edit[0].index("}")]
        if key != "tmp":
            original, places[key] = places[key], tmp / places[key].name
            if original.is_dir() and not places[key].exists():
                places[key].mkdir()
                for name in os.listdir(original):
                    os.link(original / name, places[key] / name)
        edited = Path(case.edit[0].format(**places))
        edited.unlink(missing_ok=True)
        if source.exists():
            shutil.copyfile(source, edited)
        if len(case.edit) == 2:
            case.edit[1](edited)
        else:
            _set_json(edited, *case.edit[1:])
    before = _listing(tmp)
    capsys.readouterr()
    code = cli.main(case.argv.format(**places).split())
    out, err = capsys.readouterr()
    assert code == case.code and case.words.format(file=edited, **places) in err, (case, code, err)
    assert out == "" or not case.quiet, (case, out)
    assert case.code == 0 or _listing(tmp) == before, case


def _check(pipeline, capsys, names):
    for name in names:
        tmp = pipeline / "cases" / name  # beside the pipeline's files, which the row reads
        tmp.mkdir(parents=True)
        _run_case(CASES[name], pipeline, tmp, capsys)


_NAMED = set()  # the rows that a test below runs


def _table_test(*rows, each=()):
    """A test that runs the ``CASES`` rows ``rows``, or one test per item of
    ``each``: a row, or (a dict) an id and its rows."""
    each = each if isinstance(each, dict) else {name: (name,) for name in each}
    _NAMED.update(rows, *each.values())
    if not each:
        def test(pipeline, capsys):
            _check(pipeline, capsys, rows)
        return test

    @pytest.mark.parametrize("names", list(each.values()), ids=list(each))
    def test_each(pipeline, capsys, names):
        _check(pipeline, capsys, names)
    return test_each


# The tests that the table replaced keep their ids, each running the rows that
# now hold its assertions.
test_usage_errors_exit_2 = _table_test(
    "missing-inputs", "no-such-command", "unknown-flag", "count-0-example45",
    "count-0-example314", "count-0-sweep", "scale-constant:abc", "scale-0.7,abc", "slope-tol",
    "alpha-start-with-fixture", "alpha-factor-with-fixture")
test_parser_holds_the_flag_rules = _table_test(each=(
    "c2-then-coeffs", "coeffs-then-c2", "expansions-on-example45", "truncation-on-example45",
    "coeffs-on-example314", "c2-on-example314", "unknown-family", "no-force-source",
    "force-and-fixture", "fixture-and-force", "unknown-fixture"))
test_example314_fixture_arguments_are_usage_errors = _table_test(
    "example314-count-7", "example314-default-count", "example314-truncation-8")
test_example45_coefficient_faults_are_usage_errors = _table_test(
    *(name for name in CASES if "-coeffs-" in name))
test_extract_scale_and_depth_faults_are_usage_errors = _table_test(
    "scale-0.7", "scale-0.6,0.7", "scale-0.9,0.3", "scale-constant:inf", "scale-constant:nan",
    "scale-0.9,nan", "depth-0")
test_sweep_argument_faults_are_usage_errors = _table_test(each=(
    "factor-1", "factor-half", "start-0", "start-negative", "start-nan", "factor-inf",
    "truncation-1", "with-fixture", "cstar-coeffs"))
test_failed_sweep_creates_no_out = _table_test("sweep-stalls")
test_verify_rejects_a_regime_its_exponents_do_not_give = _table_test("regime-not-its-exponents")
test_extract_tail_is_not_an_option = _table_test("extract-tail")
test_domain_error_exit_1 = _table_test("window-of-3")
test_non_expansion_file_exit_2 = _table_test(each={
    stage: (f"{stage}-manifest-as-expansion", f"{stage}-no-forms")
    for stage in ("verify", "classify", "report")})
test_classify_unknown_form_exit_2 = _table_test("classify-unknown-form")
test_verify_unknown_form_exit_2 = _table_test("verify-unknown-form")
test_report_on_foreign_window_exit_1 = _table_test("verify-foreign-window", "report-foreign-window")
test_misordered_alphas_are_rejected = _table_test(
    "misordered-alphas-extract", "misordered-alphas-verify", "misordered-alphas-report")
test_classify_without_g_limit_exit_2 = _table_test("classify-without-g-limit")
test_classify_without_any_force_exit_2 = _table_test("classify-without-any-force")
test_corrupt_term_row_is_named = _table_test(
    "term-row-unitary", "term-row-strict", "term-row-restructured")
test_malformed_term_matrix_exit_2 = _table_test(each=(
    "wrong-dtype", "wrong-shape", "wrong-rows", "truncated", "object-array"))
test_corrupt_field_file_is_named = _table_test("field-not-divergence-free")
test_non_finite_inputs_are_named = _table_test(each=(
    "alpha-nan", "residual-infinity", "alpha-overflow", "coefficient-nan", "coefficient-overflow"))
test_numbers_of_the_wrong_json_type_are_named = _table_test(each=(
    "alpha-string", "n-fraction", "n-true", "n-string", "residual-string", "wavevector-fraction",
    "coefficient-string", "truncation-fraction", "truncation-string", "truncation-true",
    "alphas-string", "truncations-string", "truncations-fraction", "modes-fraction",
    "exponent-string"))
test_overflowing_gamma_is_named = _table_test("gammas-overflowing-entry")
test_non_positive_gamma_is_named = _table_test(each=(
    "gammas-zero-entry", "gammas-negative-entry", "gammas-subnormal-entry",
    "classify-gammas-negative-entry", "report-gammas-zero-entry"))
test_non_finite_term_row_is_named = _table_test("term-row-nan")
test_misordered_field_modes_are_named = _table_test(each=("out-of-order", "zero-mode"))
test_malformed_expansion_index = _table_test(each=(
    "modes-out-of-order", "rows-do-not-tile", "no-estimator", "one-exponent", "forms-a-list",
    "forms-a-string", "gammas-null", "gammas-a-number", "gammas-string-entry", "gammas-nan-entry",
    "gammas-null-entry", "degenerate-n-string", "degenerate-n-list"))
test_malformed_manifest_exit_2 = _table_test(each=(
    "no-entries", "no-alpha", "null", "number", "force-not-a-path", "g-limit-not-a-path"))
test_unparsable_json_exit_2_naming_the_file = _table_test(each={
    "extract": ("manifest-not-json",), "verify": ("index-not-json",)})
test_unopenable_path_exit_2_naming_it = _table_test(each=(
    "dir-as-manifest", "dir-as-expansion", "file-as-extract-out", "file-as-fixtures-out"))
test_report_checks_the_classification_first = _table_test(each={
    name: (f"classification-{name}",)
    for name in ("no-branch", "branch-number", "constants-list", "residual-string",
                 "warnings-string")})
test_report_on_a_form_the_expansion_lacks_exit_2 = _table_test("classified-form-not-in-expansion")
# The rows that no test above runs: the checks moved here from CI, and new ones.
test_failure_path = _table_test(each=[name for name in CASES if name not in _NAMED])


# The corruption probe: at every JSON path of the README window's first field
# file, its manifest, its expansion index and its classification (the first
# two items of each list), each of these values, or the key deleted (None).
MUTATIONS = {"delete": None, "null": "null", "string": '"x"', "list": "[]", "nan": "NaN",
             "true": "true"}
RECORD = {name: 0 for name in MUTATIONS if name != "nan"}  # any JSON value passes
PROBED = {"{fx}/v_0001.json": EXTRACT + " --depth 1", "{fx}/manifest.json": EXTRACT + " --depth 1",
          "{exp}/expansion.json": VERIFY, "{cls}": REPORT}
# The reviewed probe cases that do not exit 2 naming the probed file, by path
# (fnmatch: "*" is any form or item): a document still well formed runs the
# stage (exit 0, or 1 where its checks reject the changed data), and a path
# that names a missing file is refused naming that file.
PROBE_OUTCOMES = {
    "{fx}/v_0001.json": {
        "conjugate_closure": {"true": 0},  # the value it holds
        "modes": {"list": 1},  # a zero field: level 1 fails reconstruction
        "modes.0": {"delete": 1}, "modes.1": {"delete": 0},  # one mode fewer
    },
    "{fx}/manifest.json": {
        "entries": {"list": 1},  # an empty window is too short to extract
        "entries.?": {"delete": 0},  # a window of 19
        "entries.?.field": {"string": (2, "{fx}/x")},  # the file that cannot be opened
        "entries.?.force": {"delete": 0, "string": 0},  # per-n forces: records only
        "g_limit": {"delete": 0, "string": 0},  # read by classify alone
    },
    "{exp}/expansion.json": {
        "matrix": {"string": (2, "{exp}/x")},  # the file that cannot be opened
        # the matrix, which no longer has the index's shape
        "modes": {"list": (2, "{exp}/expansion.npy: malformed expansion matrix")},
        "modes.?": {"delete": (2, "{exp}/expansion.npy: malformed expansion matrix")},
        "tolerances": RECORD,
        "forms.*.decision_log": {"delete": 0, "string": 0, "list": 0},  # report prints its lines
        "forms.*.decision_log.?": RECORD,
        "forms.*.terms.?.estimator": {**RECORD, "delete": 2},
        "forms.*.depth_reason": {**RECORD, "delete": 2},  # report prints it
        "forms.*.limit_estimator": {**RECORD, "delete": 2},
        "forms.*.degenerate_N": {"null": 0},  # the value it holds
        # a scale one level shorter still covers the unitary form's 2 terms
        "forms.unitary.scale.exponents.?": {"delete": 0},
    },
    "{cls}": {
        "branch": {"string": 0},  # any string: report prints it
        "constants*": {"delete": 0}, "residuals*": {"delete": 0},  # optional, and so is each key
        "warnings": {"delete": 0, "list": 0},
        **dict.fromkeys(("chi", "chi_tag", "identities", "evidence", "tolerances",
                         "totally_comparable"), RECORD),
    },
}


def _json_paths(doc, keys=()):
    """The keys of every value inside ``doc``, the first two items of each list."""
    if isinstance(doc, list):
        doc = dict(enumerate(doc[:2]))
    for key, value in doc.items() if isinstance(doc, dict) else ():
        yield keys + (key,)
        yield from _json_paths(value, keys + (key,))


@pytest.mark.parametrize("probed", list(PROBED))
def test_corruption_probe(pipeline, tmp_path, capsys, probed):
    """Each probe case is a row of ``CASES``'s kind, run by the same runner: it exits
    2 naming the probed file, or as ``PROBE_OUTCOMES`` lists, and never raises."""
    path = Path(probed.format(fx=pipeline / "fx", exp=pipeline / "exp",
                              cls=pipeline / "class.json"))
    outcomes, used = PROBE_OUTCOMES[probed], set()
    records = [pattern + ".*" for pattern, outcome in outcomes.items() if outcome is RECORD]
    for keys in _json_paths(json.loads(path.read_text())):
        at = ".".join(map(str, keys))
        if any(fnmatch.fnmatchcase(at, record) for record in records):
            continue  # inside a record, where any value passes
        pattern = next((p for p in outcomes if fnmatch.fnmatchcase(at, p)), None)
        used.add(pattern)
        for name, text in MUTATIONS.items():
            outcome = outcomes.get(pattern, {}).get(name, (2, "{file}"))
            code, words = outcome if isinstance(outcome, tuple) else (outcome, "")
            _run_case(Case(PROBED[probed], code, words, (probed, keys, text), code == 2),
                      pipeline, tmp_path, capsys)
    assert used - {None} == set(outcomes)  # no reviewed entry is stale


def test_readme_sweeps(pipeline, doubling_sweep, tmp_path):
    """The README doubling sweep (alpha = 1, 2, ..., 2048) at N = 8, 16 and 24:
    12 entries, each with residual_H at most 1e-12 max(1, |g|) and the unknowns
    that parity and the glide leave (a quarter on 2Z x Z), and at N = 8 within
    1e-9 (relative V-norm) of the benchmark's stored solutions. A force per step
    (``--fixture example45``) sweeps all 12 steps too."""
    force = pipeline / "fx" / "g_limit.json"
    gnorm = sp.norm_ds(fieldio.read_field(force), 0)
    for n in (16, 24):
        assert run(["sweep", "--force", str(force), "--alpha-start", "1", "--alpha-factor", "2",
                    "--count", "12", "--truncation", str(n), "--out", str(tmp_path / f"n{n}")]) == 0
    for sweep, dofs in ((doubling_sweep, (38, 4)), (tmp_path / "n16", (140, 4)),
                        (tmp_path / "n24", (306, 4))):
        entries = fieldio.read_json(sweep / "manifest.json")["entries"]
        assert len(entries) == 12
        assert all(e["residual_H"] <= 1e-12 * max(1.0, gnorm) for e in entries)
        assert {(e["dofs"], e["group_order"]) for e in entries} == {dofs}
    ref = fieldio.read_json(Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                            / "readme_sweep_n8.json")
    entries = fieldio.read_json(doubling_sweep / "manifest.json")["entries"]
    assert [e["alpha"] for e in entries] == ref["alphas"]
    for e, rows in zip(entries, ref["solutions"], strict=True):
        modes = {}
        for kx, ky, a, b, c, d in rows:
            coeff = np.array([complex(a, b), complex(c, d)])
            modes[(int(kx), int(ky))], modes[(-int(kx), -int(ky))] = coeff, np.conj(coeff)
        want = sp.SpectralField(ref["truncation"], modes)
        got = fieldio.read_field(doubling_sweep / e["field"])
        assert sp.norm_ds(got - want, 0.5) <= 1e-9 * sp.norm_ds(want, 0.5)
    assert run(["sweep", "--fixture", "example45", "--count", "12", "--truncation", "8",
                "--out", str(tmp_path / "fixture")]) == 0
    assert len(fieldio.read_json(tmp_path / "fixture" / "manifest.json")["entries"]) == 12


def test_example314_pipeline_at_256_modes(tmp_path):
    """example314 at T = 256 with its analytic expansions: extract (constant:0,
    depth 3), verify of the extracted and of the analytic expansion, and report."""
    fx, exp = tmp_path / "fx", tmp_path / "exp"
    man = str(fx / "manifest.json")
    for argv in (["fixtures", "example314", "--count", "6", "--truncation", "256",
                  "--with-expansions", "--out", str(fx)],
                 ["extract", "--manifest", man, "--scale", "constant:0", "--depth", "3",
                  "--out", str(exp)],
                 ["verify", "--expansion", str(exp / "expansion.json"), "--manifest", man],
                 ["verify", "--expansion", str(fx / "expansion_analytic.json"), "--manifest", man],
                 ["report", "--manifest", man, "--expansion", str(exp / "expansion.json"),
                  "--out", str(tmp_path / "report")]):
        assert run(argv) == 0, argv


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
