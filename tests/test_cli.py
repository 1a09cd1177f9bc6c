"""CLI pipeline tests: subcommands, exit codes, deterministic artifacts."""

import hashlib
import os
import shutil
import subprocess
import sys
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


def test_pipeline_records_its_gates(pipeline):
    # The gates are module constants; the file still records them once as provenance,
    # and each form its own settings.
    doc = fieldio.read_json(pipeline / "exp" / "expansion.json")
    gates = {"floor": ex.FLOOR, "finite": ex.FINITE, "zero": ex.ZERO, "snap": seqlimit.SNAP_REL,
             "cauchy": ex.CAUCHY, "stagnation": ex.STAGNATION}
    assert list(doc["tolerances"].items()) == list(gates.items())
    for form in ("strict", "restructured", "unitary"):
        assert doc["forms"][form]["tolerances"] == {"tail": 0, "kmax": 6}
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
    assert run(["sweep", "--unknown-flag", "1", "--out", "x"]) == 2
    # g_limit.json is written from a sample's record, and so are the example314
    # expansions; an empty sweep would write an empty manifest
    for argv in (["fixtures", "example45"],
                 ["fixtures", "example314", "--with-expansions"],
                 ["sweep", "--force", str(tmp_path / "g.json")]):
        capsys.readouterr()
        assert run(argv + ["--count", "0", "--out", str(tmp_path / "c0")]) == 2
        assert "--count must be at least 1" in capsys.readouterr().err
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


def test_example314_fixture_arguments_are_usage_errors(tmp_path, capsys):
    """example314 is defined for n = 1..6 and T >= 16: a larger --count (the
    default 20 too) or a smaller --truncation exits 2 before anything is written."""
    out = tmp_path / "fx"
    for extra, words in ((["--count", "7"], "--count 7 is above 6"),
                         ([], "--count 20 is above 6"),
                         (["--count", "6", "--truncation", "8"], "--truncation 8")):
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
                                (["--coeffs", "1=1"], "1=1", "coefficients start at m = 2; got m = 1")):
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
        (["--depth", "0"], "--depth must be at least 1; got 0"),
    ))


@pytest.mark.parametrize("extra, words", [
    (["--alpha-factor", "1"], "alphas must be strictly increasing"),
    (["--alpha-factor", "0.5"], "alphas must be strictly increasing"),
    (["--alpha-start", "0"], "alphas must be strictly increasing"),
    (["--alpha-start", "-1"], "sweep index 0: alpha -1.0 must be finite and nonnegative"),
    (["--alpha-start", "nan"], "sweep index 0: alpha nan must be finite"),
    (["--alpha-factor", "inf"], "sweep index 1: alpha inf must be finite"),
    (["--truncation", "1"], "sweep index 0: truncation radius 1 must cover the forcing modes"),
], ids=["factor-1", "factor-half", "start-0", "start-negative", "start-nan", "factor-inf",
        "truncation-1"])
def test_sweep_argument_faults_are_usage_errors(pipeline, tmp_path, capsys, extra, words):
    """Alphas that are not finite, nonnegative and strictly increasing, or a
    truncation that does not cover the force, exit 2 before any solve and
    create no --out."""
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


def test_extract_tail_outside_window_is_usage_error(pipeline, tmp_path, capsys):
    """--tail must lie in 0..M, M the window's sample count (20 here; 0 = auto)."""
    _extract_usage_errors(str(pipeline / "fx" / "manifest.json"), tmp_path / "exp", capsys, (
        (["--tail", "-1"], "--tail -1 is outside 0..20"),
        (["--tail", "50"], "--tail 50 is outside 0..20"),
    ))


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

    g = sp.leray_project(dict(conftest.shear_field().modes))
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


def test_classify_falls_back_to_the_last_force(pipeline, tmp_path):
    # Without g_limit the last per-n force is the limit force: the same as a
    # manifest whose g_limit names that force file.
    code, out = _classify_with(pipeline, tmp_path / "a", lambda doc: doc.pop("g_limit"))
    assert code == 0

    def last_force(doc):
        doc["g_limit"] = doc["entries"][-1]["force"]
    code, named = _classify_with(pipeline, tmp_path / "b", last_force)
    assert code == 0
    assert out.read_bytes() == named.read_bytes()


def test_classify_without_any_force_exit_2(pipeline, tmp_path, capsys):
    def strip(doc):
        doc.pop("g_limit")
        for entry in doc["entries"]:
            entry.pop("force")
    code, out = _classify_with(pipeline, tmp_path, strip)
    assert code == 2
    assert "manifest carries no g_limit or per-n forces" in capsys.readouterr().err
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


# sha256 of every file that ``fixtures example314 --count 6 --truncation 16
# --with-expansions`` and ``extract --scale constant:0 --depth 3`` write,
# recorded with numpy 2.4.6 on x86_64 (OpenBLAS).
EX314_SHA256 = {
    "exp/expansion.json": "5c98dcfddc9619b08362e0759794acc849242ed4aae677a6ceee25e23d5b4ce1",
    "exp/expansion.npy": "60163190a87df6dd4f0ed7d3c11fccbe603fd2771aa5a18a9835d1832d180a8e",
    "fx/expansion_analytic.json": "376b28fd4656323730fee2ee5e5c22e2081e0495a20fb0f84615805e969bb429",
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


# sha256 of every file that the README example45 pipeline writes past its
# fixtures (``extract --scale default-2dp --depth 6``, ``classify`` and
# ``report``; the fixtures are c2/ in EX45_SHA256), and of the text that
# ``verify`` prints, recorded with numpy 2.4.6 on x86_64 (OpenBLAS).
README_PIPELINE_SHA256 = {
    "class.json": "156278288ca0e01af5110e1e5b644c495a575abdb90c0b4f1a53860ee7729ab5",
    "exp/expansion.json": "fd1a2d30e53acc9084fd039821ab0d05b51c1de2a65731c88c41a8cc3c1a636f",
    "exp/expansion.npy": "b8426e7ed67d37142b545be6d608980f697ee0428a8d550e0a491d4d7cba906b",
    "report/residuals.csv": "7ced5cb3501f8f26fd0bc63be4258ad726f6869236e9edf7662f08c63e1bfa65",
    "report/series.csv": "785d22f58b6b87dde21b35d22a19e527d62893936518d4ee8a5bc9aef1c16be3",
    "report/summary.txt": "323d0cf30ba042ff424602a763093299ea1bd808c7a5a05ad9703ef73e1f9c83",
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
