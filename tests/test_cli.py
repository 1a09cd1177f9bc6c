"""CLI pipeline tests: subcommands, exit codes, deterministic artifacts."""

import os
import shutil

import numpy as np
import pytest

from grashof_expand import cli
from grashof_expand import expansion as ex
from grashof_expand import fieldio


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
    b = open(os.path.join(rep2, "series.csv"), "rb").read()
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


def test_domain_error_exit_1(tmp_path):
    # a manifest whose window is too short for extraction
    fxdir = str(tmp_path / "short")
    assert run(["fixtures", "example45", "--count", "3", "--out", fxdir]) == 0
    code = run(["extract", "--manifest", f"{fxdir}/manifest.json",
                "--out", str(tmp_path / "e")])
    assert code == 1


def test_threads_env_cap(monkeypatch):
    monkeypatch.setenv("GRASHOF_EXPAND_THREADS", "2")
    assert cli.worker_count() == 2
    monkeypatch.setenv("GRASHOF_EXPAND_THREADS", "0")
    assert cli.worker_count() >= 1


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


def _expected_file_count(expansion_path):
    forms, _ = ex.load_expansion(str(expansion_path))
    return 1 + sum(1 + e.depth for e in forms.values())


def test_extract_writes_one_file_per_term(pipeline, pipeline314):
    for root, count in ((pipeline, 18), (pipeline314, 13)):
        names = os.listdir(root / "exp")
        assert len(names) == count == _expected_file_count(root / "exp" / "expansion.json")


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
    out = tmp_path / "exp"
    shutil.copytree(pipeline / "exp", out)
    path = out / "unitary_term1.json"
    doc = fieldio.read_json(path)
    kx, ky = doc["modes"][0]
    # Witness n=3 (row 3): push mode 0 off k.c = 0 through the component that k sees.
    doc["rows"][3][2 if ky != 0 else 0] += 1.0
    fieldio.write_json(path, doc)
    assert run(["verify", "--expansion", str(out / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert f"witness n=3: divergence-free condition violated at mode ({kx}, {ky})" in err


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
