"""CLI pipeline tests: subcommands, exit codes, deterministic artifacts."""

import hashlib
import os
import shutil

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
    # The gates are module constants; the files still record them as provenance.
    doc = fieldio.read_json(pipeline / "exp" / "expansion.json")
    want = {"floor": ex.FLOOR, "finite": ex.FINITE, "zero": ex.ZERO, "snap": seqlimit.SNAP_REL,
            "cauchy": ex.CAUCHY, "stagnation": ex.STAGNATION, "tail": 0, "kmax": 6}
    for form in ("strict", "restructured", "unitary"):
        saved = doc["forms"][form]["tolerances"]
        assert list(saved.items()) == list(want.items())
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


def _extract_usage_errors(manifest, out, capsys, cases):
    for extra, words in cases:
        capsys.readouterr()
        assert run(["extract", "--manifest", manifest, *extra, "--out", str(out)]) == 2
        assert words in capsys.readouterr().err
        assert not out.exists()


def test_extract_scale_and_depth_faults_are_usage_errors(pipeline, tmp_path, capsys):
    """A --scale that NestedScale rejects, or --depth 0, exits 2 and writes nothing."""
    _extract_usage_errors(str(pipeline / "fx" / "manifest.json"), tmp_path / "exp", capsys, (
        (["--scale", "0.7"], "scale needs at least two exponents"),
        (["--scale", "0.6,0.7"], "strictly decreasing"),
        (["--depth", "0"], "--depth must be at least 1; got 0"),
    ))


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
    path = out / "unitary_term1.npy"
    record = fieldio.read_json(out / "expansion.json")["forms"]["unitary"]["terms"][0]
    kx, ky = record["modes"][0]
    rows = np.load(path, allow_pickle=False)
    # Witness n=3 (row 3): push mode 0 off k.c = 0 through the component that k sees.
    rows[3, 0, 2 if ky != 0 else 0] += 1.0
    np.save(path, rows)
    assert run(["verify", "--expansion", str(out / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert f"witness n=3: divergence-free condition violated at mode ({kx}, {ky})" in err


def _wrong_dtype(path):
    np.save(path, np.load(path).astype(np.float32))


def _wrong_shape(path):
    np.save(path, np.load(path)[:, :-1])  # one mode fewer than the index lists


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-8])


def _object_array(path):
    np.save(path, np.load(path).astype(object), allow_pickle=True)


@pytest.mark.parametrize("damage", [_wrong_dtype, _wrong_shape, _truncated, _object_array],
                         ids=["wrong-dtype", "wrong-shape", "truncated", "object-array"])
def test_malformed_term_matrix_exit_2(pipeline, tmp_path, capsys, damage):
    out = tmp_path / "exp"
    shutil.copytree(pipeline / "exp", out)
    path = out / "strict_term2.npy"
    damage(path)
    with pytest.raises(fieldio.FieldFormatError, match="malformed expansion term file") as exc:
        ex.load_expansion(str(out / "expansion.json"))
    assert str(path) in str(exc.value)
    assert run(["verify", "--expansion", str(out / "expansion.json"),
                "--manifest", str(pipeline / "fx" / "manifest.json")]) == 2
    assert f"{path}: malformed expansion term file" in capsys.readouterr().err


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
    "exp/expansion.json": "ccf16d345aa743655d090671d9586168a6179c966f8876fb2deca42ccd46a862",
    "exp/restructured_limit.json": "eda9b01a08e3022bba9d51de9cee1200c93839810989b9c4bf0445cdc34a0bb0",
    "exp/restructured_term1.npy": "4bdce720884654f27e2192279244dde52743320b3683403c5dd165462e95def4",
    "exp/restructured_term2.npy": "19d98b1987dab1c8f4ce43e3454bba55cf4adf9a2890e8713b8eeb39407186b9",
    "exp/restructured_term3.npy": "4b5d5e07657419b82dee429863ec4e3633f39c36491369b092dd348316649542",
    "exp/strict_limit.json": "eda9b01a08e3022bba9d51de9cee1200c93839810989b9c4bf0445cdc34a0bb0",
    "exp/strict_term1.npy": "41a40cf438a00f6e41827d88045927b98e7961934b31e705eff16a13529b3196",
    "exp/strict_term2.npy": "42ad8c4212c61f36af5e5a913be79dddae13efd3dc7aad4316df6beacdfbe134",
    "exp/strict_term3.npy": "849a1a64f3cc2e4f49b902cb99db56a27e6b6f484628dfb9b6263590b1fc826f",
    "exp/unitary_limit.json": "eda9b01a08e3022bba9d51de9cee1200c93839810989b9c4bf0445cdc34a0bb0",
    "exp/unitary_term1.npy": "dac98e27ff5f2f122daf66c68bf00b6717a8664c278adde8cf633a95e711e770",
    "exp/unitary_term2.npy": "b1e56ad3cbe9651bbb86f9cb85800150d9f6dc790531cd9b62878b6f69f6cd2f",
    "exp/unitary_term3.npy": "1c79efeed23d506bcda73e5da0a99d62b417850119236707cccdec41d4603f82",
    "fx/degenerate_limit.json": "eda9b01a08e3022bba9d51de9cee1200c93839810989b9c4bf0445cdc34a0bb0",
    "fx/degenerate_term1.npy": "6ff6c88381546a93ec38e935a040459372852f386ef33d015efbd7f8e3a85279",
    "fx/degenerate_term2.npy": "7daf1626af2ffdec1a94c71313e485cde27864248d65fd8da650ef1d9f22d168",
    "fx/degenerate_term3.npy": "c3166d831d8429ae349f5ebf9a5106c93d64f4a995e6f308601f3b01482b8c83",
    "fx/degenerate_term4.npy": "0b9535ff7d1f65d5629943350fe0ec70a1cdc0419a8688c5afe5bf6f3efd8acf",
    "fx/degenerate_term5.npy": "e3d73ff5f9311cdc8b33d4b98ed9a978d7cc5289e304767f1030f2b63bb68137",
    "fx/degenerate_term6.npy": "77ae44a1e8b4161c7257e560bf6a1e1af4e4c1aea70acdbf870747a8b3c04a31",
    "fx/expansion_analytic.json": "3727cd3e5a1dab63ca703f639fc01524796f3db068d20efead39e67f5a8f3669",
    "fx/manifest.json": "6836cb56035c213b7ca6ed671e868d0ab2626ddf75f1b25dac9f4ed9ac345b15",
    "fx/unitary_limit.json": "28dc9e5962c39352632176461fd3a922e79e9285e1bd7bbda36e40275edb0bc1",
    "fx/unitary_term1.npy": "c50dcb687cd56d6b8837ee6de333b6ff49107ca0fcd0613920afe71c7dad780f",
    "fx/unitary_term2.npy": "9ef0f56bcb66ac7f4ef9e0219de7fdf1c7e696344bb6086c21ddb37c7dff30c4",
    "fx/unitary_term3.npy": "183d49c7ee5c93df0e7f54ec4924338df9a0ee96e3c9115a1d3514ee1cc79d78",
    "fx/unitary_term4.npy": "3ed965cd733df3198382008b131a1b6d515cfd0477368ecdec70bdc84695a360",
    "fx/unitary_term5.npy": "729545b4926e3cd3d4af8b9b9074bad6d62390df3ff73288c7d57db8733f15f0",
    "fx/unitary_term6.npy": "d98393f8b156be1579b1f29c50d379d865e44318fa11028dbbc11d356085a768",
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
