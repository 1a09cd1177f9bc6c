"""Field/manifest file-format tests: round-trips, 17-digit floats, atomicity, and
the window reader and the field writer against their per-item oracles."""

import json
import os
import shutil

import numpy as np
import pytest

from grashof_expand import cli
from grashof_expand import fieldio
from grashof_expand import spectral as sp
from oracles import sequence_data


def test_field_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    u = sp.random_divfree(5, rng)
    path = tmp_path / "u.json"
    fieldio.write_field(path, u)
    v = fieldio.read_field(path)
    assert v.trunc == u.trunc
    assert set(v.modes) == set(u.modes)
    for k in u.modes:
        assert np.array_equal(v.modes[k], u.modes[k])


def test_field_file_stores_representatives_only(tmp_path):
    u = sp.eigenfunctions(1)[-1]
    path = tmp_path / "phi.json"
    fieldio.write_field(path, u)
    doc = fieldio.read_json(path)
    assert doc["conjugate_closure"] is True
    ks = [tuple(rec["k"]) for rec in doc["modes"]]
    assert all(k[0] > 0 or (k[0] == 0 and k[1] > 0) for k in ks)
    assert len(ks) == len(u.modes) // 2


def test_float_serialization_17_digits():
    x = 0.1 + 0.2  # 0.30000000000000004
    text = fieldio.dumps({"x": x})
    assert "0.30000000000000004" in text
    assert float("0.30000000000000004") == x


def test_manifest_roundtrip_relative_paths(tmp_path):
    """write_window names its files relative to the manifest beside them, in the
    record key order of every window, and read_manifest resolves them."""
    u = sp.eigenfunctions(3)[-1]
    sub = tmp_path / "run"
    entries = [{"n": 1, "alpha": 2.0, "residual_H": 1e-13, "bound_check": 0.5,
                "dofs": 38, "group_order": 4}]
    fieldio.write_window(str(sub), "v", [u], entries, forces=[u], g_limit=u)
    doc = fieldio.read_json(sub / "manifest.json")
    rec = doc["entries"][0]
    assert (rec["field"], rec["force"], doc["g_limit"]) == (
        "v_0001.json", "g_0001.json", "g_limit.json")  # relative on disk
    assert list(rec) == ["n", "alpha", "field", "residual_H", "bound_check", "force",
                         "dofs", "group_order"]
    assert list(doc) == ["entries", "g_limit"]
    man = fieldio.read_manifest(sub / "manifest.json")
    assert os.path.isabs(man["entries"][0]["field"])
    for path in (man["entries"][0]["field"], man["entries"][0]["force"], man["g_limit"]):
        assert os.path.exists(path)


def test_malformed_field_file_raises(tmp_path):
    path = tmp_path / "bad.json"
    fieldio.write_json(path, {"truncation": 2, "modes": [{"k": [1, 0]}]})
    with pytest.raises(fieldio.FieldFormatError):
        fieldio.read_field(path)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "doc.json"
    fieldio.write_json(path, {"a": 1.5})
    fieldio.write_json(path, {"a": 2.5})  # overwrite
    leftovers = [f for f in os.listdir(tmp_path) if f != "doc.json"]
    assert leftovers == []
    assert fieldio.read_json(path)["a"] == 2.5


NON_FINITE = {
    "list-and-scalar": ({"alphas": [1.0, float("nan")], "x": float("inf")}, "nan at alphas[1]"),
    "scalar": ({"alphas": [1.0, 2.0], "x": float("-inf")}, "-inf at x"),
    "mixed-list": ({"entries": [{"n": 1, "residual_H": [2, np.float64("nan")]}]},
                   "nan at entries[0].residual_H[1]"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_write_json_refuses_a_non_finite_value(tmp_path, case):
    """JSON has no NaN or infinity, and ``read_json`` would reject the file:
    the writer raises, naming the file and the key path, and writes nothing."""
    doc, where = NON_FINITE[case]
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError) as err:
        fieldio.write_json(path, doc)
    assert str(err.value) == f"{path}: non-finite value {where}"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_a_non_finite_token(tmp_path, token):
    """Python's json reads NaN and infinities, which JSON does not have: the
    reader refuses them as it refuses any other text that is not JSON."""
    path = tmp_path / "doc.json"
    path.write_text('{"alphas": [1.0, %s]}\n' % token)
    with pytest.raises(fieldio.FieldFormatError) as err:
        fieldio.read_json(path)
    assert str(err.value) == f"{path}: not valid JSON ({token} is not a JSON number)"


FINITE = "entries[1]: alpha, residual_H and bound_check must be finite"


@pytest.mark.parametrize("key, text, words", [
    ("alpha", "1e400", FINITE), ("residual_H", "-1e400", FINITE),
    ("bound_check", '"nan"', "entries[1].bound_check: not a number"),
    ("alpha", '"inf"', "entries[1].alpha: not a number"),
], ids=["alpha-overflow", "residual-overflow", "bound-nan-string", "alpha-inf-string"])
def test_read_manifest_refuses_a_non_finite_number(tmp_path, key, text, words):
    """A literal that overflows to infinity, or a string (one that float() would
    read as NaN or infinity too), is refused naming the file and the entry."""
    entry = {"n": 1, "alpha": 1.0, "field": "v.json", "residual_H": 0.0, "bound_check": 0.0}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [entry, {**entry, "n": 2, key: "@"}]})
                    .replace('"@"', text))
    with pytest.raises(fieldio.FieldFormatError) as err:
        fieldio.read_manifest(path)
    assert str(err.value) == f"{path}: malformed manifest entry ({words})"


def test_write_field_refuses_a_non_finite_coefficient(tmp_path):
    field = sp.random_divfree(2, np.random.default_rng(7))
    coeffs = field.coeffs.copy()
    coeffs[-3, 1] = complex(0.5, np.nan)  # a representative's: the writer stores that half
    path = tmp_path / "f.json"
    with pytest.raises(ValueError) as err:
        fieldio.write_field(path, sp.SpectralField.from_arrays(2, field.keys, coeffs))
    row = len(field.keys) // 2 - 3
    assert str(err.value) == f"{path}: non-finite value nan at modes[{row}].c[1][1]"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_atomic_write_gives_the_mode_of_open(tmp_path, umask):
    """A written file has the mode a plain open() gives it, 0o666 less the
    umask, in a directory made on the first write; a writer that fails leaves
    the target as it was and no temp file."""
    path = tmp_path / "new" / "doc.json"
    old = os.umask(umask)
    try:
        fieldio.write_json(path, {"a": 1.5})
        with open(tmp_path / "plain", "w"):
            pass

        def failing(fh):
            fh.write(b"partial")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            fieldio.atomic_write(path, failing)
    finally:
        os.umask(old)
    mode = os.stat(path).st_mode & 0o777
    assert mode == 0o666 & ~umask == os.stat(tmp_path / "plain").st_mode & 0o777
    assert os.listdir(path.parent) == ["doc.json"]
    assert fieldio.read_json(path) == {"a": 1.5}


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    u = sp.random_divfree(4, rng)
    fieldio.write_field(tmp_path / "a.json", u)
    fieldio.write_field(tmp_path / "b.json", u)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def _dumps_per_element(obj, indent=0):
    """The per-element formatter: the oracle for ``fieldio.dumps``."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_dumps_per_element(v, indent + 2).lstrip()}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, np.floating, np.integer)) for v in seq):
            return "[" + ", ".join(_dumps_per_element(v) for v in seq) + "]"
        items = [pad + "  " + _dumps_per_element(v, indent + 2).lstrip() for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


DUMPS_DOCS = {
    "floats": [-0.0, 0.0, 5e-324, 1e300, -1e300, 0.1 + 0.2, 1.0, -2.5, 1e-7, 123456789.0],
    "one-float": [0.1 + 0.2],
    "ints": [0, -1, 7, 2**62, -(2**70), 12345678901234567890],
    "bools": [True, False, True],
    "int-float": [1, 2.5, -3, -0.0],
    "int-bool": [1, True, 0, False],
    "float-tuple": (1.5, -0.0, 5e-324),
    "int-tuple": (3, -4),
    "np-float64": [np.float64(0.1) + np.float64(0.2), np.float64(-0.0), np.float64(5e-324)],
    "np-int64": [np.int64(3), np.int64(-2**62)],
    "float-np-float64": [0.5, np.float64(0.25)],
    "empty": [],
    "empty-tuple": (),
    "rows": [[0.1 * i - 0.35 for i in range(8)], [1e300, -1e-300, 5e-324, -0.0]],
    "nested": {"a": {"b": [[1, 2], [3, 4]], "c": [], "d": {}},
               "e": [{"k": [1, -2], "c": [[0.5, -0.0], [1e300, 0.1 + 0.2]]}],
               "f": [None, "s", 1.5, [2, 3.0]], "g": True, "h": None},
}


@pytest.mark.parametrize("name", sorted(DUMPS_DOCS))
def test_dumps_matches_per_element_oracle(name):
    doc = DUMPS_DOCS[name]
    assert fieldio.dumps(doc) == _dumps_per_element(doc)
    assert fieldio.dumps({"x": doc, "y": [doc]}) == _dumps_per_element({"x": doc, "y": [doc]})


# ---------------------------------------------------------------------------
# The window reader against the per-file reader
# ---------------------------------------------------------------------------


def _read_field_per_file(path):
    """The per-file reader: the oracle for ``fieldio.read_fields``."""
    doc = fieldio.read_json(path)
    try:
        trunc = int(doc["truncation"])
        if doc.get("conjugate_closure") is not True:
            raise fieldio.FieldFormatError(f"{path}: conjugate_closure flag missing or not true")
        recs = doc["modes"]
        reps = np.array([rec["k"] for rec in recs], dtype=np.int64).reshape(len(recs), 2)
        parts = np.array([rec["c"] for rec in recs], dtype=np.float64).reshape(len(recs), 2, 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise fieldio.FieldFormatError(f"{path}: malformed field file ({exc})") from exc
    try:
        keys, coeffs = sp.conj_closure(reps, parts[..., 0] + 1j * parts[..., 1])
    except sp.MalformedFieldError as exc:
        raise sp.MalformedFieldError(f"{path}: {exc}") from exc
    bad = sp.first_violation(keys, coeffs[None], [trunc])
    if bad is not None:
        raise sp.MalformedFieldError(f"{path}: {bad[1]}")
    return sp.SpectralField.from_arrays(trunc, keys, coeffs)


WINDOWS = {
    "example45": [["fixtures", "example45", "--coeffs", "2=1,3=0.5", "--count", "20", "--out", "w"]],
    "example314": [["fixtures", "example314", "--count", "6", "--truncation", "64", "--out", "w"]],
    # the README doubling sweep at N = 8
    "sweep-n8": [["fixtures", "example45", "--c2", "1", "--count", "20", "--out", "fx"],
                 ["sweep", "--force", "fx/g_limit.json", "--count", "12", "--truncation", "8",
                  "--out", "w"]],
}


@pytest.fixture(scope="module")
def windows(tmp_path_factory):
    """Field paths, in manifest order, of each window of ``WINDOWS``."""
    out = {}
    for name, stages in WINDOWS.items():
        root = tmp_path_factory.mktemp(name)
        for argv in stages:
            argv = [str(root / a) if a in ("w", "fx") or a.startswith("fx/") else a for a in argv]
            assert cli.main(argv) == 0
        out[name] = [e["field"] for e in fieldio.read_manifest(root / "w" / "manifest.json")["entries"]]
    return out


def _same_bits(u, v):
    return (u.trunc == v.trunc and u.keys.dtype == v.keys.dtype and u.coeffs.dtype == v.coeffs.dtype
            and np.array_equal(u.keys, v.keys) and u.coeffs.tobytes() == v.coeffs.tobytes())


def _window_per_field(fields):
    """The fields on the union of their keys, one ``gather`` each: the oracle for
    the window ``fieldio.read_fields`` returns."""
    keys = sp.key_union([f.keys for f in fields])[0]
    rows = np.zeros((len(fields), len(keys), 2), dtype=np.complex128)
    for row, f in zip(rows, fields):
        row[:] = sp.gather(f.keys, f.coeffs, keys)
    return keys, rows, [f.trunc for f in fields]


def _window_bits(keys, rows, truncs):
    return keys.dtype.str, keys.tobytes(), rows.dtype.str, rows.shape, rows.tobytes(), truncs


def _assert_same_data(got, want):
    """Two ``SequenceData`` agree bit for bit: keys, flat rows, truncation, alphas."""
    assert (_window_bits(got.keys, got.flat, got.trunc)
            == _window_bits(want.keys, want.flat, want.trunc))
    assert got.alphas == want.alphas and not got.flat.flags.writeable


def _manifest(paths):
    return os.path.join(os.path.dirname(paths[0]), "manifest.json")


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_read_fields_bit_equal_to_per_file_reader(windows, name):
    """The reader's window is the per-file fields on the union of their keys, and
    the window the stages load is ``sequence_data`` of those fields."""
    paths = windows[name]
    keys, rows, truncs = fieldio.read_fields(paths)
    want = [_read_field_per_file(p) for p in paths]
    assert len(rows) == len(want) == len(paths)
    assert _window_bits(keys, rows, truncs) == _window_bits(*_window_per_field(want))
    assert all(_same_bits(fieldio.read_field(p), v) for p, v in zip(paths, want))
    data, _ = cli._load_sequence(_manifest(paths))
    _assert_same_data(data, sequence_data(iter(want), data.alphas))


def _corrupt(path, kind):
    """Damage the field file ``path`` in the way ``kind`` names."""
    if kind == "json":
        with open(path, "w") as fh:
            fh.write('{"truncation": 2, "modes": [')
        return
    doc = fieldio.read_json(path)
    modes = doc["modes"]
    if kind == "missing-key":
        del doc["truncation"]
    elif kind == "flag":
        doc["conjugate_closure"] = False
    elif kind == "unordered":
        modes[0], modes[1] = modes[1], modes[0]
    elif kind in ("truncation", "zero-outside"):
        c = 1.0 if kind == "truncation" else 0.0
        modes.append({"k": [doc["truncation"] + 1, 0], "c": [[0.0, 0.0], [0.0, c]]})
    elif kind == "divergence":
        k = modes[-1]["k"]
        modes[-1]["c"] = [[float(k[0]), 0.0], [float(k[1]), 0.0]]
    elif kind == "ragged":
        modes[0]["c"] = [[1.0, 2.0, 3.0], [4.0, 5.0]]
    else:
        raise ValueError(kind)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _copy(paths, target):
    """Copies of the files ``paths`` in the directory ``target``, in order."""
    out = [str(target / os.path.basename(p)) for p in paths]
    for src, dst in zip(paths, out):
        shutil.copyfile(src, dst)
    return out


def _outcome(read):
    try:
        return _window_bits(*read())
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


def _per_file(paths):
    return _window_per_field([_read_field_per_file(p) for p in paths])


FAULTS = ["json", "missing-key", "flag", "unordered", "truncation", "divergence", "ragged"]


@pytest.mark.parametrize("faults", [[(6, kind)] for kind in FAULTS] + [
    [(3, "divergence"), (11, "json")],
    [(3, "json"), (11, "divergence")],
    [(4, "truncation"), (9, "unordered")],
    [(4, "ragged"), (9, "truncation")],
    [(2, "flag"), (15, "divergence")],
    [(8, "divergence"), (17, "missing-key")],
    [(5, "zero-outside"), (12, "divergence")],
], ids=lambda faults: "+".join(f"{k}@{i}" for i, k in faults))
def test_read_fields_raises_as_the_per_file_reader(windows, tmp_path, faults):
    """A window with bad files raises what reading it file by file raises: the
    first bad file in order, with the same exception type and message."""
    paths = _copy(windows["example45"], tmp_path)
    for i, kind in faults:
        _corrupt(paths[i], kind)
    want = _outcome(lambda: _per_file(paths))
    first = next((i, kind) for i, kind in faults if kind != "zero-outside")
    assert isinstance(want, tuple)
    assert os.path.basename(paths[first[0]]) in want[1]
    assert _outcome(lambda: fieldio.read_fields(paths)) == want


def test_read_fields_drops_a_zero_mode_outside_the_truncation(windows, tmp_path):
    paths = _copy(windows["example45"], tmp_path)
    _corrupt(paths[5], "zero-outside")
    want = _outcome(lambda: _per_file(windows["example45"]))
    assert _outcome(lambda: _per_file(paths)) == want
    assert _outcome(lambda: fieldio.read_fields(paths)) == want
    shutil.copyfile(_manifest(windows["example45"]), _manifest(paths))
    data, _ = cli._load_sequence(_manifest(paths))
    fields = [_read_field_per_file(p) for p in paths]
    _assert_same_data(data, sequence_data(fields, data.alphas))


def test_read_fields_drops_a_mode_zero_in_every_file(windows, tmp_path):
    """A signed zero reads as +0, and a mode that is zero in every file leaves the
    keys, as on the fields of the files read one at a time."""
    paths = _copy(windows["example45"], tmp_path)
    for i, path in enumerate(paths):
        doc = fieldio.read_json(path)
        for rec in doc["modes"][-1:] + doc["modes"][:1 if i == 5 else 0]:
            rec["c"] = [[-0.0, -0.0], [-0.0, -0.0]]
        with open(path, "w") as fh:
            json.dump(doc, fh)
    keys, rows, truncs = fieldio.read_fields(paths)
    assert _window_bits(keys, rows, truncs) == _window_bits(*_per_file(paths))
    assert len(keys) == len(fieldio.read_fields(windows["example45"])[0]) - 2


def test_load_sequence_validates_a_window_once(windows, monkeypatch):
    calls, unions, built = [], [], []
    check, union, assign = sp.first_violation, sp.key_union, sp.SpectralField._assign

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return check(*args, **kwargs)

    monkeypatch.setattr(sp, "first_violation", counted)
    monkeypatch.setattr(sp, "key_union", lambda sets: unions.append(len(sets)) or union(sets))
    monkeypatch.setattr(sp.SpectralField, "_assign",
                        lambda self, *args: built.append(self) or assign(self, *args))
    data, _ = cli._load_sequence(_manifest(windows["example45"]))
    assert calls == [len(data)] == [20]
    assert unions == [20] and built == []


def _write_field_via_dumps(field):
    """The record-by-record field text: the oracle for ``fieldio.write_field``."""
    half = sp.rep_half(len(field.keys))
    keys = field.keys[half].tolist()
    coeffs = field.coeffs[half].view(np.float64).reshape(-1, 2, 2).tolist()
    records = [{"k": k, "c": c} for k, c in zip(keys, coeffs)]
    doc = {"truncation": int(field.trunc), "conjugate_closure": True, "modes": records}
    return fieldio.dumps(doc) + "\n"


def _signed_zeros():
    c = np.array([complex(-0.0, 0.0), complex(0.0, -0.0)])
    # k = (1, 0) with c_x = 0: divergence-free whatever c_y is
    up = np.array([complex(-0.0, -0.0), complex(-0.0, 0.1 + 0.2)])
    return sp.SpectralField(3, {(0, 1): c, (0, -1): np.conj(c), (1, 0): up, (-1, 0): np.conj(up)})


WRITE_CASES = {
    "random": lambda: sp.random_divfree(5, np.random.default_rng(3)),
    "empty": lambda: sp.zero_field(4),
    "signed-zeros": _signed_zeros,
    "17-digits": lambda: (0.1 + 0.2) * sp.random_divfree(3, np.random.default_rng(4), decay=3.0),
    "eigenfunctions": lambda: sp.lin_comb([1e300, -5e-324 * 1e300, 1e-300], sp.eigenfunctions(3)),
}


@pytest.mark.parametrize("name", sorted(WRITE_CASES))
def test_write_field_text_matches_dumps(tmp_path, name):
    field = WRITE_CASES[name]()
    path = tmp_path / "f.json"
    fieldio.write_field(path, field)
    assert path.read_text() == _write_field_via_dumps(field)
    if name == "signed-zeros":
        assert '"c": [\n        [-0, -0],' in path.read_text()
    assert _same_bits(fieldio.read_field(path), _read_field_per_file(path))
