"""Field/manifest file-format tests: round-trips, 17-digit floats, atomicity."""

import json
import os

import numpy as np
import pytest

from grashof_expand import fieldio
from grashof_expand import spectral as sp


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
    u = sp.eigenfunction(1)
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
    u = sp.eigenfunction(3)
    sub = tmp_path / "run"
    os.makedirs(sub)
    fieldio.write_field(sub / "f1.json", u)
    fieldio.write_field(sub / "g1.json", u)
    fieldio.write_field(sub / "glim.json", u)
    entries = [{"n": 1, "alpha": 2.0, "field": str(sub / "f1.json"),
                "residual_H": 1e-13, "bound_check": 0.5, "force": str(sub / "g1.json")}]
    fieldio.write_manifest(sub / "manifest.json", entries, g_limit=str(sub / "glim.json"))
    doc = fieldio.read_json(sub / "manifest.json")
    assert doc["entries"][0]["field"] == "f1.json"  # relative on disk
    man = fieldio.read_manifest(sub / "manifest.json")
    assert os.path.isabs(man["entries"][0]["field"])
    assert os.path.exists(man["entries"][0]["field"])
    assert os.path.exists(man["g_limit"])


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
