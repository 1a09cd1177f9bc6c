"""Shared on-disk formats: field files, sequence manifests, JSON helpers.

Field files, manifests and expansion indexes are JSON text with floats
serialized at 17 significant digits (lossless double round-trip) and LF line
endings; each expansion index has one binary ``.npy`` row matrix beside it
(see ``expansion.save_expansion``). Every write is atomic (temp file in the
target directory, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import spectral as sp


class FieldFormatError(ValueError):
    """Raised when a field/manifest file does not match the expected schema."""


def fmt_float(x):
    return format(float(x), ".17g")


def dumps(obj, indent=0):
    """JSON text with .17g floats; dict key order is preserved as written."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {dumps(v, indent + 2).lstrip()}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        # Exact floats and exact ints (no bools, no numpy scalars) in one call each.
        kinds = set(map(type, seq))
        if kinds == {float}:
            return "[" + ", ".join(["%.17g"] * len(seq)) % tuple(seq) + "]"
        if kinds == {int}:
            return "[" + ", ".join(map(str, seq)) + "]"
        flat = all(isinstance(v, (int, float, np.floating, np.integer)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        items = [pad + "  " + dumps(v, indent + 2).lstrip() for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def atomic_write(path, data):
    """Write ``data`` (bytes, str as UTF-8, or a function that writes to the open
    binary file) to a temp file beside ``path``, then rename."""
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    atomic_write(path, dumps(obj) + "\n")


def read_json(path):
    with open(path, "r") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Field files
# ---------------------------------------------------------------------------


def write_field(path, field):
    """Store one representative of each conjugate pair, sorted by wavevector."""
    half = sp.rep_half(len(field.keys))
    keys = field.keys[half].tolist()
    coeffs = field.coeffs[half].view(np.float64).reshape(-1, 2, 2).tolist()
    records = [{"k": k, "c": c} for k, c in zip(keys, coeffs)]
    doc = {"truncation": int(field.trunc), "conjugate_closure": True, "modes": records}
    write_json(path, doc)


def read_field(path):
    """Read a field file (FieldFormatError) and validate it (MalformedFieldError)."""
    doc = read_json(path)
    try:
        trunc = int(doc["truncation"])
        if not doc.get("conjugate_closure", False):
            raise FieldFormatError(f"{path}: conjugate_closure flag missing or false")
        recs = doc["modes"]
        reps = np.array([rec["k"] for rec in recs], dtype=np.int64).reshape(len(recs), 2)
        parts = np.array([rec["c"] for rec in recs], dtype=np.float64).reshape(len(recs), 2, 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldFormatError(f"{path}: malformed field file ({exc})") from exc
    try:
        keys, coeffs = sp.conj_closure(reps, parts[..., 0] + 1j * parts[..., 1])
    except sp.MalformedFieldError as exc:
        raise sp.MalformedFieldError(f"{path}: {exc}") from exc
    bad = sp.first_violation(keys, coeffs[None], [trunc])
    if bad is not None:
        raise sp.MalformedFieldError(f"{path}: {bad[1]}")
    return sp.SpectralField.from_arrays(trunc, keys, coeffs)


# ---------------------------------------------------------------------------
# Sequence manifests
# ---------------------------------------------------------------------------


def write_manifest(path, entries, g_limit=None):
    """Sequence manifest: per n the alpha, solution path, residual and bound check.

    ``entries`` is a list of dicts with keys n, alpha, field, residual_H,
    bound_check and optionally force (per-n forcing g_n); paths are stored
    relative to the manifest location. A sweep's entries also carry the
    solve's ``dofs`` (real unknowns Newton solved for) and ``group_order``
    (signed permutations of the unknowns that fix g and the guess): both are
    deterministic, so reruns stay byte-identical, and ``read_manifest``
    ignores them.
    """
    base = os.path.dirname(os.path.abspath(path))

    def rel(p):
        return os.path.relpath(os.path.abspath(p), base)

    doc_entries = []
    for e in entries:
        rec = {
            "n": int(e["n"]),
            "alpha": float(e["alpha"]),
            "field": rel(e["field"]),
            "residual_H": float(e["residual_H"]),
            "bound_check": float(e["bound_check"]),
        }
        if e.get("force") is not None:
            rec["force"] = rel(e["force"])
        for key in ("dofs", "group_order"):
            if key in e:
                rec[key] = int(e[key])
        doc_entries.append(rec)
    doc = {"entries": doc_entries}
    if g_limit is not None:
        doc["g_limit"] = rel(g_limit)
    write_json(path, doc)


def read_manifest(path):
    """Parse a manifest; returns a dict with absolute paths resolved."""
    doc = read_json(path)
    base = os.path.dirname(os.path.abspath(path))
    if "entries" not in doc or not isinstance(doc["entries"], list):
        raise FieldFormatError(f"{path}: manifest has no entries list")
    entries = []
    for rec in doc["entries"]:
        try:
            entry = {
                "n": int(rec["n"]),
                "alpha": float(rec["alpha"]),
                "field": os.path.join(base, rec["field"]),
                "residual_H": float(rec["residual_H"]),
                "bound_check": float(rec["bound_check"]),
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldFormatError(f"{path}: malformed manifest entry ({exc})") from exc
        if "force" in rec:
            entry["force"] = os.path.join(base, rec["force"])
        entries.append(entry)
    out = {"entries": entries}
    if "g_limit" in doc:
        out["g_limit"] = os.path.join(base, doc["g_limit"])
    return out
