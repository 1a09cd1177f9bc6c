"""Shared on-disk formats: field files, windows and their manifests, JSON helpers.

Field files, manifests and expansion indexes are JSON text with floats
serialized at 17 significant digits (lossless double round-trip) and LF line
endings; each expansion index has one binary ``.npy`` row matrix beside it
(see ``expansion.save_expansion``). Every write is atomic (temp file in the
target directory, then rename). A window of field files is read in one pass as
one row matrix (``read_fields``; ``read_field`` is the window of one, as a field),
and a field file is written from one format string (``write_field``).
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from . import spectral as sp


class FieldFormatError(ValueError):
    """Raised when a field/manifest file does not match the expected schema."""


def fmt_float(x):
    return format(float(x), ".17g")


def dumps(obj, indent=0, at=""):
    """JSON text with .17g floats; dict key order is preserved as written. NaN or
    infinity, which JSON cannot hold, is a ValueError naming its key (``alphas[1]``)."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {dumps(v, indent + 2, f"{at}.{k}" if at else k).lstrip()}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        # Exact floats and exact ints (no bools, no numpy scalars) in one call each.
        kinds = set(map(type, seq))
        if kinds == {float}:
            text = "[" + ", ".join(["%.17g"] * len(seq)) % tuple(seq) + "]"
            if "n" not in text:  # nan or inf (no other %.17g text has an n): found below
                return text
        if kinds == {int}:
            return "[" + ", ".join(map(str, seq)) + "]"
        flat = all(isinstance(v, (int, float, np.floating, np.integer)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps(v, 0, f"{at}[{i}]") for i, v in enumerate(seq)) + "]"
        items = [pad + "  " + dumps(v, indent + 2, f"{at}[{i}]").lstrip()
                 for i, v in enumerate(seq)]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError(f"non-finite value {float(obj)!r} at {at or 'the document'}")
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def atomic_write(path, data):
    """Write ``data`` (bytes, str as UTF-8, or a function that writes to the open
    binary file) to a temp file beside ``path``, then rename. The file gets the
    mode a plain ``open`` gives it (0o666 less the umask), and the directory is
    made only when it is missing (a file in its way raises an OSError naming it)."""
    path = os.path.abspath(path)
    tmp, flags = f"{path}.{os.urandom(6).hex()}.tmp", os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except (FileNotFoundError, NotADirectoryError):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
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
    try:
        text = dumps(obj)
    except ValueError as exc:  # NaN or infinity: named with the file, before any write
        raise ValueError(f"{path}: {exc}") from None
    atomic_write(path, text + "\n")


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path):
    """The JSON document at ``path``; text that is not JSON, NaN too, is a FieldFormatError."""
    with open(path, "r") as fh:
        try:
            return json.load(fh, parse_constant=_no_constant)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FieldFormatError(f"{path}: not valid JSON ({exc})") from exc


def numbers(value, what, integer=False, ndim=0):
    """``value``, JSON numbers nested ``ndim`` deep, as a float64 array, or int64
    where ``integer``: from the dtype numpy infers, a string, boolean or null, or
    a fraction where an integer belongs, is a ValueError naming ``what``. numpy
    reads a boolean among numbers as a number, so the lists' element types are
    scanned once for one."""
    arr, flat = np.asarray(value), value
    for _ in range(ndim - 1):
        flat = itertools.chain.from_iterable(flat)
    if arr.size and (arr.ndim != ndim or arr.dtype.kind not in ("i" if integer else "if")
                     or ndim and bool in map(type, flat)):
        raise ValueError(f"{what}: not {'an integer' if integer else 'a number'}")
    return arr.astype(np.int64 if integer else np.float64, copy=False)


# ---------------------------------------------------------------------------
# Field files
# ---------------------------------------------------------------------------


# One {"k", "c"} record as ``dumps`` lays it out; %.17g prints a key as an integer.
_MODE = ('    {\n      "k": [%.17g, %.17g],\n      "c": [\n        [%.17g, %.17g],\n'
         '        [%.17g, %.17g]\n      ]\n    }')


def write_field(path, field):
    """Store one representative of each conjugate pair, sorted by wavevector: the
    text of ``write_json`` on the field's record, from one %-format over all values."""
    half = sp.rep_half(len(field.keys))
    table = np.concatenate([field.keys[half], field.coeffs[half].view(np.float64)], axis=1)
    body = ",\n".join([_MODE] * len(table)) % tuple(table.ravel().tolist())
    if "n" in body:  # nan or inf, which no other text of a record holds: write_json names it
        write_json(path, {"modes": [{"c": row[2:].reshape(2, 2).tolist()} for row in table]})
    modes = f"[\n{body}\n  ]" if len(table) else "[]"
    atomic_write(path, f'{{\n  "truncation": {int(field.trunc)},\n  "conjugate_closure": true,\n'
                       f'  "modes": {modes}\n}}\n')


def read_fields(paths):
    """The window of the field files ``paths`` (in manifest order): the sorted keys
    where some file has a nonzero mode, the rows (len(paths), len(keys), 2) closed
    under conjugation (+0 where a file has no mode) and the truncations. Each file is
    parsed (FieldFormatError), then all are validated in one pass (MalformedFieldError):
    the first bad file in order raises, with the message a file read alone gives."""
    paths, docs = list(paths), []
    try:
        for path in paths:
            doc = read_json(path)
            try:
                trunc = numbers(doc["truncation"], "'truncation'", integer=True).item()
                if doc.get("conjugate_closure") is not True:
                    raise FieldFormatError(f"{path}: conjugate_closure flag missing or not true")
                recs = doc["modes"]
                reps = numbers([rec["k"] for rec in recs], "'k'", True, 2).reshape(len(recs), 2)
                parts = numbers([rec["c"] for rec in recs], "'c'", ndim=3).reshape(len(recs), 2, 2)
            except (KeyError, TypeError, ValueError) as exc:
                raise FieldFormatError(f"{path}: malformed field file ({exc})") from exc
            docs.append((trunc, reps, parts))
    except Exception:
        _window(paths[:len(docs)], docs)  # a bad file before the unreadable one comes first
        raise
    return _window(paths, docs)


@np.errstate(invalid="ignore")  # 1j * inf: first_violation names the mode
def _window(paths, docs):
    """The window of the parsed files ``docs`` of ``paths``: their representatives go
    onto the union keys as one row per file, validated in one pass, then closed
    under conjugation at once. ``docs`` is emptied once placed. On a violation the
    files are read again one at a time, so the first bad one raises."""
    truncs, reps = [t for t, _, _ in docs], [r for _, r, _ in docs]
    sizes = [len(r) for r in reps]
    every = np.concatenate([np.zeros((0, 2), dtype=np.int64), *reps])
    starts = np.cumsum(sizes[:-1], dtype=np.intp)
    try:
        sp.check_representatives(every, starts[starts < len(every)])
        # Past a mode outside its file's truncation the files go one at a time,
        # so the union grid never outgrows the truncations.
        if len(docs) > 1 and np.any(np.max(np.abs(every), axis=1) > np.repeat(truncs, sizes)):
            raise sp.MalformedFieldError("a mode lies outside its truncation")
        keys, slots = sp.key_union(reps) if len(docs) > 1 else (every, [slice(None)])
        half = np.zeros((len(docs), len(keys), 2), dtype=np.complex128)
        for row, slot, (_, _, parts) in zip(half, slots, docs):
            row[slot] = parts[..., 0] + 1j * parts[..., 1]
        docs.clear()
        del reps, every, slots  # with docs: only the rows stay, to bound the peak memory
        bad = sp.first_violation(keys, half, truncs, representatives=True)
        if bad is not None:
            raise sp.MalformedFieldError(bad[1])
    except sp.MalformedFieldError as exc:
        if len(paths) == 1:
            raise sp.MalformedFieldError(f"{paths[0]}: {exc}") from exc
        fields = [read_field(path) for path in paths]
        return (*sp.rows_of(fields), [f.trunc for f in fields])
    keys, rows = sp.conj_closure(keys, half)
    live = (rows[..., 0] != 0) | (rows[..., 1] != 0)
    rows[~live] = 0  # +0 where a file has no mode, as on its field
    keep = live.any(axis=0)
    return (keys, rows, truncs) if keep.all() else (keys[keep], rows[:, keep], truncs)


def read_field(path):
    """Read a field file and validate it: the window of one, as a field."""
    keys, rows, truncs = read_fields([path])
    return sp.SpectralField.from_arrays(truncs[0], keys, rows[0])


# ---------------------------------------------------------------------------
# Windows and their manifests
# ---------------------------------------------------------------------------


def write_window(out, stem, fields, entries, forces=None, g_limit=None):
    """Write a window under ``out`` (made by the first write): each field as
    ``<stem>_<n>.json``, its force as ``g_<n>.json`` and ``g_limit`` as
    ``g_limit.json`` if given, then ``manifest.json`` naming them relative to
    ``out``. A sweep's ``entries`` also carry the solve's ``dofs`` (real unknowns
    Newton solved for) and ``group_order`` (signed permutations of the unknowns
    that fix g and the guess): both are deterministic, so reruns stay
    byte-identical, and ``read_manifest`` ignores them."""
    records = []
    for i, (e, field) in enumerate(zip(entries, fields)):
        rec = {"n": int(e["n"]), "alpha": float(e["alpha"]), "field": f"{stem}_{e['n']:04d}.json",
               "residual_H": float(e["residual_H"]), "bound_check": float(e["bound_check"])}
        write_field(os.path.join(out, rec["field"]), field)
        if forces is not None:
            rec["force"] = f"g_{e['n']:04d}.json"
            write_field(os.path.join(out, rec["force"]), forces[i])
        rec.update({key: int(e[key]) for key in ("dofs", "group_order") if key in e})
        records.append(rec)
    doc = {"entries": records}
    if g_limit is not None:
        doc["g_limit"] = "g_limit.json"
        write_field(os.path.join(out, doc["g_limit"]), g_limit)
    write_json(os.path.join(out, "manifest.json"), doc)


def read_manifest(path):
    """Parse a manifest; returns a dict with absolute paths resolved. A document
    that is not an object with an entries list, or a path that is not a string,
    is a FieldFormatError naming the file."""
    doc = read_json(path)
    base = os.path.dirname(os.path.abspath(path))
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise FieldFormatError(f"{path}: manifest has no entries list")
    entries = []
    for i, rec in enumerate(doc["entries"]):
        try:
            entry = {key: numbers(rec[key], f"entries[{i}].{key}", key == "n").item()
                     for key in ("n", "alpha", "residual_H", "bound_check")}
            entry["field"] = os.path.join(base, rec["field"])
            if "force" in rec:
                entry["force"] = os.path.join(base, rec["force"])
            if not np.isfinite([entry[k] for k in ("alpha", "residual_H", "bound_check")]).all():
                raise ValueError(f"entries[{i}]: alpha, residual_H and bound_check must be finite")
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldFormatError(f"{path}: malformed manifest entry ({exc})") from exc
        entries.append(entry)
    out = {"entries": entries}
    if "g_limit" in doc:
        try:
            out["g_limit"] = os.path.join(base, doc["g_limit"])
        except TypeError as exc:
            raise FieldFormatError(f"{path}: malformed g_limit ({exc})") from exc
    return out
