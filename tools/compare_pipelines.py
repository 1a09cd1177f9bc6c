"""Run the reference CLI pipelines with two source trees and compare what they write.

Usage:
    python tools/compare_pipelines.py OLD_SRC NEW_SRC WORKDIR

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts; WORKDIR
receives ``old/<pipeline>`` and ``new/<pipeline>``. Each stage runs as
``python -m grashof_expand.cli`` with relative paths, so the two trees see the
same paths. The pipelines are the README example45 window (``--c2 1``), the
three example45 windows whose deep levels ``extract`` cuts, example314 at
T = 256 with its analytic expansions, and continuation sweeps: the README
``g_limit`` sweep at N = 8, 16 and 24, the per-n-force ``sweep --fixture
example45`` and the ``--coeffs 2=1.27,3=0.9`` forcing's sweep, which exits 1
when Newton stalls at sweep index 10.

Every file's bytes and permission bits, and every stage's exit code, stdout
and stderr, must be identical. Exits 0 when they are, else 1 with each
difference listed.
Passing the same tree twice (``src src``) checks that every pipeline reruns
byte-identically in fresh interpreters.

The trees' tests are not run here. To test each tree, run pytest from inside
that tree: ``pyproject.toml`` sets pytest's ``pythonpath = ["src"]``, which
goes ahead of ``PYTHONPATH``, so ``PYTHONPATH=<other tree>/src`` would still
import the checkout's own ``src``.
"""

import os
import stat
import subprocess
import sys

EX45 = {
    "readme": ["--c2", "1"],
    "c2-0.7": ["--c2", "0.7"],
    "two-coeffs": ["--coeffs", "2=1.27,3=0.9"],
    "two-coeffs-unitary-cut": ["--coeffs", "2=1.1181,3=0.7442"],
}


def _sweep(fixture_args, n):
    """A doubling sweep of 12 steps from alpha 1 on the g_limit of an example45 window."""
    return [["fixtures", "example45", *fixture_args, "--count", "20", "--out", "fx"],
            ["sweep", "--force", "fx/g_limit.json", "--alpha-start", "1", "--alpha-factor", "2",
             "--count", "12", "--truncation", str(n), "--out", "sweep"]]


SWEEPS = {
    **{f"sweep-readme-n{n}": _sweep(EX45["readme"], n) for n in (8, 16, 24)},
    "sweep-fixture": [["sweep", "--fixture", "example45", "--count", "12",
                       "--truncation", "8", "--out", "sweep"]],
    "sweep-two-coeffs": _sweep(EX45["two-coeffs"], 8),
}


PIPELINES = [*EX45, "ex314", *SWEEPS]


def stages(name):
    """The CLI argument lists of pipeline ``name``, in order."""
    if name in SWEEPS:
        return SWEEPS[name]
    if name == "ex314":
        return [
            ["fixtures", "example314", "--count", "6", "--truncation", "256",
             "--with-expansions", "--out", "fx"],
            ["extract", "--manifest", "fx/manifest.json", "--scale", "constant:0",
             "--depth", "3", "--out", "exp"],
            ["verify", "--expansion", "exp/expansion.json", "--manifest", "fx/manifest.json"],
            ["verify", "--expansion", "fx/expansion_analytic.json",
             "--manifest", "fx/manifest.json"],
            ["report", "--manifest", "fx/manifest.json", "--expansion", "exp/expansion.json",
             "--out", "report"],
        ]
    return [
        ["fixtures", "example45", *EX45[name], "--count", "20", "--out", "fx"],
        ["extract", "--manifest", "fx/manifest.json", "--scale", "default-2dp",
         "--depth", "6", "--out", "exp"],
        ["verify", "--expansion", "exp/expansion.json", "--manifest", "fx/manifest.json"],
        ["classify", "--expansion", "exp/expansion.json", "--manifest", "fx/manifest.json",
         "--out", "class.json"],
        ["report", "--manifest", "fx/manifest.json", "--expansion", "exp/expansion.json",
         "--classification", "class.json", "--out", "report"],
    ]


def run_pipeline(src, name, root):
    """Run pipeline ``name`` in the fresh directory ``root``; returns the
    {label: bytes} of every stage's exit code, stdout and stderr and of every
    file's bytes and permission bits (``<path> mode``, in octal)."""
    os.makedirs(root)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "OPENBLAS_NUM_THREADS": "1"}
    out = {}
    for i, argv in enumerate(stages(name)):
        proc = subprocess.run([sys.executable, "-m", "grashof_expand.cli", *argv],
                              cwd=root, env=env, capture_output=True)
        label = f"stage {i} {argv[0]}"
        out[f"{label} exit"] = str(proc.returncode).encode()
        out[f"{label} stdout"] = proc.stdout
        out[f"{label} stderr"] = proc.stderr
    for base, _, files in os.walk(root):
        for f in files:
            path = os.path.join(base, f)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                out[rel] = fh.read()
            out[f"{rel} mode"] = oct(stat.S_IMODE(os.stat(path).st_mode)).encode()
    return out


def compare(old, new):
    """The differences of two pipelines' outputs, one line each."""
    faults = []
    for label in sorted(set(old) | set(new)):
        a, b = old.get(label), new.get(label)
        if a is None or b is None:
            faults.append(f"{label}: only in {'new' if a is None else 'old'}")
        elif a != b:
            faults.append(f"{label}: differs")
    return faults


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    old_src, new_src, work = argv
    bad = 0
    for name in PIPELINES:
        old = run_pipeline(old_src, name, os.path.join(work, "old", name))
        new = run_pipeline(new_src, name, os.path.join(work, "new", name))
        faults = compare(old, new)
        same = sum(old.get(k) == new.get(k) for k in set(old) | set(new))
        print(f"== {name}: {same} of {len(set(old) | set(new))} outputs byte-identical")
        for line in faults:
            print(f"  FAULT: {line}")
        bad += len(faults)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
