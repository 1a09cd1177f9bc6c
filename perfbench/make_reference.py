"""Regenerate the stored README-sweep solutions that the sweep-n8 gate compares against.

    python3 perfbench/make_reference.py

Runs ``steady.sweep`` on the README forcing (example45, c2 = 1; alpha = 1, 2,
..., 2048; N = 8) and writes ``perfbench/reference/readme_sweep_n8.json``.
Only rerun this when the expected solutions change on purpose: the benchmark
accepts a solution within REF_TOL (relative V norm) of the stored one.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import grashof_expand as pkg  # noqa: E402
from workloads import README_ALPHAS, README_N, REFERENCE, field_rows, readme_force  # noqa: E402


def main():
    g = readme_force(pkg)
    reports = pkg.steady.sweep(README_ALPHAS, [g] * len(README_ALPHAS), README_N)
    doc = {
        "what": "steady.sweep on g_limit of fixtures example45 --c2 1",
        "truncation": README_N,
        "alphas": README_ALPHAS,
        "newton_iters": [r.newton_iters for r in reports],
        "solutions": [field_rows(r.solution) for r in reports],
    }
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
