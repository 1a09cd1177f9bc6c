"""A/B timing of two revisions on the benchmark in ``perfbench/``.

Usage:
    python tools/ab.py PARENT_REV [CHANGE_REV] --workloads W [W ...] --pairs N
        --seconds S --seed-base K --out BENCH_<name>.json

Both revisions (CHANGE_REV defaults to HEAD) are built with ``git archive``
under ``.bench_build/ab/parent`` and ``.bench_build/ab/change``, and removed
at the end. Pair i = 1..N runs ``perfbench/run.py --workload W --seed K+i
--seconds S --trace 0`` once in each tree, the parent first on odd pairs and
the change first on even ones. Both sides run with ``OPENBLAS_NUM_THREADS=1``
and the caller's bytecode setting (``PYTHONDONTWRITEBYTECODE``). The
end-to-end metrics, their direction and their bounds come from
``BENCHMARK.json``; nothing under ``perfbench/`` is written.

The output records the environment, both revisions, every run's last line
(its JSON record), and per workload and metric each side's median and
quartiles, the change's wins, losses and ties over the pairs, and a verdict
(see ``verdict``). Exits 1 if a run failed, else 0.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "ab")
SIDES = ("parent", "change")


def tally(parent, change, better="lower"):
    """Each side's median, quartiles and extremes, and the change's wins,
    losses and ties over the pairs (``parent[i]`` and ``change[i]`` ran as
    pair i); ``better`` says whether the lower or the higher value wins."""
    sides = {}
    for side, values in zip(SIDES, (parent, change)):
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        sides[side] = {"median": float(med), "q1": float(q1), "q3": float(q3),
                       "min": float(np.min(values)), "max": float(np.max(values))}
    beats = np.less if better == "lower" else np.greater
    wins = int(np.sum(beats(change, parent)))
    losses = int(np.sum(beats(parent, change)))
    return {**sides, "pairs": len(parent), "wins": wins, "losses": losses,
            "ties": len(parent) - wins - losses}


def verdict(t, bound, better="lower"):
    """The verdict on one metric from its ``tally`` and its bound, a fraction
    of the parent's median.

    - ``improved``: at least 10 pairs, the change wins at least 9 in 10 of them
      (ties count for neither side), and its median is better than the
      parent's by more than the parent's interquartile range;
    - ``worse``: the change's median is worse than the parent's by more than
      the bound;
    - ``unresolved``: the parent's interquartile range exceeds the bound (as a
      fraction of its median), unless every change run beats every parent run;
    - ``unchanged``: anything else.

    ``main`` gives ``failed`` instead when a run of the workload failed.
    """
    p, c = t["parent"], t["change"]
    gain = p["median"] - c["median"] if better == "lower" else c["median"] - p["median"]
    iqr, scale = p["q3"] - p["q1"], bound * abs(p["median"])
    apart = c["max"] < p["min"] if better == "lower" else c["min"] > p["max"]
    if t["pairs"] >= 10 and 10 * t["wins"] >= 9 * t["pairs"] and gain > iqr:
        return "improved"
    if -gain > scale:
        return "worse"
    if iqr > scale and not apart:
        return "unresolved"
    return "unchanged"


def summarize(parent, change, bound, better):
    """``tally``, the ratio of the medians and the verdict of one metric's pairs."""
    t = tally(parent, change, better)
    return {**t, "ratio": t["change"]["median"] / t["parent"]["median"],
            "verdict": verdict(t, bound, better)}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def build(rev, dest):
    """Extract revision ``rev`` into the fresh directory ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=git("archive", "--format=tar", rev),
                   check=True)


def run_once(tree, workload, seed, seconds, env):
    """One ``perfbench/run.py`` run; (its JSON record or None, exit code, error)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = None
    error = None
    if proc.returncode != 0:
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    elif not isinstance(record, dict):
        error = "last line of standard output is not a JSON object"
    elif record.get("correct") is not True or record.get("failed") != 0:
        error = f"correct={record.get('correct')} failed={record.get('failed')}"
    return record, proc.returncode, error


def environment(shas, env):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "scipy": "present" if importlib.util.find_spec("scipy") else "absent",
        "openblas_num_threads": env["OPENBLAS_NUM_THREADS"],
        "bytecode": "not written" if env.get("PYTHONDONTWRITEBYTECODE") else "written",
        "machine": platform.machine(),
        "revisions": shas,
    }


def parse_args(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_rev")
    p.add_argument("change_rev", nargs="?", default="HEAD")
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be at least 1 and --seconds positive")
    return args, spec


def main(argv=None):
    args, spec = parse_args(argv)
    revs = {"parent": args.parent_rev, "change": args.change_rev}
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in revs.items()}
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)  # each tree's perfbench imports its own src/
    trees = {side: os.path.join(BUILD, side) for side in SIDES}
    runs = []
    try:
        for side in SIDES:
            build(shas[side], trees[side])
        for pair in range(1, args.pairs + 1):
            seed = args.seed_base + pair
            for workload in args.workloads:
                order = SIDES if pair % 2 else SIDES[::-1]
                for position, side in enumerate(order):
                    record, code, error = run_once(trees[side], workload, seed,
                                                   args.seconds, env)
                    runs.append({"workload": workload, "pair": pair, "seed": seed,
                                 "side": side, "position": position + 1, "exit": code,
                                 "error": error, "record": record})
                    shown = error and f"FAILED ({error})" or ", ".join(
                        f"{k} {v['value']:.4g}" for k, v in record["metrics"].items())
                    print(f"pair {pair} {workload} {side}: {shown}", flush=True)
    finally:
        shutil.rmtree(BUILD, ignore_errors=True)

    results = {}
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        failed = any(r["error"] for r in mine)
        results[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [(r["record"] or {}).get("metrics", {}).get(name, {}).get("value")
                             for r in mine if r["side"] == side]
                      for side in SIDES}
            if failed or None in values["parent"] + values["change"]:
                results[workload][name] = {"verdict": "failed"}
                continue
            results[workload][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **summarize(values["parent"], values["change"], metric["bound"],
                            metric["better"])}
    doc = {"schema": "ab-v1",
           "parent": {"rev": revs["parent"], "sha": shas["parent"]},
           "change": {"rev": revs["change"], "sha": shas["change"]},
           "settings": {"workloads": args.workloads, "pairs": args.pairs,
                        "seconds": args.seconds, "seed_base": args.seed_base,
                        "seeds": [args.seed_base + i for i in range(1, args.pairs + 1)],
                        "order": "parent first on odd pairs, change first on even pairs"},
           "environment": environment(shas, env),
           "results": results,
           "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, metrics in results.items():
        for name, r in metrics.items():
            if r["verdict"] == "failed":
                print(f"{workload:15s} {name:12s} failed")
                continue
            print(f"{workload:15s} {name:12s} parent {r['parent']['median']:.4g} "
                  f"[{r['parent']['q1']:.4g}, {r['parent']['q3']:.4g}]  change "
                  f"{r['change']['median']:.4g} [{r['change']['q1']:.4g}, "
                  f"{r['change']['q3']:.4g}]  ratio {r['ratio']:.3f}  wins "
                  f"{r['wins']}/{r['pairs']}  {r['verdict']}")
    return 1 if any(r["verdict"] == "failed" for m in results.values() for r in m.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
