"""Compare two source trees on the sweep benchmark in interleaved pairs, each
with a parent-against-parent control.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W [W ...]
        [--pairs 10] [--seconds 30] [--seed 11] --label LABEL [--what TEXT] [--out DIR]

PARENT_TREE and CHANGE_TREE are checkouts (for example the parent commit and
the change, each unpacked with ``git archive``).  A second copy of the parent,
the control, is made with ``shutil.copytree`` in a temporary directory next to
PARENT_TREE (the same file system) and removed at the end.  For each workload,
each pair is a triple: ``python3 sweepbench/run.py --workload W --seed S
--seconds X --trace 0`` runs once in the parent, once in the control and once
in the change, each with its own ``sweepbench`` and ``src``; the tree that goes
first rotates from triple to triple.  Writes ``BENCH_<LABEL>.json`` to DIR
(default: this checkout's root): per workload the number of pairs, the failed
row count of each tree, and per end-to-end metric of ``BENCHMARK.json`` the
quartiles of each tree, the ratio of the medians (change / parent), the number
of pairs the change won, the control's ratio of medians (control / parent), its
wins and the quartiles of its per-pair ratios, ``beyond_control`` and the raw
runs.  ``beyond_control`` is true when the change's ratio of medians lies beyond
every per-pair control ratio in the metric's better direction: a move the
parent also makes against itself is drift of the host, not a result of the
change.  Prints one line per run.
"""

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
#: The trees of a triple in the order of its first run; the control is a copy of the parent.
TREES = ("parent", "control", "change")
RUN_TIMEOUT_FLOOR_S = 600


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one benchmark run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(tree / "sweepbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        timeout=max(RUN_TIMEOUT_FLOOR_S, 20 * seconds))
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def triple_order(pair: int) -> tuple:
    """The order the trees run in triple ``pair``: the first tree rotates."""
    k = pair % len(TREES)
    return TREES[k:] + TREES[:k]


def summary(runs: dict, failed: dict, metrics: dict) -> dict:
    """The BENCH entry of one workload from its runs, per tree in pair order."""
    out = {"pairs": len(runs["parent"]), "failed": failed, "metrics": {}}
    for name, better in metrics.items():
        values = {tree: [r["metrics"][name]["value"] for r in runs[tree]] for tree in TREES}
        sign = 1.0 if better == "higher" else -1.0

        def wins(tree):
            return sum(sign * (v - p) > 0 for p, v in zip(values["parent"], values[tree]))

        def ratio(tree):
            return statistics.median(values[tree]) / statistics.median(values["parent"])

        control_ratios = [c / p for p, c in zip(values["parent"], values["control"])]
        out["metrics"][name] = {
            "better": better,
            **{tree: quartiles(values[tree]) for tree in TREES},
            "ratio_of_medians": round(ratio("change"), 4),
            "change_wins": wins("change"),
            "control_ratio_of_medians": round(ratio("control"), 4),
            "control_wins": wins("control"),
            "control_ratio_quartiles": quartiles(control_ratios),
            "beyond_control": all(sign * (ratio("change") - r) > 0 for r in control_ratios),
            "runs": {tree: [round(v, 6) for v in values[tree]] for tree in TREES},
        }
    return out


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_tree", type=Path)
    p.add_argument("change_tree", type=Path)
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--label", required=True)
    p.add_argument("--what", help="what the change is (default: the label)")
    p.add_argument("--out", type=Path, default=ROOT)
    args = p.parse_args(argv)
    trees = {"parent": args.parent_tree.resolve(), "change": args.change_tree.resolve()}
    for tree in trees.values():
        if not (tree / "sweepbench" / "run.py").is_file():
            p.error(f"{tree} holds no sweepbench/run.py")
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=trees["parent"].parent) as tmp:
        trees["control"] = Path(tmp) / "control"
        shutil.copytree(trees["parent"], trees["control"])
        for workload in args.workload:
            runs = {tree: [] for tree in TREES}
            failed = dict.fromkeys(TREES, 0)
            for pair in range(args.pairs):
                for tree in triple_order(pair):
                    result = run_once(trees[tree], workload, args.seed, args.seconds)
                    runs[tree].append(result)
                    failed[tree] += result["failed"]
                    shown = " ".join(f"{k}={v['value']:.6g}"
                                     for k, v in result["metrics"].items())
                    print(f"{workload} pair={pair} {tree}: {shown} failed={result['failed']}",
                          flush=True)
            workloads[workload] = summary(runs, failed, metrics)

    record = {
        "what": args.what or args.label,
        "method": (f"interleaved triples of `python3 sweepbench/run.py --workload W --seed "
                   f"{args.seed} --seconds {args.seconds:g} --trace 0`, one run each of the "
                   f"parent tree, a copy of it (the control) and the change per triple, the "
                   f"first tree rotating; each tree in its own directory; Python "
                   f"{platform.python_version()}, numpy {numpy.__version__}"),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": workloads,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
