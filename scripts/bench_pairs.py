"""Compare two source trees on the sweep benchmark in interleaved pairs.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W [W ...]
        [--pairs 10] [--seconds 30] [--seed 11] --label LABEL [--what TEXT] [--out DIR]

PARENT_TREE and CHANGE_TREE are checkouts (for example the parent commit and
the change, each unpacked with ``git archive``).  For each workload, each pair
runs ``python3 sweepbench/run.py --workload W --seed S --seconds X --trace 0``
once in each tree, with that tree's own ``sweepbench`` and ``src``; the tree
that goes first alternates from pair to pair.  Writes ``BENCH_<LABEL>.json``
to DIR (default: this checkout's root): per workload the number of pairs, the
failed row count of each tree, and per end-to-end metric of ``BENCHMARK.json``
the quartiles of each tree, the ratio of the medians (change / parent), the
number of pairs the change won, and the raw runs.  Prints one line per run.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")
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


def summary(runs: dict, failed: dict, metrics: dict) -> dict:
    """The BENCH entry of one workload from its runs, per tree in pair order."""
    out = {"pairs": len(runs["parent"]), "failed": failed, "metrics": {}}
    for name, better in metrics.items():
        values = {tree: [r["metrics"][name]["value"] for r in runs[tree]] for tree in TREES}
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out["metrics"][name] = {
            "better": better,
            **{tree: quartiles(values[tree]) for tree in TREES},
            "ratio_of_medians": round(statistics.median(values["change"])
                                      / statistics.median(values["parent"]), 4),
            "change_wins": wins,
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
    for workload in args.workload:
        runs = {tree: [] for tree in TREES}
        failed = dict.fromkeys(TREES, 0)
        for pair in range(args.pairs):
            for tree in (TREES if pair % 2 == 0 else TREES[::-1]):
                result = run_once(trees[tree], workload, args.seed, args.seconds)
                runs[tree].append(result)
                failed[tree] += result["failed"]
                shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"{workload} pair={pair} {tree}: {shown} failed={result['failed']}",
                      flush=True)
        workloads[workload] = summary(runs, failed, metrics)

    record = {
        "what": args.what or args.label,
        "method": (f"interleaved pairs of `python3 sweepbench/run.py --workload W --seed "
                   f"{args.seed} --seconds {args.seconds:g} --trace 0`, one run of the parent "
                   f"tree and one of the change per pair, the order alternating; each tree in "
                   f"its own directory; Python {platform.python_version()}, numpy "
                   f"{numpy.__version__}"),
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
