"""Check that a source tree writes the same output as this one on every benchmark
workload and on the fixed CLI cases.

    python scripts/same_output.py PARENT_SRC [--seeds 0 7] [--workload NAME ...]

PARENT_SRC is the ``src`` directory of another checkout (for example the
parent commit, unpacked with ``git archive``).  Each workload of
``sweepbench/workloads.py`` runs at each seed once against PARENT_SRC and once
against this checkout's ``src``, each in a fresh interpreter with one BLAS
thread, in its own empty directory.  The CSV bytes and the CLI stdout of the
two runs are compared.  Prints one line per workload and seed; exits 0 when
every pair is identical and 1 when any pair differs or any run fails.

The workloads of ``CLI_CASES`` each run once through ``anharmonic.cli.main``
with ``--out sweep.csv`` (seeds do not apply).  They reach what the benchmark
grids do not.  ``cli_edge_case`` has |alpha| = 0, whose vacuum input writes
-0.0 cells, negative t, one ``--dim`` shared by two |alpha|, and the scaling
report of two lambdas.  ``cli_first_order_case`` runs mode ``closed_form``
with the witnesses whose closed-form column comes from the moments of a_1(t),
next to scalar closed forms, at |alpha| = 0 too.  ``cli_large_alpha_first_order_case``
reaches those witnesses at |alpha| = 20, where no workload evaluates a_1(t).
``cli_closed_form_beyond_the_oracle_case`` runs mode ``closed_form``, scalar
closed forms and a_1(t), at |alpha| = 45 and 1e4, whose default dims are above
``fock.MAX_DIM``: no truncation dimension is read there.  ``cli_small_dim_case``
runs the oracle at |alpha| = 3 in 47 levels, the smallest dim whose coherent
input passes the edge check, 6 below the default dim.  ``cli_closed_form_grid_case``
runs the scalar closed forms over five theta a group, at |alpha| = 0, lambda = 0,
negative t and theta = pi/2, with t = pi/2 = 2 (pi/4) on the t = 2 theta locus.
``cli_spec_error_case``
(exit 2) and ``cli_overflow_case`` (an H beyond the float range, exit 3) are
refused; a CLI case may exit non-zero, and then its exit status, its stderr
line and the absence of its CSV are what is compared.

When two CSVs differ but their rows line up (same header, row count and first
five cells), the pair's line is followed by a value report: one line per
witness and value column that moved, with its largest |delta| in units of
the benchmark's reference tolerance (``sweepbench/check.py::tolerance``),
then the number of relabelled rows and the first few of them.  Otherwise the
line names the first differing CSV line.
"""

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SWEEPBENCH = ROOT / "sweepbench"
CSV_NAME = "sweep.csv"
CHILD_TIMEOUT_S = 600
VALUE_COLUMNS = ("value_cf", "value_exact", "abs_error")
#: Relabelled rows the value report lists.
RELABELLED_SHOWN = 3
CLI_CASES = {
    "cli_edge_case": ("--alpha", "0,2.5", "--theta=-pi/4,pi", "--lambda", "1e-3,1e-4",
                      "--t-start=-2pi", "--t-end", "2pi", "--t-steps", "33", "--dim", "60",
                      "--mode", "compare"),
    "cli_first_order_case": ("--alpha", "0,1.5", "--theta=-pi/4,pi/2", "--lambda", "1e-3,1e-2",
                             "--t-start=-pi", "--t-end", "2pi", "--t-steps", "17",
                             "--mode", "closed_form", "--witness", "quadrature,hillery,N,f"),
    "cli_large_alpha_first_order_case": ("--alpha", "20", "--theta", "0,pi/2",
                                         "--lambda", "1e-3,1e-2", "--t-steps", "9",
                                         "--mode", "closed_form", "--witness", "quadrature,hillery"),
    "cli_closed_form_beyond_the_oracle_case": ("--alpha", "45,1e4", "--witness",
                                               "N,f,quadrature,hillery", "--t-steps", "5",
                                               "--mode", "closed_form"),
    "cli_small_dim_case": ("--alpha", "3", "--theta", "pi/2", "--lambda", "1e-3,1e-4",
                           "--dim", "47", "--t-steps", "9", "--mode", "compare"),
    "cli_closed_form_grid_case": ("--alpha", "0,0.5,3", "--theta=-pi/4,0,pi/4,pi/2,1.1",
                                  "--lambda", "0,1e-3", "--t-start=-pi", "--t-end", "2pi",
                                  "--t-steps", "37", "--mode", "closed_form",
                                  "--witness", "f,d1,d2,d3,N"),
    "cli_spec_error_case": ("--t-steps", "1"),
    "cli_overflow_case": ("--lambda", "1e308", "--mode", "exact", "--t-steps", "3"),
}

# run in the child: import the package from the given src, then run one
# workload at one seed, or the CLI with the given arguments
CHILD = """
import sys
from pathlib import Path
import anharmonic
src = Path(sys.argv[1]).resolve()
if src not in Path(anharmonic.__file__).resolve().parents:
    sys.exit(f"anharmonic was imported from {anharmonic.__file__}, not from {src}")
if sys.argv[2] == "--cli":
    from anharmonic.cli import main
    sys.exit(main(sys.argv[3:]))
from workloads import WORKLOADS
sys.stdout.write(WORKLOADS[sys.argv[2]].inputs(int(sys.argv[3])).run(sys.argv[4]))
"""


class Run(NamedTuple):
    """What one run leaves: its exit status, its CSV (None if it wrote none),
    its stdout and its stderr."""

    code: int
    csv: Optional[bytes]
    stdout: bytes
    stderr: bytes


def run_workload(src: Path, name: str, seed) -> Run:
    """One workload run against ``src`` at ``seed``, or one of ``CLI_CASES``,
    whose seed is None.  A workload that exits non-zero raises RuntimeError; a
    CLI case may, as a refusal does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(src), str(SWEEPBENCH)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    args = (("--cli", *CLI_CASES[name], "--out", CSV_NAME) if name in CLI_CASES
            else (name, str(seed), CSV_NAME))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(src), *args],
            cwd=work, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 and name not in CLI_CASES:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")
        csv = Path(work) / CSV_NAME
        return Run(proc.returncode, csv.read_bytes() if csv.exists() else None,
                   proc.stdout, proc.stderr)


def first_difference(a: bytes, b: bytes) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {i}: {x.decode(errors='replace')!r} != {y.decode(errors='replace')!r}"
    return f"lengths {len(a)} and {len(b)} bytes"


def value_report(a: bytes, b: bytes):
    """Lines saying how the values of CSV ``b`` moved from ``a``, or None when
    the rows do not line up (header, row count and first five cells)."""
    from check import tolerance

    rows_a = [line.decode().split(",") for line in a.splitlines()]
    rows_b = [line.decode().split(",") for line in b.splitlines()]
    if (len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]
            or any(x[:5] != y[:5] or len(x) != len(y) for x, y in zip(rows_a, rows_b))):
        return None
    worst = {}  # (witness, column) -> largest |delta| / tolerance
    relabelled = []
    for line, (x, y) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        if x == y:
            continue
        tol = tolerance(x[4], float(x[0]))
        for column, u, v in zip(VALUE_COLUMNS, x[5:8], y[5:8]):
            if u != v:
                # a cell filled on one side only moved without bound
                delta = abs(float(v) - float(u)) / tol if u and v else math.inf
                worst[x[4], column] = max(worst.get((x[4], column), 0.0), delta)
        if x[8:] != y[8:]:
            relabelled.append(f"    line {line} ({','.join(x[:5])}): {x[8]} -> {y[8]}")
    return ([f"  {witness} {column}: largest |delta| {delta:.3g} x tolerance"
             for (witness, column), delta in worst.items()]
            + [f"  {len(relabelled)} relabelled rows"] + relabelled[:RELABELLED_SHOWN])


def main(argv) -> int:
    sys.path.insert(0, str(SWEEPBENCH))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_src", type=Path)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    names = [*sorted(WORKLOADS), *CLI_CASES]
    p.add_argument("--workload", nargs="+", choices=names, default=names)
    args = p.parse_args(argv)
    parent = args.parent_src.resolve()
    if not (parent / "anharmonic" / "__init__.py").is_file():
        p.error(f"{parent} holds no anharmonic package")

    ok = True
    runs = [(name, seed) for name in args.workload
            for seed in ((None,) if name in CLI_CASES else args.seeds)]
    for name, seed in runs:
        label = name if seed is None else f"{name} seed={seed}"
        try:
            before = run_workload(parent, name, seed)
            after = run_workload(ROOT / "src", name, seed)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"{label}: run failed: {exc}")
            ok = False
            continue
        diffs, report = [], None
        if before.code != after.code:
            diffs.append(f"exit {before.code} != {after.code}")
        if None in (before.csv, after.csv) and before.csv != after.csv:
            diffs.append("csv written by one run only")
        elif before.csv != after.csv:
            report = value_report(before.csv, after.csv)
            diffs.append("csv differs, " + ("in values" if report is not None
                                            else first_difference(before.csv, after.csv)))
        for stream in ("stdout", "stderr"):
            if getattr(before, stream) != getattr(after, stream):
                diffs.append(f"{stream} differs, "
                             f"{first_difference(getattr(before, stream), getattr(after, stream))}")
        ok = ok and not diffs
        same = (f"exit {after.code}, {len(after.stderr)} stderr bytes" if after.code else
                f"{len(after.csv)} csv bytes, {len(after.stdout)} stdout bytes")
        print(f"{label}: " + ("; ".join(diffs) if diffs else f"identical ({same})"))
        for line in report or ():
            print(line)
    print("same output" if ok else "output differs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
