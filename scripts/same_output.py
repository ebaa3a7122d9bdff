"""Check that a source tree writes the same output as this one on every benchmark workload.

    python scripts/same_output.py PARENT_SRC [--seeds 0 7] [--workload NAME ...]

PARENT_SRC is the ``src`` directory of another checkout (for example the
parent commit, unpacked with ``git archive``).  Each workload of
``sweepbench/workloads.py`` runs at each seed once against PARENT_SRC and once
against this checkout's ``src``, each in a fresh interpreter with one BLAS
thread, in its own empty directory.  The CSV bytes and the CLI stdout of the
two runs are compared.  Prints one line per workload and seed; exits 0 when
every pair is identical and 1 when any pair differs or any run fails.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEPBENCH = ROOT / "sweepbench"
CSV_NAME = "sweep.csv"
CHILD_TIMEOUT_S = 600

# run in the child: import the package from the given src, run one workload
CHILD = """
import sys
from pathlib import Path
import anharmonic
src = Path(sys.argv[1]).resolve()
if src not in Path(anharmonic.__file__).resolve().parents:
    sys.exit(f"anharmonic was imported from {anharmonic.__file__}, not from {src}")
from workloads import WORKLOADS
sys.stdout.write(WORKLOADS[sys.argv[2]].inputs(int(sys.argv[3])).run(sys.argv[4]))
"""


def run_workload(src: Path, name: str, seed: int):
    """(csv bytes, stdout) of one workload run against ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(src), str(SWEEPBENCH)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(src), name, str(seed), CSV_NAME],
            cwd=work, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")
        return (Path(work) / CSV_NAME).read_bytes(), proc.stdout


def first_difference(a: bytes, b: bytes) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {i}: {x.decode(errors='replace')!r} != {y.decode(errors='replace')!r}"
    return f"lengths {len(a)} and {len(b)} bytes"


def main(argv) -> int:
    sys.path.insert(0, str(SWEEPBENCH))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_src", type=Path)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    p.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = p.parse_args(argv)
    parent = args.parent_src.resolve()
    if not (parent / "anharmonic" / "__init__.py").is_file():
        p.error(f"{parent} holds no anharmonic package")

    ok = True
    for name in args.workload:
        for seed in args.seeds:
            try:
                before = run_workload(parent, name, seed)
                after = run_workload(ROOT / "src", name, seed)
            except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
                print(f"{name} seed={seed}: run failed: {exc}")
                ok = False
                continue
            diffs = [f"{what} differs, {first_difference(a, b)}"
                     for what, a, b in zip(("csv", "stdout"), before, after) if a != b]
            ok = ok and not diffs
            print(f"{name} seed={seed}: " + ("; ".join(diffs) if diffs else
                  f"identical ({len(after[0])} csv bytes, {len(after[1])} stdout bytes)"))
    print("same output" if ok else "output differs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
