"""Sweep benchmark: end-to-end figures per workload, or a traced per-module split.

    python3 sweepbench/run.py --workload compare_small_alpha --seed 3 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Every sweep starts with the package's ``lru_cache``s empty, as
every CLI invocation does.  One untimed sweep comes first; then sweeps repeat
until ``--seconds`` have passed.  Every sweep's CSV is checked (check.py);
``failed``/``attempted`` count the rows and compare-mode verdicts that fail.

``--trace 0`` prints the end-to-end metrics:
  rows_per_s   CSV rows per second of sweep wall time (all rows / all sweep time)
  sweep_s      median wall time of one sweep, CSV write included
  setup_s      median wall time of ``import anharmonic`` in a fresh interpreter
  peak_rss_mb  peak resident memory of a child process running one sweep
``--trace 1`` alternates untraced and traced sweeps (spans.py) and prints
per-sweep call counts, median self times, eigh work, cache hits and misses,
CSV bytes and the tracing overhead.  Both write a result file with the
environment under ``sweepbench/out/``; a traced run also writes the spans of
its first traced sweep there.

At least three sweeps are timed whatever ``--seconds`` says.  The last line
of stdout is the JSON result; the lines before it give each metric with its
unit and sample count, and ``failed_frac``.
"""

import os
import sys

BLAS_THREADS = 1
# pinned before numpy is imported, here and (through the environment) in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
from check import CheckResult, check_sweep, load_reference  # noqa: E402
from spans import Tracer, cache_counts, clear_caches  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SWEEPS = 3
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "anharmonic").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "seed": seed,
    }


class Checker:
    """Checks every sweep of one input set; a sweep byte-identical to one
    that passed the full check passes without re-parsing."""

    def __init__(self, inputs, reference=None):
        self.inputs = inputs
        self.reference = reference
        self.result = CheckResult()
        self._passed = None

    def __call__(self, csv_path: Path, stdout) -> None:
        w = self.inputs.workload
        if stdout is None:  # the sweep raised: all its rows count as failed
            n = w.rows_per_sweep + (len(w.witnesses) if w.mode == "compare" else 0)
            self.result.add(CheckResult(attempted=n, failed=n, problems=["sweep raised"]))
            return
        text = csv_path.read_text(encoding="ascii") if csv_path.is_file() else ""
        if self._passed == (text, stdout):
            self.result.add(CheckResult(attempted=self._attempted))
            return
        res = check_sweep(self.inputs, text, stdout, self.reference)
        self.result.add(res)
        if res.failed == 0:
            self._passed, self._attempted = (text, stdout), res.attempted


def sweep_once(inputs, csv_path: Path):
    """Cold-cache sweep; returns (wall seconds, stdout or None if it raised)."""
    csv_path.unlink(missing_ok=True)
    clear_caches()
    t0 = perf_counter()
    try:
        stdout = inputs.run(csv_path)
    except Exception:  # the benchmark keeps measuring and counts the rows as failed
        traceback.print_exc()
        stdout = None
    return perf_counter() - t0, stdout


def setup_times() -> list:
    """``import anharmonic`` in fresh interpreters, timed inside each one."""
    code = ("from time import perf_counter; t = perf_counter(); import anharmonic; "
            "print(perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                                 capture_output=True, text=True, check=True,
                                 timeout=CHILD_TIMEOUT_S).stdout)
            for _ in range(SETUP_SAMPLES)]


def peak_rss_mb(workload: str, seed: int, csv_path: Path, checker: Checker) -> float:
    csv_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "rss_child.py"), workload, str(seed), str(csv_path)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    checker(csv_path, result["stdout"])
    return result["maxrss_kb"] / 1024.0


def default_seed_check(workload, seed: int):
    """The reference is recorded for the default seed; other seeds sweep it once more."""
    inputs = workload.inputs(DEFAULT_SEED)
    checker = Checker(inputs, load_reference(inputs))
    if seed != DEFAULT_SEED:
        csv_path = OUT / f"{workload.name}-default-seed.csv"
        _, stdout = sweep_once(inputs, csv_path)
        checker(csv_path, stdout)
        csv_path.unlink(missing_ok=True)
    return checker


def end_to_end(inputs, seconds: float, csv_path: Path, checker: Checker):
    w = inputs.workload
    checker(csv_path, sweep_once(inputs, csv_path)[1])  # untimed first sweep
    times = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(times) < MIN_SWEEPS:
        dt, stdout = sweep_once(inputs, csv_path)
        times.append(dt)
        checker(csv_path, stdout)
    setups = setup_times()
    rss = peak_rss_mb(w.name, inputs.seed, csv_path, checker)
    metrics = {
        "rows_per_s": (w.rows_per_sweep * len(times) / sum(times), "rows/s", len(times)),
        "sweep_s": (statistics.median(times), "s", len(times)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    return metrics, {"sweep_s": times, "setup_s": setups}


def per_layer(inputs, seconds: float, csv_path: Path, checker: Checker, spans_path: Path):
    tracer = Tracer()
    checker(csv_path, sweep_once(inputs, csv_path)[1])  # untimed first sweep
    plain, traced, samples = [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(traced) < MIN_SWEEPS:
        dt, stdout = sweep_once(inputs, csv_path)
        plain.append(dt)
        checker(csv_path, stdout)
        tracer.reset()
        tracer.install()
        try:
            dt, stdout = sweep_once(inputs, csv_path)
        finally:
            tracer.uninstall()
        traced.append(dt)
        checker(csv_path, stdout)
        sample = {}
        for name in tracer.names:
            sample[f"{name}.calls"] = tracer.calls[name]
            sample[f"{name}.self_s"] = tracer.self_s[name]
        sample["dynamics.eigh.work_d3"] = tracer.eigh_work_d3
        sample.update(cache_counts())
        sample["sweep.write_csv.bytes"] = csv_path.stat().st_size if csv_path.is_file() else 0
        samples.append(sample)
        if len(traced) == 1:
            with gzip.open(spans_path, "wt", encoding="ascii") as f:
                f.write("span,name,start,end,parent\n")
                f.writelines(tracer.span_lines())
    metrics = {}
    for key in samples[0]:
        unit = "s" if key.endswith("_s") else "B" if key.endswith(".bytes") else "count"
        metrics[key] = (statistics.median(s[key] for s in samples), unit, len(samples))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio", len(traced))
    varying = sorted(k for k in samples[0] if not k.endswith("_s")
                     and len({s[k] for s in samples}) > 1)
    return metrics, {"sweep_s_untraced": plain, "sweep_s_traced": traced,
                     "counts_that_varied": varying}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "anharmonic" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anharmonic  # noqa: F401  (the tracer wraps the modules loaded here)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{workload.name}.csv"
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    checker = Checker(inputs, load_reference(inputs) if args.seed == DEFAULT_SEED else None)
    if args.trace:
        metrics, raw = per_layer(inputs, args.seconds, csv_path, checker,
                                 OUT / f"{workload.name}-spans.csv.gz")
    else:
        metrics, raw = end_to_end(inputs, args.seconds, csv_path, checker)
    checker.result.add(default_seed_check(workload, args.seed).result)
    csv_path.unlink(missing_ok=True)
    res = checker.result

    env = environment(args.seed)
    record = {
        "workload": workload.name, "why": workload.why, "inputs": inputs.describe(),
        "trace": args.trace, "environment": env,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "raw": raw, "attempted": res.attempted, "failed": res.failed, "problems": res.problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} nproc={env['nproc']} commit={env['git_commit']}")
    for problem in res.problems:
        print(f"check: {problem}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.10g} {unit} (samples={n})")
    print(f"failed_frac = {res.failed / max(res.attempted, 1):.6g} ratio "
          f"({res.failed} of {res.attempted})")
    print(json.dumps({
        "correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
