"""Correctness check of one sweep's CSV (and, in compare mode, its verdicts).

Written against the documented CSV contract, not against the package, so a
change to the program cannot change what the check expects.  Every row must
sit on the expected grid in the documented order, hold finite values in the
columns its mode fills, carry a classification consistent with its own value
and, in compare mode, an ``abs_error`` equal to |value_cf - value_exact|.
Rows present in a recorded reference must also match it within ``tolerance``.

Compare-mode verdicts are refitted from the CSV: per witness, the log-log
slope of max-over-t |error| against lambda must pass (>= 1.8) for N, d1,
quadrature and hillery and fail for f, d2 and d3 (README, "Known red
acceptance checks").  The verdicts the CLI prints are held to the same table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_HEADER = "alpha_mag,theta,lambda,t,witness,value_cf,value_exact,abs_error,classification"
BOUNDARY_TOL = 1e-10
SLOPE_THRESHOLD = 1.8
ERROR_FLOOR = 1e-13
EXPECTED_VERDICTS = {
    "N": "pass", "d1": "pass", "quadrature": "pass", "hillery": "pass",
    "f": "fail", "d2": "fail", "d3": "fail",
}

#: Value tolerance relative to the largest moment a witness is built from.
#: Last-ulp reordering moves values by ~1e-16 of that scale; any O(lambda)
#: formula change (lambda >= 1e-4 here) moves them by more than 1e-5 of it.
REL_TOL = 1e-10

#: Power of max(1, |alpha|^2) that bounds the moments behind each witness.
MOMENT_ORDER = {"N": 1, "quadrature": 1, "d1": 2, "f": 2, "hillery": 2, "d2": 3, "d3": 4}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def tolerance(witness: str, alpha_mag: float) -> float:
    return REL_TOL * max(1.0, alpha_mag * alpha_mag) ** MOMENT_ORDER[witness]


def _classify(value: float) -> str:
    if value < -BOUNDARY_TOL:
        return "nonclassical"
    if value <= BOUNDARY_TOL:
        return "boundary"
    return "classical"


def _allowed_classes(value: float, tol: float) -> set:
    # classification may differ only where the value lies within tol of the band edge
    return {_classify(value - tol), _classify(value), _classify(value + tol)}


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def note(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)


def expected_grid(inputs):
    """(alpha, theta, lambda, t, witness) of every row, in CSV order."""
    w = inputs.workload
    ts = np.linspace(0.0, inputs.t_end, w.t_steps)
    for a in inputs.alphas:
        for th in inputs.thetas:
            for lam in w.lams:
                for t in ts:
                    for name in w.witnesses:
                        yield a, th, lam, float(t), name


def _num(cell: str):
    return float(cell) if cell else None


def _row_problem(cells, grid, mode) -> str:
    if len(cells) != 9:
        return "wrong number of fields"
    a, th, lam, t, name = grid
    if (float(cells[0]), float(cells[1]), float(cells[2]), cells[4]) != (a, th, lam, name):
        return "grid coordinates out of order"
    if abs(float(cells[3]) - t) > 1e-12:
        return "t off the grid"
    cf, ex, err = _num(cells[5]), _num(cells[6]), _num(cells[7])
    if (ex is None) != (mode == "closed_form") or (err is None) != (mode != "compare"):
        return "columns filled do not match the mode"
    if not all(math.isfinite(v) for v in (cf, ex, err) if v is not None):
        return "non-finite value"
    tol = tolerance(name, a)
    if err is not None and abs(err - abs(cf - ex)) > tol:
        return "abs_error is not |value_cf - value_exact|"
    primary = ex if ex is not None else cf
    if name == "N":
        primary -= a * a
    if cells[8] not in _allowed_classes(primary, tol):
        return f"classification {cells[8]} does not match value {primary!r}"
    return ""


def _reference_problem(cells, ref, name, alpha) -> str:
    tol = tolerance(name, alpha)
    cf, ex = _num(cells[5]), _num(cells[6])
    ref_cf, ref_ex = ref
    if abs(cf - ref_cf) > tol:
        return f"value_cf {cf!r} differs from reference {ref_cf!r}"
    if (ex is None) != (ref_ex is None) or (ex is not None and abs(ex - ref_ex) > tol):
        return f"value_exact {ex!r} differs from reference {ref_ex!r}"
    primary = ref_ex if ref_ex is not None else ref_cf
    if name == "N":
        primary -= alpha * alpha
    if cells[8] not in _allowed_classes(primary, tol):
        return f"classification {cells[8]} differs from reference value {primary!r}"
    return ""


def _slope_status(errs_by_lam: dict) -> str:
    lams = sorted(errs_by_lam)
    errs = [errs_by_lam[l] for l in lams]
    if min(errs) <= ERROR_FLOOR:
        return "floor-limited"
    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    return "pass" if slope >= SLOPE_THRESHOLD else "fail"


def _witness_verdict(statuses) -> str:
    statuses = set(statuses)
    if "fail" in statuses:
        return "fail"
    return "floor-limited" if statuses == {"floor-limited"} else "pass"


def refit_verdicts(rows) -> dict:
    """Per-witness scaling verdict refitted from parsed compare rows."""
    worst = {}
    for cells in rows:
        key = (cells[4], float(cells[0]), float(cells[1]))
        lam = float(cells[2])
        per_lam = worst.setdefault(key, {})
        per_lam[lam] = max(per_lam.get(lam, 0.0), float(cells[7]))
    statuses = {}
    for (name, _, _), per_lam in worst.items():
        statuses.setdefault(name, []).append(_slope_status(per_lam))
    return {name: _witness_verdict(s) for name, s in statuses.items()}


def reported_verdicts(stdout: str) -> dict:
    """Per-witness verdict from the CLI's ``scaling ... status=`` lines."""
    statuses = {}
    for line in stdout.splitlines():
        if not line.startswith("scaling "):
            continue
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        statuses.setdefault(fields["witness"], []).append(fields["status"])
    return {name: _witness_verdict(s) for name, s in statuses.items()}


def check_sweep(inputs, csv_text: str, stdout: str = "", reference=None) -> CheckResult:
    """Check one sweep's CSV text; ``reference`` maps row index -> (cf, exact)."""
    w = inputs.workload
    n_verdicts = len(w.witnesses) if w.mode == "compare" else 0
    res = CheckResult(attempted=w.rows_per_sweep + n_verdicts)
    lines = csv_text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        res.failed = res.attempted
        res.note("CSV header does not match the contract")
        return res
    if len(lines) - 1 != w.rows_per_sweep:
        res.failed = res.attempted
        res.note(f"{len(lines) - 1} rows, expected {w.rows_per_sweep}")
        return res

    rows = [line.split(",") for line in lines[1:]]
    for i, (cells, grid) in enumerate(zip(rows, expected_grid(inputs))):
        try:
            problem = _row_problem(cells, grid, w.mode)
            if not problem and reference is not None and i in reference:
                problem = _reference_problem(cells, reference[i], grid[4], grid[0])
        except ValueError:
            problem = "unparseable field"
        if problem:
            res.failed += 1
            res.note(f"row {i + 1} {grid}: {problem}")

    if n_verdicts:
        try:
            res.verdicts = refit_verdicts(rows)
        except (ValueError, np.linalg.LinAlgError):
            res.verdicts = {}
        reported = None
        if w.via_cli:
            try:
                reported = reported_verdicts(stdout)
            except (ValueError, KeyError):
                reported = {}
        for name in w.witnesses:
            want = EXPECTED_VERDICTS[name]
            got = [res.verdicts.get(name)] + ([reported.get(name)] if reported is not None else [])
            if any(g != want for g in got):
                res.failed += 1
                res.problems.append(f"verdict {name}: expected {want}, refit/reported {got}")
    return res


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json"


def load_reference(inputs) -> dict:
    """Recorded reference rows for these inputs; recorded for other inputs is an error."""
    path = reference_path(inputs.workload.name)
    data = json.loads(path.read_text())
    if data["inputs"] != inputs.describe():
        raise ValueError(f"{path} was recorded for other inputs than seed {inputs.seed}")
    return {i: (cf, ex) for i, cf, ex in data["rows"]}


def reference_rows(inputs, csv_text: str, stride: int) -> list:
    """[index, value_cf, value_exact] of every row whose t index is a multiple
    of ``stride`` or the last one."""
    w = inputs.workload
    per_t = len(w.witnesses)
    out = []
    for i, line in enumerate(csv_text.strip("\n").split("\n")[1:]):
        k = (i // per_t) % w.t_steps
        if k % stride == 0 or k == w.t_steps - 1:
            cells = line.split(",")
            out.append([i, float(cells[5]), _num(cells[6])])
    return out
