"""Parameter sweeps, CSV emission, oracle comparison and convergence checks.

A sweep walks the grid alpha x theta x lambda x t in a fixed nested order and
emits one row per grid point per witness, so identical specs produce byte
identical CSV files.  ``WITNESSES`` is the one table of witnesses: for each
name it gives the closed-form value (a scalar closed form for f, d1, d2, d3
and N; moments of the first-order operator matrix for quadrature and
hillery), the value from exact-oracle moments (modes ``exact`` and
``compare``) and the reference a value is classified against.

``compare`` mode also records |closed form - exact| per row; the scaling
report fits log-log slopes of those errors across the lambda grid, the
decisive diagnostic for whether a closed form is first-order exact (slope
about 2) or carries a genuine first-order defect (slope about 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .criteria import (
    DEFAULT_BOUNDARY_TOL,
    classify,
    hillery_squeezing,
    hoa_d_from_moments,
    quadrature_squeezing,
)
from .dynamics import MomentSet, exact_moment_block, moment_sets
from .fock import ModelParams, default_dim
from .perturbative import (
    ClosedFormInputs,
    first_order_moment_block,
    hoa_witness_d,
    mean_photon_number,
    squeezing_witness_f,
)


@dataclass(frozen=True)
class Witness:
    """How a sweep evaluates and classifies one witness.

    ``closed_form(inputs, fo_moments)`` and ``exact(moments)`` give the two
    values of a row; ``fo_moments`` is the first-order operator matrix's
    MomentSet when ``needs_first_order`` and None otherwise.  A row is
    classified by its value minus ``reference(alpha_mag)``.
    """

    closed_form: Callable[[ClosedFormInputs, Optional[MomentSet]], float]
    exact: Callable[[MomentSet], float]
    reference: Callable[[float], float] = lambda alpha_mag: 0.0
    needs_first_order: bool = False


# The entries look the witness functions up in this module's globals at call
# time, so rebinding e.g. ``sweep.squeezing_witness_f`` reaches the sweep.
WITNESSES = {
    "f": Witness(lambda ci, fo: squeezing_witness_f(ci),
                 lambda m: hillery_squeezing(m).value),
    "d1": Witness(lambda ci, fo: hoa_witness_d(1, ci),
                  lambda m: hoa_d_from_moments(m, 1).value),
    "d2": Witness(lambda ci, fo: hoa_witness_d(2, ci),
                  lambda m: hoa_d_from_moments(m, 2).value),
    "d3": Witness(lambda ci, fo: hoa_witness_d(3, ci),
                  lambda m: hoa_d_from_moments(m, 3).value),
    # the mean photon number is classified by its deviation from the free value
    "N": Witness(lambda ci, fo: mean_photon_number(ci),
                 lambda m: m.ada.real,
                 reference=lambda alpha_mag: alpha_mag**2),
    "quadrature": Witness(lambda ci, fo: quadrature_squeezing(fo).value,
                          lambda m: quadrature_squeezing(m).value,
                          needs_first_order=True),
    "hillery": Witness(lambda ci, fo: hillery_squeezing(fo).value,
                       lambda m: hillery_squeezing(m).value,
                       needs_first_order=True),
}

WITNESS_NAMES = tuple(WITNESSES)
MODES = ("closed_form", "exact", "compare")

CSV_HEADER = "alpha_mag,theta,lambda,t,witness,value_cf,value_exact,abs_error,classification"

#: Slope threshold for a first-order-exact closed form (expected 2).
SCALING_SLOPE_THRESHOLD = 1.8

#: Below this error the fit is noise-dominated and reported as floor-limited.
SCALING_ERROR_FLOOR = 1e-13

CONVERGENCE_TOL = 1e-9


class SweepSpecError(ValueError):
    """A sweep specification field is invalid; the message names the field."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for one sweep run.

    ``dim`` of None means the truncation heuristic is applied per alpha grid
    point.  ``witnesses`` is an ordered subset of ``WITNESS_NAMES``.
    """

    alpha_mag: tuple
    theta: tuple
    lam: tuple
    t_start: float
    t_end: float
    t_steps: int
    dim: Optional[int] = None
    mode: str = "closed_form"
    witnesses: tuple = WITNESS_NAMES
    output_path: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha_mag", tuple(float(x) for x in self.alpha_mag))
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        object.__setattr__(self, "lam", tuple(float(x) for x in self.lam))
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "t_steps", int(self.t_steps))
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if self.dim is not None:
            object.__setattr__(self, "dim", int(self.dim))
        if not self.alpha_mag:
            raise SweepSpecError("alpha_mag: grid must be nonempty")
        if any(a < 0 for a in self.alpha_mag):
            raise SweepSpecError("alpha_mag: amplitudes must be >= 0")
        if not self.theta:
            raise SweepSpecError("theta: grid must be nonempty")
        if not self.lam:
            raise SweepSpecError("lambda: grid must be nonempty")
        if any(l < 0 for l in self.lam):
            raise SweepSpecError("lambda: couplings must be >= 0")
        if self.t_steps < 2:
            raise SweepSpecError("t_steps: need at least 2 grid points")
        if self.mode not in MODES:
            raise SweepSpecError(f"mode: {self.mode!r} is not one of {MODES}")
        if not self.witnesses:
            raise SweepSpecError("witness: list must be nonempty")
        for w in self.witnesses:
            if w not in WITNESSES:
                raise SweepSpecError(f"witness: {w!r} is not one of {WITNESS_NAMES}")
        if self.mode == "compare" and any(l == 0.0 for l in self.lam):
            raise SweepSpecError("lambda: compare mode requires every lambda > 0")
        for name, values in (("alpha_mag", self.alpha_mag), ("theta", self.theta),
                             ("lambda", self.lam), ("t_start", (self.t_start,)),
                             ("t_end", (self.t_end,))):
            if not all(math.isfinite(x) for x in values):
                raise SweepSpecError(f"{name}: values must be finite, got {values}")

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.t_steps)

    def horizon(self) -> float:
        """Largest |t| on the grid, the bound handed to the exact oracle."""
        return float(max(abs(self.t_start), abs(self.t_end)))

    def dim_for(self, alpha_mag: float) -> int:
        return self.dim if self.dim is not None else default_dim(alpha_mag)


@dataclass(frozen=True)
class SweepRow:
    alpha_mag: float
    theta: float
    lam: float
    t: float
    witness: str
    value_cf: float
    value_exact: Optional[float]
    abs_error: Optional[float]
    classification: str


@dataclass(frozen=True)
class WitnessSummary:
    """Per (witness, alpha, theta, lambda) digest over the t grid."""

    witness: str
    alpha_mag: float
    theta: float
    lam: float
    vmin: float
    vmax: float
    zero_crossings: int
    max_abs_error: Optional[float]


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple
    summaries: tuple


def validate_dimensions(spec: SweepSpec, factor: int = 1) -> None:
    """Fail fast (before any evolution) when ``factor`` times the dim of an
    alpha is unsafe: below the truncation floor or above ``fock.MAX_DIM``."""
    for a in spec.alpha_mag:
        ModelParams(a, 0.0, max(spec.lam), factor * spec.dim_for(a))


def validate_convergence(spec: SweepSpec) -> None:
    """Preconditions of ``convergence_check``, checked before any evolution so
    that a run it would refuse is refused before it sweeps."""
    if spec.mode not in ("exact", "compare"):
        raise SweepSpecError("mode: convergence_check requires mode 'exact' or 'compare'")
    validate_dimensions(spec)
    validate_dimensions(spec, factor=2)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid, return rows plus per-slice summaries, write CSV if asked.

    Row order is witness-innermost within the fixed alpha, theta, lambda, t
    nesting; two runs of the same spec produce byte-identical CSV output.
    """
    validate_dimensions(spec)
    if spec.output_path is not None:
        parent = Path(spec.output_path).resolve().parent
        if not parent.is_dir():
            raise SweepSpecError(f"out: directory {parent} does not exist")
    ts = spec.t_grid()
    horizon = spec.horizon()
    need_exact = spec.mode in ("exact", "compare")
    need_fo = any(WITNESSES[w].needs_first_order for w in spec.witnesses)
    no_moments = [None] * len(ts)

    rows = []
    summaries = []
    for a in spec.alpha_mag:
        dim = spec.dim_for(a)
        evaluators = [(w, WITNESSES[w], WITNESSES[w].reference(a)) for w in spec.witnesses]
        for th in spec.theta:
            for lam in spec.lam:
                params = ModelParams(a, th, lam, dim)
                per_witness = {w: [] for w in spec.witnesses}
                fo_sets = moment_sets(first_order_moment_block(params, ts)) if need_fo else no_moments
                exact_sets = (moment_sets(exact_moment_block(params, ts, horizon=horizon))
                              if need_exact else no_moments)
                for t, fo_moments, exact_moments in zip(ts.tolist(), fo_sets, exact_sets):
                    inputs = ClosedFormInputs(a, th, lam, t)
                    for w, entry, reference in evaluators:
                        cf = entry.closed_form(inputs, fo_moments)
                        ex = entry.exact(exact_moments) if need_exact else None
                        err = abs(cf - ex) if spec.mode == "compare" else None
                        primary = ex if ex is not None else cf
                        rows.append(SweepRow(
                            alpha_mag=a, theta=th, lam=lam, t=t, witness=w,
                            value_cf=cf, value_exact=ex, abs_error=err,
                            classification=classify(primary - reference, DEFAULT_BOUNDARY_TOL),
                        ))
                        per_witness[w].append((primary, err))
                for w in spec.witnesses:
                    vals = [v for v, _ in per_witness[w]]
                    errs = [e for _, e in per_witness[w] if e is not None]
                    crossings = sum(
                        1 for i in range(len(vals) - 1) if vals[i] * vals[i + 1] < 0.0
                    )
                    summaries.append(WitnessSummary(
                        witness=w, alpha_mag=a, theta=th, lam=lam,
                        vmin=min(vals), vmax=max(vals), zero_crossings=crossings,
                        max_abs_error=max(errs) if errs else None,
                    ))

    result = SweepResult(spec=spec, rows=tuple(rows), summaries=tuple(summaries))
    if spec.output_path is not None:
        write_csv(result.rows, spec.output_path)
    return result


def _fmt(x) -> str:
    # repr of a Python float is the shortest decimal that round-trips exactly
    return "" if x is None else repr(float(x))


def write_csv(rows: Sequence[SweepRow], path) -> None:
    # 4 of a row's 7 numbers are grid coordinates that recur from row to row,
    # so each distinct one is formatted once.  Zeros are not cached: 0.0 and
    # -0.0 are one dict key but print differently.
    grid = {}

    def coord(x) -> str:
        s = grid.get(x)
        if s is None:
            s = _fmt(x)
            if x:
                grid[x] = s
        return s

    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join((
            coord(r.alpha_mag), coord(r.theta), coord(r.lam), coord(r.t), r.witness,
            _fmt(r.value_cf), _fmt(r.value_exact), _fmt(r.abs_error), r.classification,
        )))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def read_csv(path):
    """Parse a sweep CSV back into rows; inverse of ``write_csv``."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.strip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(SweepRow(
            alpha_mag=float(cells[0]), theta=float(cells[1]), lam=float(cells[2]),
            t=float(cells[3]), witness=cells[4], value_cf=float(cells[5]),
            value_exact=float(cells[6]) if cells[6] else None,
            abs_error=float(cells[7]) if cells[7] else None,
            classification=cells[8],
        ))
    return tuple(rows)


@dataclass(frozen=True)
class ScalingEntry:
    """Fitted lambda-scaling exponent of |closed form - exact| for one slice."""

    witness: str
    alpha_mag: float
    theta: float
    slope: Optional[float]
    status: str  # "pass" | "fail" | "floor-limited"


@dataclass(frozen=True)
class ScalingReport:
    entries: tuple
    threshold: float

    def worst_slope(self, witness: str) -> Optional[float]:
        slopes = [e.slope for e in self.entries if e.witness == witness and e.slope is not None]
        return min(slopes) if slopes else None

    def status_of(self, witness: str) -> str:
        statuses = {e.status for e in self.entries if e.witness == witness}
        if "fail" in statuses:
            return "fail"
        if statuses == {"floor-limited"}:
            return "floor-limited"
        return "pass"


def compare_report(spec: SweepSpec, result: Optional[SweepResult] = None) -> ScalingReport:
    """Fit log-log slopes of max-over-t |closed form - exact| against lambda.

    Needs mode ``compare`` and at least two distinct lambda values.  Slices
    whose errors sit at the numerical floor are reported as floor-limited
    rather than failed.
    """
    if spec.mode != "compare":
        raise SweepSpecError("mode: compare_report requires mode='compare'")
    lams = sorted(set(spec.lam))
    if len(lams) < 2:
        raise SweepSpecError("lambda: scaling fit needs at least two distinct values")
    if result is None:
        result = run_sweep(spec)

    worst_err = {}
    for r in result.rows:
        key = (r.witness, r.alpha_mag, r.theta, r.lam)
        worst_err[key] = max(worst_err.get(key, 0.0), r.abs_error)

    entries = []
    for w in spec.witnesses:
        for a in spec.alpha_mag:
            for th in spec.theta:
                errs = [worst_err[(w, a, th, lam)] for lam in lams]
                if min(errs) <= SCALING_ERROR_FLOOR:
                    entries.append(ScalingEntry(w, a, th, None, "floor-limited"))
                    continue
                slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
                status = "pass" if slope >= SCALING_SLOPE_THRESHOLD else "fail"
                entries.append(ScalingEntry(w, a, th, slope, status))
    return ScalingReport(entries=tuple(entries), threshold=SCALING_SLOPE_THRESHOLD)


@dataclass(frozen=True)
class ConvergenceSample:
    alpha_mag: float
    theta: float
    lam: float
    t: float
    drift: float


@dataclass(frozen=True)
class ConvergenceReport:
    max_drift: float
    tolerance: float
    passed: bool
    samples: tuple


def convergence_check(spec: SweepSpec, max_combos: int = 8) -> ConvergenceReport:
    """Recompute a sampled subset of grid points at doubled truncation.

    Drift is the worst change of any recorded moment, scaled by
    max(1, |moment|); passes below ``CONVERGENCE_TOL``.
    """
    validate_convergence(spec)
    combos = [(a, th, lam) for a in spec.alpha_mag for th in spec.theta for lam in spec.lam]
    stride = max(1, len(combos) // max_combos)
    ts = spec.t_grid()
    sample_ts = sorted({float(ts[0]), float(ts[len(ts) // 2]), float(ts[-1])})
    horizon = spec.horizon()

    samples = []
    worst = 0.0
    for a, th, lam in combos[::stride][:max_combos]:
        dim = spec.dim_for(a)
        m1 = exact_moment_block(ModelParams(a, th, lam, dim), sample_ts, horizon=horizon)
        m2 = exact_moment_block(ModelParams(a, th, lam, 2 * dim), sample_ts, horizon=horizon)
        for t, row1, row2 in zip(sample_ts, m1.tolist(), m2.tolist()):
            drift = max(abs(x1 - x2) / max(1.0, abs(x2)) for x1, x2 in zip(row1, row2))
            samples.append(ConvergenceSample(a, th, lam, t, drift))
            worst = max(worst, drift)
    return ConvergenceReport(
        max_drift=worst,
        tolerance=CONVERGENCE_TOL,
        passed=worst < CONVERGENCE_TOL,
        samples=tuple(samples),
    )
