"""Parameter sweeps, CSV emission, oracle comparison and convergence checks.

A sweep walks the grid alpha x theta x lambda x t in a fixed nested order and
emits one row per grid point per witness, so identical specs produce byte
identical CSV files.  ``WITNESSES`` is the one table of witnesses: for each
name it gives the closed-form value (a scalar closed form for f, d1, d2, d3
and N; moments of the first-order operator matrix for quadrature and
hillery), the value from exact-oracle moments (modes ``exact`` and
``compare``) and the reference a value is classified against.

Each (alpha, theta, lambda) slice is evaluated over its whole t grid on
arrays, and a result holds columns shaped (slices, T, witnesses).

``compare`` mode also records |closed form - exact| per row; the scaling
report fits log-log slopes of those errors across the lambda grid, the
decisive diagnostic for whether a closed form is first-order exact (slope
about 2) or carries a genuine first-order defect (slope about 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .criteria import classify, hillery_squeezing, hoa_d_from_moments, quadrature_squeezing
from .dynamics import MomentSet, exact_moment_block
from .fock import MAX_DIM, MAX_GRID_CELLS, MIN_DIM, ModelParams, default_dim, require_finite
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

    ``closed_form(inputs, fo_moments)`` and ``exact(moments)`` give a slice's
    two values per t (``inputs.t`` is the grid, MomentSet fields are moment
    columns); ``fo_moments`` are the first-order operator matrix's moments when
    ``needs_first_order``.  A row is classified by value - ``reference(alpha_mag)``.
    """

    closed_form: Callable[[ClosedFormInputs, Optional[MomentSet]], np.ndarray]
    exact: Callable[[MomentSet], np.ndarray]
    reference: Callable[[float], float] = lambda alpha_mag: 0.0
    needs_first_order: bool = False


# The entries look the witness functions up in this module's globals at call
# time, so rebinding e.g. ``sweep.squeezing_witness_f`` reaches the sweep.
WITNESSES = {
    "f": Witness(lambda ci, fo: squeezing_witness_f(ci), lambda m: hillery_squeezing(m)),
    "d1": Witness(lambda ci, fo: hoa_witness_d(1, ci), lambda m: hoa_d_from_moments(m, 1)),
    "d2": Witness(lambda ci, fo: hoa_witness_d(2, ci), lambda m: hoa_d_from_moments(m, 2)),
    "d3": Witness(lambda ci, fo: hoa_witness_d(3, ci), lambda m: hoa_d_from_moments(m, 3)),
    # the mean photon number is classified by its deviation from the free value
    "N": Witness(lambda ci, fo: mean_photon_number(ci),
                 lambda m: m.ada.real,
                 reference=lambda alpha_mag: alpha_mag**2),
    "quadrature": Witness(lambda ci, fo: quadrature_squeezing(fo),
                          lambda m: quadrature_squeezing(m),
                          needs_first_order=True),
    "hillery": Witness(lambda ci, fo: hillery_squeezing(fo),
                       lambda m: hillery_squeezing(m),
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

#: Most (alpha, theta, lambda) slices ``convergence_check`` recomputes.
CONVERGENCE_MAX_SLICES = 8


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
        for name in ("alpha_mag", "theta", "lam"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
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
        if self.dim is not None and self.dim < MIN_DIM:
            raise SweepSpecError(f"dim: must be >= {MIN_DIM}, got {self.dim}")
        for name, values in (("alpha_mag", self.alpha_mag), ("theta", self.theta),
                             ("lambda", self.lam), ("t_start", (self.t_start,)),
                             ("t_end", (self.t_end,))):
            if not all(math.isfinite(x) for x in values):
                raise SweepSpecError(f"{name}: values must be finite, got {values}")
        cells = (len(self.alpha_mag) * len(self.theta) * len(self.lam) * self.t_steps
                 * len(self.witnesses))
        if self.mode != "closed_form" or any(WITNESSES[w].needs_first_order for w in self.witnesses):
            # the (t_steps, dim) ket blocks; a dim above MAX_DIM is refused by validate_dimensions
            cells = max(cells, self.t_steps * min(MAX_DIM, max(map(self.dim_for, self.alpha_mag))))
        if cells > MAX_GRID_CELLS:
            raise SweepSpecError(f"t_steps: the grid holds {cells} values in one array, "
                                 f"above MAX_GRID_CELLS={MAX_GRID_CELLS}")

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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's columns, shaped (slices, T, witnesses) so that their ravel is
    in row order.  ``value_exact`` is None in mode ``closed_form`` and
    ``abs_error`` outside mode ``compare``."""

    spec: SweepSpec
    value_cf: np.ndarray
    value_exact: Optional[np.ndarray]
    abs_error: Optional[np.ndarray]
    classification: np.ndarray
    summaries: tuple

    @property
    def row_count(self) -> int:
        return self.value_cf.size

    @cached_property
    def rows(self) -> tuple:
        """The rows as SweepRow objects: a view built on first access."""
        return tuple(map(SweepRow, *self._columns(float, None)))

    def _columns(self, fmt, missing) -> tuple:
        """The nine CSV columns as lists in row order: numbers pass through ``fmt``
        (each grid coordinate once), an unfilled column holds ``missing``."""
        spec = self.spec
        ts = [fmt(t) for t in spec.t_grid().tolist()]
        slices = [tuple(map(fmt, s)) for s in _slices(spec)]
        per_slice = len(ts) * len(spec.witnesses)
        coords = [[c for s in slices for c in [s[j]] * per_slice] for j in range(3)]
        values = [[missing] * self.row_count if c is None else list(map(fmt, c.ravel().tolist()))
                  for c in (self.value_cf, self.value_exact, self.abs_error)]
        return (*coords, [t for t in ts for _ in spec.witnesses] * len(slices),
                list(spec.witnesses) * (len(ts) * len(slices)),
                *values, self.classification.ravel().tolist())


def _slices(spec: SweepSpec):
    """(alpha, theta, lambda) of each slice, in grid order."""
    return product(spec.alpha_mag, spec.theta, spec.lam)


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
    """Evaluate the grid, return columns plus per-slice summaries, write CSV if asked.

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

    slices = list(_slices(spec))
    shape = (len(slices), ts.size, len(spec.witnesses))
    value_cf = np.empty(shape)
    value_exact = np.empty(shape) if need_exact else None
    for s, (a, th, lam) in enumerate(slices):
        params = ModelParams(a, th, lam, spec.dim_for(a))
        inputs = ClosedFormInputs(a, th, lam, ts)
        fo = MomentSet(*first_order_moment_block(params, ts).T) if need_fo else None
        exact = MomentSet(*exact_moment_block(params, ts, horizon=horizon).T) if need_exact else None
        for k, w in enumerate(spec.witnesses):
            value_cf[s, :, k] = WITNESSES[w].closed_form(inputs, fo)
            if need_exact:
                value_exact[s, :, k] = WITNESSES[w].exact(exact)
        # exact values come from a normalized state, bounded by dim^k
        require_finite(value_cf[s], params, "a closed-form value")

    abs_error = np.abs(value_cf - value_exact) if spec.mode == "compare" else None
    primary = value_cf if value_exact is None else value_exact
    reference = np.array([[WITNESSES[w].reference(a) for w in spec.witnesses] for a, _, _ in slices])
    result = SweepResult(
        spec=spec, value_cf=value_cf, value_exact=value_exact, abs_error=abs_error,
        classification=classify(primary - reference[:, None, :]),
        summaries=_summaries(spec, slices, primary, abs_error),
    )
    if spec.output_path is not None:
        write_csv(result, spec.output_path)
    return result


def _summaries(spec: SweepSpec, slices, primary: np.ndarray, abs_error) -> tuple:
    """One WitnessSummary per (slice, witness), reduced over t."""
    # first occurrences, as Python's min and max take them, fix the sign of a zero
    vmin, vmax = (np.take_along_axis(primary, pick(primary, axis=1)[:, None], axis=1)[:, 0].tolist()
                  for pick in (np.argmin, np.argmax))
    crossings = np.count_nonzero(primary[:, :-1] * primary[:, 1:] < 0.0, axis=1).tolist()
    worst = (abs_error.max(axis=1).tolist() if abs_error is not None
             else [[None] * len(spec.witnesses)] * len(slices))
    return tuple(WitnessSummary(w, a, th, lam, *cells)
                 for (a, th, lam), *per_slice in zip(slices, vmin, vmax, crossings, worst)
                 for w, *cells in zip(spec.witnesses, *per_slice))


def write_csv(result: SweepResult, path) -> None:
    """Write a sweep's rows as CSV straight from its columns; floats print as
    their repr, the shortest decimal that round-trips exactly."""
    lines = [CSV_HEADER, *map(",".join, zip(*result._columns(repr, "")))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def read_csv(path):
    """Parse a sweep CSV back into rows; inverse of ``write_csv``."""
    lines = Path(path).read_text(encoding="ascii").strip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0]!r}")

    def number(cell):
        return float(cell) if cell else None

    return tuple(SweepRow(*map(float, c[:4]), c[4], float(c[5]), number(c[6]), number(c[7]), c[8])
                 for c in (line.split(",") for line in lines[1:]))


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
    for s in result.summaries:
        key = (s.witness, s.alpha_mag, s.theta, s.lam)
        worst_err[key] = max(worst_err.get(key, 0.0), s.max_abs_error)

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
    return ScalingReport(entries=tuple(entries))


@dataclass(frozen=True)
class ConvergenceReport:
    max_drift: float
    tolerance: float
    passed: bool


def convergence_check(spec: SweepSpec) -> ConvergenceReport:
    """Recompute a sampled subset of grid points at doubled truncation.

    At most ``CONVERGENCE_MAX_SLICES`` slices are sampled, at up to three times each.
    Drift is the worst change of any recorded moment, scaled by
    max(1, |moment|); passes below ``CONVERGENCE_TOL``.
    """
    validate_convergence(spec)
    combos = list(_slices(spec))
    stride = max(1, len(combos) // CONVERGENCE_MAX_SLICES)
    ts = spec.t_grid()
    sample_ts = sorted({float(ts[0]), float(ts[len(ts) // 2]), float(ts[-1])})
    horizon = spec.horizon()

    worst = 0.0
    for a, th, lam in combos[::stride][:CONVERGENCE_MAX_SLICES]:
        dim = spec.dim_for(a)
        m1 = exact_moment_block(ModelParams(a, th, lam, dim), sample_ts, horizon=horizon)
        m2 = exact_moment_block(ModelParams(a, th, lam, 2 * dim), sample_ts, horizon=horizon)
        for row1, row2 in zip(m1.tolist(), m2.tolist()):
            drift = max(abs(x1 - x2) / max(1.0, abs(x2)) for x1, x2 in zip(row1, row2))
            worst = max(worst, drift)
    return ConvergenceReport(max_drift=worst, tolerance=CONVERGENCE_TOL,
                             passed=worst < CONVERGENCE_TOL)
