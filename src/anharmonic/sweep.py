"""Parameter sweeps, CSV emission, oracle comparison and convergence checks.

A sweep walks the grid alpha x theta x lambda x t in a fixed nested order and
emits one row per grid point per witness, so identical specs produce byte
identical CSV files.  ``WITNESSES`` is the one table of witnesses: for each
name it gives the closed-form value (a scalar closed form for f, d1, d2, d3
and N; moments of the first-order operator matrix for quadrature and
hillery), the value from exact-oracle moments (modes ``exact`` and
``compare``) and the reference a value is classified against.

A ``SweepSpec`` is checked once, when it is built: a spec that constructs is
one ``run_sweep`` can run.  Each (alpha, theta, lambda) slice is evaluated
over its whole t grid on arrays, and a result holds columns: the rows shaped
(slices, T, witnesses) and their reductions over t shaped (slices, witnesses).

``compare`` mode also records |closed form - exact| per row; the scaling
report fits log-log slopes of those errors across the lambda grid, the
decisive diagnostic for whether a closed form is first-order exact (slope
about 2) or carries a genuine first-order defect (slope about 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product, repeat
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .criteria import classify, hillery_squeezing, hoa_d_from_moments, quadrature_squeezing
from .dynamics import MomentSet, exact_moment_blocks
from .fock import MAX_DIM, MAX_GRID_CELLS, MIN_DIM, ModelParams, default_dim, require_finite
from .perturbative import (
    ClosedFormInputs,
    first_order_moment_blocks,
    hoa_witness_d,
    mean_photon_number,
    squeezing_witness_f,
)
from .reprs import CHUNK, float_reprs


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

#: Most values ``write_csv`` formats in one ``float_reprs`` call; the call
#: holds about 230 B per value while it runs, its output included.
_CSV_RUN = CHUNK // 2

#: Most (alpha, theta, lambda) slices ``convergence_check`` recomputes.
CONVERGENCE_MAX_SLICES = 8


class SweepSpecError(ValueError):
    """A sweep specification field is invalid; the message names the field."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for one sweep run, checked when it is built.

    ``dim`` of None means the truncation heuristic is applied per alpha grid
    point.  ``witnesses`` is an ordered subset of ``WITNESS_NAMES``.
    Construction refuses, with a ``SweepSpecError`` naming the field, an
    empty, negative or non-finite grid, a t span beyond the float range, fewer
    than two t steps, an unknown mode or witness, a zero lambda in mode
    ``compare``, a ``dim`` below ``MIN_DIM``, a grid above ``MAX_GRID_CELLS``
    and an ``output_path`` that names a directory or lies in a missing one.
    Then a ``dim`` that is unsafe for some alpha (below its truncation floor
    or above ``MAX_DIM``) raises ``TruncationError``.
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
        if not math.isfinite(self.t_end - self.t_start):
            raise SweepSpecError(f"t_end: the span from t_start={self.t_start} to "
                                 f"t_end={self.t_end} leaves the float range")
        cells = (len(self.alpha_mag) * len(self.theta) * len(self.lam) * self.t_steps
                 * len(self.witnesses))
        if self.mode != "closed_form" or any(WITNESSES[w].needs_first_order for w in self.witnesses):
            # the (t_steps, dim) ket blocks; a dim above MAX_DIM is refused below
            cells = max(cells, self.t_steps * min(MAX_DIM, max(map(self.dim_for, self.alpha_mag))))
        if cells > MAX_GRID_CELLS:
            raise SweepSpecError(f"t_steps: the grid holds {cells} values in one array, "
                                 f"above MAX_GRID_CELLS={MAX_GRID_CELLS}")
        if self.output_path is not None:
            out = Path(self.output_path)
            if out.is_dir():
                raise SweepSpecError(f"out: {self.output_path!r} names a directory, not a file")
            if not out.resolve().parent.is_dir():
                raise SweepSpecError(f"out: directory {out.resolve().parent} does not exist")
        for a in self.alpha_mag:
            ModelParams(a, 0.0, max(self.lam), self.dim_for(a))

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.t_steps)

    def horizon(self) -> float:
        """Largest |t| on the grid, the bound handed to the exact oracle."""
        return float(max(abs(self.t_start), abs(self.t_end)))

    def dim_for(self, alpha_mag: float) -> int:
        return self.dim if self.dim is not None else default_dim(alpha_mag)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's columns.  The rows are shaped (slices, T, witnesses) so that
    their ravel is in row order; ``value_exact`` is None in mode
    ``closed_form`` and ``abs_error`` outside mode ``compare``.  The per-slice
    digests over t are shaped (slices, witnesses): the classified values'
    ``vmin``, ``vmax`` and ``zero_crossings``, and ``max_abs_error`` (None
    outside mode ``compare``)."""

    spec: SweepSpec
    value_cf: np.ndarray
    value_exact: Optional[np.ndarray]
    abs_error: Optional[np.ndarray]
    classification: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray
    zero_crossings: np.ndarray
    max_abs_error: Optional[np.ndarray]

    @property
    def row_count(self) -> int:
        return self.value_cf.size


def _slices(spec: SweepSpec):
    """(alpha, theta, lambda) of each slice, in grid order."""
    return product(spec.alpha_mag, spec.theta, spec.lam)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid, return its columns, write CSV if asked.

    Row order is witness-innermost within the fixed alpha, theta, lambda, t
    nesting; two runs of the same spec produce byte-identical CSV output.
    Evaluation runs in (alpha, lambda, theta) order instead: the theta slices
    of one (alpha, lambda) form a group that shares H, its eigh, the phase
    table and the bands of a_1(t) (see ``exact_moment_blocks`` and
    ``first_order_moment_blocks``), built once and dropped before the next
    group's.  Each slice's values are bit-identical to evaluating it alone.
    """
    ts = spec.t_grid()
    horizon = spec.horizon()
    need_exact = spec.mode in ("exact", "compare")
    need_fo = any(WITNESSES[w].needs_first_order for w in spec.witnesses)

    slices = list(_slices(spec))
    shape = (len(slices), ts.size, len(spec.witnesses))
    value_cf = np.empty(shape)
    value_exact = np.empty(shape) if need_exact else None
    # views indexed [alpha, theta, lambda] of the slices
    grid = (len(spec.alpha_mag), len(spec.theta), len(spec.lam), *shape[1:])
    cf = value_cf.reshape(grid)
    ex = value_exact.reshape(grid) if need_exact else None
    # A value that leaves the float range is refused: H and the evolved state in
    # the kernels, a closed-form value below.  The exact values are bounded: a
    # normalized state's moments are at most dim^4, and a phase e^{i(n-m)t},
    # n - m <= 4, overflows only where w t does for the top eigenvalue
    # w >= dim - 1/2 >= 19.5 of H, and that state is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, a in enumerate(spec.alpha_mag):
            for l, lam in enumerate(spec.lam):
                group = [ModelParams(a, th, lam, spec.dim_for(a)) for th in spec.theta]
                fo_blocks = (first_order_moment_blocks(group, ts) if need_fo
                             else repeat(None, len(group)))
                exact_blocks = (exact_moment_blocks(group, ts, horizon) if need_exact
                                else repeat(None, len(group)))
                # strict runs each kernel to its end, which drops the group's
                # eigensystem and bands before the next group builds its own
                for j, (params, fo, exact) in enumerate(zip(group, fo_blocks, exact_blocks,
                                                            strict=True)):
                    inputs = ClosedFormInputs(a, params.theta, lam, ts)
                    fo = None if fo is None else MomentSet(*fo.T)
                    exact = None if exact is None else MomentSet(*exact.T)
                    for k, w in enumerate(spec.witnesses):
                        cf[i, j, l, :, k] = WITNESSES[w].closed_form(inputs, fo)
                        if need_exact:
                            ex[i, j, l, :, k] = WITNESSES[w].exact(exact)
                    require_finite(cf[i, j, l], params, "a closed-form value")

    abs_error = np.abs(value_cf - value_exact) if spec.mode == "compare" else None
    primary = value_cf if value_exact is None else value_exact
    reference = np.array([[WITNESSES[w].reference(a) for w in spec.witnesses] for a, _, _ in slices])
    result = SweepResult(spec, value_cf, value_exact, abs_error,
                         classify(primary - reference[:, None, :]),
                         *_reductions(primary, abs_error))
    if spec.output_path is not None:
        write_csv(result, spec.output_path)
    return result


def _reductions(primary: np.ndarray, abs_error: Optional[np.ndarray]) -> tuple:
    """vmin, vmax, zero_crossings and max_abs_error of (slices, T, witnesses)
    columns, reduced over t."""
    # first occurrences, as Python's min and max take them, fix the sign of a zero
    vmin, vmax = (np.take_along_axis(primary, pick(primary, axis=1)[:, None], axis=1)[:, 0]
                  for pick in (np.argmin, np.argmax))
    # signs, not products: a product of neighbours can underflow to 0 or overflow
    signs = np.sign(primary)
    crossings = np.count_nonzero(signs[:, :-1] * signs[:, 1:] < 0.0, axis=1)
    return vmin, vmax, crossings, None if abs_error is None else abs_error.max(axis=1)


def write_csv(result: SweepResult, path) -> None:
    """Write a sweep's rows as CSV straight from its columns, in runs of
    consecutive rows, so that memory is bounded by a run and one slice's t
    grid, not by the grid.  Floats print as their repr, the shortest decimal
    that round-trips exactly, formatted in bulk by ``reprs.float_reprs``: one
    call for the grid coordinates, then one per run of at most ``_CSV_RUN``
    values, which spans slices where they are small.  An unfilled column is
    left empty."""
    spec = result.spec
    filled = [c.reshape(-1) for c in (result.value_cf, result.value_exact, result.abs_error)
              if c is not None]
    coords = [spec.t_grid(), *map(np.array, (spec.alpha_mag, spec.theta, spec.lam))]
    cells = iter(float_reprs(np.concatenate(coords)))
    ts, *axes = [list(islice(cells, c.size)) for c in coords]
    # the t and witness cells are the same in every slice
    tw = [t + b"," + w.encode() for t in ts for w in spec.witnesses]
    n = len(tw)
    slices = product(*axes)
    empty = b"," * (3 - len(filled))  # the unfilled columns, ahead of the label
    tails = {}
    rows = result.row_count
    step = max(1, _CSV_RUN // len(filled))
    with open(path, "wb") as f:
        f.write(CSV_HEADER.encode())
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            values = float_reprs(np.concatenate([c[start:stop] for c in filled]))
            columns = [values[i:i + stop - start] for i in range(0, len(values), stop - start)]
            labels = result.classification.reshape(-1)[start:stop].tolist()
            for label in set(labels).difference(tails):
                tails[label] = empty + label.encode()
            cuts = [start, *range(start - start % n + n, stop, n), stop]
            for lo, hi in zip(cuts, cuts[1:]):  # the part of each slice in this run
                j, r0, r1 = lo % n, lo - start, hi - start  # in the slice, in the run
                if j == 0:
                    prefix = b"\n" + b",".join(next(slices)) + b","
                f.write(prefix)
                f.write(prefix.join(map(b",".join, zip(
                    tw[j:j + r1 - r0], *(c[r0:r1] for c in columns),
                    map(tails.__getitem__, labels[r0:r1])))))
        f.write(b"\n")


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


def compare_report(result: SweepResult) -> ScalingReport:
    """Fit log-log slopes of a compare sweep's max-over-t |closed form - exact|
    against lambda.

    Needs mode ``compare`` and at least two distinct lambda values.  Slices
    whose errors sit at the numerical floor are reported as floor-limited
    rather than failed.
    """
    spec = result.spec
    if spec.mode != "compare":
        raise SweepSpecError("mode: compare_report requires mode='compare'")
    lams, which = np.unique(spec.lam, return_inverse=True)
    if lams.size < 2:
        raise SweepSpecError("lambda: scaling fit needs at least two distinct values")
    errors = result.max_abs_error.reshape(len(spec.alpha_mag), len(spec.theta), len(spec.lam), -1)
    # (alpha, theta, distinct lambda, witness); a repeated lambda merges its slices by max
    worst = np.zeros(errors.shape[:2] + (lams.size, errors.shape[3]))
    np.maximum.at(worst, (slice(None), slice(None), which), errors)

    entries = []
    for k, w in enumerate(spec.witnesses):
        for i, a in enumerate(spec.alpha_mag):
            for j, th in enumerate(spec.theta):
                errs = worst[i, j, :, k].tolist()
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
    if spec.mode not in ("exact", "compare"):
        raise SweepSpecError("mode: convergence_check requires mode 'exact' or 'compare'")
    for a in spec.alpha_mag:  # the doubled dimensions, before any evolution
        ModelParams(a, 0.0, max(spec.lam), 2 * spec.dim_for(a))
    combos = list(_slices(spec))
    stride = max(1, len(combos) // CONVERGENCE_MAX_SLICES)
    ts = spec.t_grid()
    sample_ts = sorted({float(ts[0]), float(ts[len(ts) // 2]), float(ts[-1])})
    horizon = spec.horizon()

    worst = 0.0
    # an H or a state that overflows is refused, and the moments are bounded (see run_sweep)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, th, lam in combos[::stride][:CONVERGENCE_MAX_SLICES]:
            dim = spec.dim_for(a)
            [m1] = exact_moment_blocks([ModelParams(a, th, lam, dim)], sample_ts, horizon)
            [m2] = exact_moment_blocks([ModelParams(a, th, lam, 2 * dim)], sample_ts, horizon)
            for row1, row2 in zip(m1.tolist(), m2.tolist()):
                drift = max(abs(x1 - x2) / max(1.0, abs(x2)) for x1, x2 in zip(row1, row2))
                worst = max(worst, drift)
    return ConvergenceReport(max_drift=worst, tolerance=CONVERGENCE_TOL,
                             passed=worst < CONVERGENCE_TOL)
