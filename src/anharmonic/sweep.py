"""Parameter sweeps, CSV emission and oracle comparison.

A sweep walks the grid alpha x theta x lambda x t in a fixed nested order and
emits one row per grid point per witness, so identical specs produce byte
identical CSV files.  ``WITNESSES`` is the one table of witnesses: for each
name it gives the witness on moments (of the exact oracle, and of the
first-order operator a_1(t) where there is no scalar closed form), the scalar
closed form if any and the reference a value is classified against.

A ``SweepSpec`` is checked once, when it is built.  What only the evaluation
finds, ``run_sweep`` refuses before it writes anything: an exact slice's input
state that reaches the edge of its truncated basis, for every slice before any
H is built; then a value that leaves the float range, a time grid too long for
the exact oracle's phases, or an evolved state that reaches the edge (see
``dynamics.evolve_blocks``), in the first slice to fail in (alpha, lambda,
theta) order.  The scalar closed forms are evaluated once per sweep, over the
whole grid, everything else per (alpha, theta, lambda) slice over its whole t
grid, on arrays; a result holds columns: the rows shaped (slices, T, witnesses)
and their reductions over t shaped (slices, witnesses).

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

from .criteria import (LABELS, classify, hillery_squeezing, hoa_d_from_moments,
                       quadrature_squeezing)
from .dynamics import MomentSet, coherent_inputs, exact_moment_blocks
from .fock import MAX_DIM, MAX_GRID_CELLS, MIN_DIM, ModelParams, check_dim, default_dim, require_finite
from .perturbative import (
    LEVELS,
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

    ``moments(m)`` on MomentSet columns gives the exact value from oracle
    moments.  The closed-form value is ``closed_form(inputs)`` on the sweep's
    whole grid or, where that is None, ``moments`` on a_1(t)'s moments.
    A row is classified by value - ``reference(alpha_mag)``.
    """

    moments: Callable[[MomentSet], np.ndarray]
    closed_form: Optional[Callable[[ClosedFormInputs], np.ndarray]] = None
    reference: Callable[[float], float] = lambda alpha_mag: 0.0


# The entries look the witness functions up in this module's globals at call
# time, so rebinding e.g. ``sweep.squeezing_witness_f`` reaches the sweep.
WITNESSES = {
    "f": Witness(lambda m: hillery_squeezing(m), lambda ci: squeezing_witness_f(ci)),
    "d1": Witness(lambda m: hoa_d_from_moments(m, 1), lambda ci: hoa_witness_d(1, ci)),
    "d2": Witness(lambda m: hoa_d_from_moments(m, 2), lambda ci: hoa_witness_d(2, ci)),
    "d3": Witness(lambda m: hoa_d_from_moments(m, 3), lambda ci: hoa_witness_d(3, ci)),
    # the mean photon number is classified by its deviation from the free value
    "N": Witness(lambda m: m.ada.real, lambda ci: mean_photon_number(ci),
                 reference=lambda alpha_mag: alpha_mag**2),
    "quadrature": Witness(lambda m: quadrature_squeezing(m)),
    "hillery": Witness(lambda m: hillery_squeezing(m)),
}

WITNESS_NAMES = tuple(WITNESSES)
MODES = ("closed_form", "exact", "compare")

CSV_HEADER = "alpha_mag,theta,lambda,t,witness,value_cf,value_exact,abs_error,classification"

#: Slope threshold for a first-order-exact closed form (expected 2).
SCALING_SLOPE_THRESHOLD = 1.8

#: Below this error the fit is noise-dominated and reported as floor-limited.
SCALING_ERROR_FLOOR = 1e-13

#: Most values ``write_csv`` formats in one ``float_reprs`` call, which holds
#: about 230 B per value while it runs, its output included.  One whole chunk:
#: the writer's traced peak is 3.0 MB on the benchmark's closed_form_scalar
#: grid and 2.7 MB on compare_small_alpha (2.2 and 1.5 MB at half a chunk).
_CSV_RUN = CHUNK


class SweepSpecError(ValueError):
    """A sweep specification field is invalid; the message names the field."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for one sweep run, checked when it is built.

    ``dim`` of None means the oracle's truncation heuristic is applied per alpha
    grid point.  ``witnesses`` is an ordered subset of ``WITNESS_NAMES``.
    Construction refuses, with a ``SweepSpecError`` naming the field, a value
    that is not a number, a string grid or witness list, a witness list that
    is not an iterable of names, a non-integral ``t_steps`` or ``dim``, an
    empty, negative or non-finite grid, a t span beyond the float range,
    fewer than two t steps, an unknown mode or witness, a zero lambda in mode
    ``compare``, a ``dim`` below ``MIN_DIM``, a grid above ``MAX_GRID_CELLS``, the
    exact inputs it keeps (theta x the dims of its alphas) above it too, and an
    ``output_path`` that is not a str or path, names a directory or lies in a missing one.
    Then, in modes ``exact`` and ``compare``, a dim above ``MAX_DIM`` (given, or
    the heuristic dim of the largest alpha; ``fock.check_dim``) raises
    ``TruncationError``; whether it holds a slice is for the oracle to say.
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
        for name, kind in (("alpha_mag", tuple), ("theta", tuple), ("lam", tuple), ("t_start", float),
                           ("t_end", float), ("t_steps", int), ("dim", int)):
            value = getattr(self, name)
            if value is None and name == "dim":
                continue
            try:
                if (kind is tuple and isinstance(value, str)) or (kind is int and int(value) != value):
                    raise TypeError(f"expected {'numbers' if kind is tuple else 'an integer'}, got {value!r}")
                converted = tuple(float(x) for x in value) if kind is tuple else kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SweepSpecError(f"{'lambda' if name == 'lam' else name}: {exc}") from None
            object.__setattr__(self, name, converted)
        if isinstance(self.witnesses, str):
            raise SweepSpecError(f"witness: expected a list of names, got {self.witnesses!r}")
        try:
            object.__setattr__(self, "witnesses", tuple(self.witnesses))
        except TypeError as exc:
            raise SweepSpecError(f"witness: {exc}") from None
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
            if not isinstance(w, str) or w not in WITNESSES:
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
        if any(WITNESSES[w].closed_form is None for w in self.witnesses):
            cells = max(cells, self.t_steps * LEVELS)  # a_1(t)'s (t_steps, LEVELS) ket blocks
        # the oracle's (t_steps, dim) ket blocks, and the (theta, dim) inputs it keeps per
        # alpha; a dim above MAX_DIM is refused below, and the heuristic dim of
        # |alpha| = MAX_DIM is above it but finite
        dims = [min(MAX_DIM, self.dim_for(min(a, MAX_DIM))) for a in self.alpha_mag
                if self.mode != "closed_form"]
        cells = max(cells, self.t_steps * max(dims, default=0))
        if cells > MAX_GRID_CELLS:
            raise SweepSpecError(f"t_steps: the grid holds {cells} values in one array, "
                                 f"above MAX_GRID_CELLS={MAX_GRID_CELLS}")
        if (kept := len(self.theta) * sum(dims)) > MAX_GRID_CELLS:
            raise SweepSpecError(f"theta: the exact inputs hold {kept} values, "
                                 f"above MAX_GRID_CELLS={MAX_GRID_CELLS}")
        if self.output_path is not None:
            try:
                out = Path(self.output_path)
            except TypeError as exc:
                raise SweepSpecError(f"out: {exc}") from None
            if out.is_dir():
                raise SweepSpecError(f"out: {self.output_path!r} names a directory, not a file")
            if not out.resolve().parent.is_dir():
                raise SweepSpecError(f"out: directory {out.resolve().parent} does not exist")
        if self.mode != "closed_form":
            check_dim(self.dim_for(max(self.alpha_mag)))  # the largest dim the oracle is given

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.t_steps)

    def dim_for(self, alpha_mag: float) -> int:
        return self.dim if self.dim is not None else default_dim(alpha_mag)

    def slices(self):
        """(alpha, theta, lambda) of each slice, in grid order."""
        return product(self.alpha_mag, self.theta, self.lam)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's columns.  The rows are shaped (slices, T, witnesses) so that
    their ravel is in row order; ``value_exact`` is None in mode
    ``closed_form`` and ``abs_error`` outside mode ``compare``.  ``codes``
    classifies each row as an int8 code into ``criteria.LABELS``, and
    ``classification`` reads them as labels.  The per-slice
    digests over t are shaped (slices, witnesses): the classified values'
    ``vmin``, ``vmax`` and ``zero_crossings``, and ``max_abs_error`` (None
    outside mode ``compare``)."""

    spec: SweepSpec
    value_cf: np.ndarray
    value_exact: Optional[np.ndarray]
    abs_error: Optional[np.ndarray]
    codes: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray
    zero_crossings: np.ndarray
    max_abs_error: Optional[np.ndarray]

    @property
    def row_count(self) -> int:
        return self.value_cf.size

    @property
    def classification(self) -> np.ndarray:
        return LABELS[self.codes]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid, return its columns, write CSV if asked.

    Row order is witness-innermost within the fixed alpha, theta, lambda, t
    nesting; two runs of the same spec produce byte-identical CSV output.
    Evaluation runs in (alpha, lambda, theta) order instead: the theta slices
    of one (alpha, lambda) form a group.  Each scalar closed form is evaluated
    once per sweep, on one ``ClosedFormInputs`` of the whole grid, into the
    value columns.  The exact oracle's group shares H, its eigh and the phase
    table (see ``exact_moment_blocks``), and a_1(t)'s group only the coefficient
    rows (see ``first_order_moment_blocks``), built once and dropped before the
    next group's.  Each value is bit-identical to evaluating its slice alone.

    In modes ``exact`` and ``compare`` every slice's coherent input is built and
    checked once, per alpha at ``spec.dim_for(alpha)`` (``dynamics.coherent_inputs``),
    before the first group's H, and kept for every group of its alpha, so an input
    refusal wins over any check of an earlier group.  The other refusals come
    per slice, in (alpha, lambda, theta) order: the oracle's, then a
    closed-form value that is not finite, which the closed forms give as inf
    or nan rather than raise.
    """
    ts = spec.t_grid()
    need_exact = spec.mode in ("exact", "compare")
    entries = [WITNESSES[w] for w in spec.witnesses]
    need_fo = any(e.closed_form is None for e in entries)

    slices = list(spec.slices())
    shape = (len(slices), ts.size, len(spec.witnesses))
    value_cf = np.empty(shape)
    value_exact = np.empty(shape) if need_exact else None
    # views indexed [alpha, theta, lambda] of the slices
    grid = (len(spec.alpha_mag), len(spec.theta), len(spec.lam), *shape[1:])
    cf = value_cf.reshape(grid)
    ex = value_exact.reshape(grid) if need_exact else None
    # an input depends on alpha and theta, so the first lambda's slices stand for all
    states = [coherent_inputs([ModelParams(a, th, spec.lam[0]) for th in spec.theta],
                              spec.dim_for(a)) for a in spec.alpha_mag] if need_exact else None
    # A value that leaves the float range is refused: H and the evolved state in
    # the kernels, a closed-form value below.  The exact values are bounded: a
    # normalized state's moments are at most dim^4, and a phase e^{i(n-m)t},
    # n - m <= 4, overflows only where w t does for the top eigenvalue
    # w >= dim - 1/2 >= 19.5 of H, and the time bound refuses it before the phase
    # table is built.
    with np.errstate(over="ignore", invalid="ignore"):
        if any(e.closed_form is not None for e in entries):
            # t as one row puts lambda's axis between theta's and t's, and |alpha|'s
            # goes first: the values broadcast to cf's [alpha, theta, lambda, t]
            inputs = ClosedFormInputs(np.reshape(spec.alpha_mag, (-1, 1, 1, 1)), spec.theta,
                                      np.reshape(spec.lam, (-1, 1)), ts[None])
            for k, e in enumerate(entries):
                if e.closed_form is not None:
                    cf[..., k] = e.closed_form(inputs)
        for i, a in enumerate(spec.alpha_mag):
            for l, lam in enumerate(spec.lam):
                group = [ModelParams(a, th, lam) for th in spec.theta]
                fo_blocks = (first_order_moment_blocks(group, ts) if need_fo
                             else repeat(None, len(group)))
                exact_blocks = (exact_moment_blocks(group, ts, states[i]) if need_exact
                                else repeat(None, len(group)))
                # strict runs each kernel to its end, which drops the group's
                # eigensystem and bands before the next group builds its own
                for j, (params, fo, exact) in enumerate(zip(group, fo_blocks, exact_blocks,
                                                            strict=True)):
                    fo = None if fo is None else MomentSet(*fo.T)
                    exact = None if exact is None else MomentSet(*exact.T)
                    for k, e in enumerate(entries):
                        if e.closed_form is None:
                            cf[i, j, l, :, k] = e.moments(fo)
                        if need_exact:
                            ex[i, j, l, :, k] = e.moments(exact)
                    require_finite(cf[i, j, l], params, "a closed-form value")

    abs_error = np.abs(value_cf - value_exact) if spec.mode == "compare" else None
    primary = value_cf if value_exact is None else value_exact
    reference = np.array([[e.reference(a) for e in entries] for a, _, _ in slices])
    result = SweepResult(spec, value_cf, value_exact, abs_error,
                         classify(primary - reference[:, None, :], codes=True),
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
    # the t and witness cells, with their trailing comma, are the same in every slice
    ws = [b"," + w.encode() + b"," for w in spec.witnesses]
    tw = [t + w for t in ts for w in ws]
    n = len(tw)
    slices = product(*axes)
    empty = b"," * (3 - len(filled))  # the unfilled columns, ahead of the label
    tails = [b"," + empty + label.encode() for label in LABELS]  # by code
    codes = result.codes.reshape(-1)
    width = 2 * len(filled) + 1  # items a row: t and witness, values and their commas, tail
    rows = result.row_count
    step = max(1, _CSV_RUN // len(filled))
    with open(path, "wb") as f:
        f.write(CSV_HEADER.encode())
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            values = float_reprs(np.concatenate([c[start:stop] for c in filled]))
            columns = [values[i:i + stop - start] for i in range(0, len(values), stop - start)]
            cuts = [start, *range(start - start % n + n, stop, n), stop]
            for lo, hi in zip(cuts, cuts[1:]):  # the part of each slice in this run
                j, r0, r1 = lo % n, lo - start, hi - start  # in the slice, in the run
                if j == 0:
                    prefix = b"\n" + b",".join(next(slices)) + b","
                    # each row's tail leads into the next row of the slice
                    ends = np.array([tail + prefix for tail in tails], dtype=object)
                # one flat list of the part's items, joined once; its last row ends
                # without the prefix, which the next part writes first
                items = [b","] * ((r1 - r0) * width)
                items[0::width] = tw[j:j + r1 - r0]
                for k, c in enumerate(columns):
                    items[2 * k + 1::width] = c[r0:r1]
                items[width - 1::width] = ends[codes[lo:hi]].tolist()
                items[-1] = tails[codes[hi - 1]]
                f.write(prefix)
                f.write(b"".join(items))
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
