"""Command-line front end for parameter sweeps.

Angles and times are radians; the literal tokens ``pi``, ``2pi``, ``pi/2``,
``3pi/4`` etc. are parsed exactly so the special loci (theta = pi/2,
t = 2*theta) are hit bit-exactly rather than through truncated decimals.
Exit status: 0 on success (``--help`` included, printed to ``main``'s
``out``), 2 for specification errors (an unknown flag or mode, a pi literal
that divides by zero, a t span beyond the float range, a grid above
``fock.MAX_GRID_CELLS``, an unreadable ``--config`` and an ``--out`` naming a
directory included; ``main`` returns it rather than raising ``SystemExit``),
3 for numerical precondition failures (a truncation dimension too small,
above ``fock.MAX_DIM`` or beyond the float range, an overflowed value, or a
failed ``--check-convergence``; stderr then holds one line).  Building
the ``SweepSpec`` refuses every spec error and then an unsafe dimension, so a
spec error wins over a dimension error; ``--check-convergence`` then refuses a
mode other than exact or compare (2) and an unsafe doubled dimension (3).  No
refusal comes after a row is printed or any CSV written.  A value that starts
with '-' may follow its flag after a space (``--theta -pi/2``) or an '='
(``--theta=-pi/2``).  ``python -m anharmonic.cli`` runs ``anharmonic-sweep``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
from itertools import product
from pathlib import Path

from .fock import TruncationError
from .sweep import (
    MODES,
    WITNESS_NAMES,
    SweepSpec,
    SweepSpecError,
    compare_report,
    convergence_check,
    run_sweep,
)

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_PRECONDITION = 3

_PI_TOKEN = re.compile(
    r"^\s*([+-]?)\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)

DEFAULTS = {
    "alpha": "1",
    "theta": "0",
    "lambda": "0.001",
    "t_start": "0",
    "t_end": "2pi",
    "t_steps": "64",
    "dim": "auto",
    "mode": "closed_form",
    "witness": ",".join(WITNESS_NAMES),
    "out": None,
}


def parse_number(token: str) -> float:
    """Parse a float or an exact pi literal such as 'pi/2', '2pi', '-3pi/4'."""
    m = _PI_TOKEN.match(token)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        value = sign * coef * math.pi
        if m.group(3):
            divisor = float(m.group(3))
            if divisor == 0.0:
                raise SweepSpecError(f"pi literal {token!r} divides by zero")
            value /= divisor
        return value
    try:
        return float(token)
    except ValueError:
        raise SweepSpecError(f"cannot parse number {token!r} (use a float or a pi literal)")


def parse_number_list(text: str) -> tuple:
    items = [s for s in (piece.strip() for piece in text.split(",")) if s]
    if not items:
        raise SweepSpecError(f"empty number list {text!r}")
    return tuple(parse_number(s) for s in items)


def read_config(path) -> dict:
    """Flat key = value file; '#' starts a comment; keys mirror flag names."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SweepSpecError(f"config: cannot read {str(path)!r}: {exc}")
    conf = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SweepSpecError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        conf[key.replace("-", "_")] = value
    return conf


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS)
    if args.config:
        conf = read_config(args.config)
        unknown = set(conf) - set(DEFAULTS)
        if unknown:
            raise SweepSpecError(f"config: unknown keys {sorted(unknown)}")
        settings.update(conf)
    # every flag's dest is its settings key
    cli = {key: getattr(args, key) for key in DEFAULTS}
    cli["witness"] = ",".join(args.witness) if args.witness else None
    settings.update({k: v for k, v in cli.items() if v is not None})
    return settings


def build_spec(settings: dict) -> SweepSpec:
    dim_raw = str(settings["dim"]).strip().lower()
    if dim_raw == "auto":
        dim = None
    else:
        try:
            dim = int(dim_raw)
        except ValueError:
            raise SweepSpecError(f"dim: expected an integer or 'auto', got {settings['dim']!r}")
    try:
        t_steps = int(str(settings["t_steps"]))
    except ValueError:
        raise SweepSpecError(f"t_steps: expected an integer, got {settings['t_steps']!r}")
    witnesses = tuple(
        s for s in (piece.strip() for piece in str(settings["witness"]).split(",")) if s
    )
    return SweepSpec(
        alpha_mag=parse_number_list(str(settings["alpha"])),
        theta=parse_number_list(str(settings["theta"])),
        lam=parse_number_list(str(settings["lambda"])),
        t_start=parse_number(str(settings["t_start"])),
        t_end=parse_number(str(settings["t_end"])),
        t_steps=t_steps,
        dim=dim,
        mode=str(settings["mode"]),
        witnesses=witnesses,
        output_path=settings["out"],
    )


def _print_result(result, conv, out) -> None:
    spec = result.spec
    print(f"rows={result.row_count} mode={spec.mode}"
          + (f" csv={spec.output_path}" if spec.output_path else ""), file=out)
    digests = [result.vmin, result.vmax, result.zero_crossings]
    if result.max_abs_error is not None:
        digests.append(result.max_abs_error)
    slices = product(spec.alpha_mag, spec.theta, spec.lam)
    for (a, th, lam), *per_slice in zip(slices, *(d.tolist() for d in digests)):
        for w, vmin, vmax, crossings, *error in zip(spec.witnesses, *per_slice):
            print(f"witness={w} alpha={a!r} theta={th!r} lambda={lam!r} min={vmin!r} "
                  f"max={vmax!r} zero_crossings={crossings}"
                  + "".join(f" max_abs_error={e!r}" for e in error), file=out)
    if spec.mode == "compare" and len(set(spec.lam)) >= 2:
        report = compare_report(result)
        for e in report.entries:
            slope = "n/a" if e.slope is None else repr(round(e.slope, 4))
            print(f"scaling witness={e.witness} alpha={e.alpha_mag!r} "
                  f"theta={e.theta!r} slope={slope} status={e.status}", file=out)
    if conv is not None:
        print(_convergence_line(conv), file=out)


def _convergence_line(conv) -> str:
    return (f"convergence max_drift={conv.max_drift!r} "
            f"tolerance={conv.tolerance!r} passed={conv.passed}")


#: Flags whose values may start with '-': argparse reads '--theta -pi/2' as a
#: flag with no value, since '-pi/2' does not look to it like a number.
_SIGNED_FLAGS = ("--alpha", "--theta", "--lambda", "--t-start", "--t-end")


def _attach_signed_values(argv) -> list:
    """``argv`` with each signed flag joined to a following value that starts
    with a single '-' ('--theta -pi/2' becomes '--theta=-pi/2')."""
    joined = []
    for token in argv:
        if (joined and joined[-1] in _SIGNED_FLAGS
                and token.startswith("-") and not token.startswith("--")):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="anharmonic-sweep",
        description="Sweep the quartic-oscillator nonclassicality witnesses over "
                    "(|alpha|, theta, lambda, t) and emit deterministic CSV.",
    )
    parser.add_argument("--alpha", help="comma list of |alpha| values")
    parser.add_argument("--theta", help="comma list of phases (radians, pi literals ok)")
    parser.add_argument("--lambda", help="comma list of couplings")
    parser.add_argument("--t-start", help="grid start time (pi literals ok)")
    parser.add_argument("--t-end", help="grid end time (pi literals ok)")
    parser.add_argument("--t-steps", help="number of time points (>= 2)")
    parser.add_argument("--dim", help="truncation dimension or 'auto'")
    parser.add_argument("--mode", choices=MODES, help="evaluation mode")
    parser.add_argument("--witness", action="append",
                        help=f"witness name(s), repeatable or comma separated; from {WITNESS_NAMES}")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--check-convergence", action="store_true",
                        help="recompute sampled points at doubled dimension and report drift")
    try:
        with contextlib.redirect_stdout(out):  # where argparse prints --help
            args = parser.parse_args(_attach_signed_values(argv))
    except SystemExit as exc:  # argparse has printed the help or a usage error
        return EXIT_OK if exc.code in (0, None) else EXIT_SPEC_ERROR

    try:
        spec = build_spec(_merge_settings(args))
        conv = convergence_check(spec) if args.check_convergence else None
        if conv is not None and not conv.passed:
            print(_convergence_line(conv), file=sys.stderr)
            return EXIT_PRECONDITION
        _print_result(run_sweep(spec), conv, out)
    except (TruncationError, FloatingPointError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SweepSpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
