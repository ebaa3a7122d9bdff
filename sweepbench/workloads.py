"""Seeded workload definitions for the sweep benchmark.

A seed jitters each amplitude upward by 0.05-0.10 % and shortens ``t_end`` by
at most 0.2 %.  The theta special loci (0, pi/4, pi/2) and the lambda grid
stay exact.  Upward-only amplitude jitter keeps the truncation dimension
ceil(|alpha|^2 + 8|alpha| + 20) one above the integer it hits at the
canonical amplitudes, so every seed does the same amount of dense algebra.

The program receives only the generated inputs: an argv list for the CLI
workload, a ``SweepSpec`` for the others.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

#: Exact theta loci, as the CLI literal and the float the CLI parses it to.
THETA_LITERALS = {"0": 0.0, "pi/4": math.pi / 4.0, "pi/2": math.pi / 2.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    alphas: tuple
    thetas: tuple  # keys of THETA_LITERALS
    lams: tuple
    t_end: float
    t_steps: int
    mode: str
    witnesses: tuple
    via_cli: bool

    def inputs(self, seed: int) -> "Inputs":
        rng = random.Random(f"{self.name}:{seed}")
        alphas = tuple(a * (1.0 + 5e-4 * (1.0 + rng.random())) for a in self.alphas)
        t_end = self.t_end * (1.0 - 2e-3 * rng.random())
        return Inputs(self, seed, alphas, t_end)

    @property
    def rows_per_sweep(self) -> int:
        return (len(self.alphas) * len(self.thetas) * len(self.lams)
                * self.t_steps * len(self.witnesses))


@dataclass(frozen=True)
class Inputs:
    """The generated grid of one workload at one seed."""

    workload: Workload
    seed: int
    alphas: tuple
    t_end: float

    @property
    def thetas(self) -> tuple:
        return tuple(THETA_LITERALS[s] for s in self.workload.thetas)

    def describe(self) -> dict:
        w = self.workload
        return {
            "alpha_mag": list(self.alphas), "theta": list(w.thetas), "lambda": list(w.lams),
            "t_start": 0.0, "t_end": self.t_end, "t_steps": w.t_steps,
            "mode": w.mode, "witnesses": list(w.witnesses),
            "entry": "anharmonic.cli.main" if w.via_cli else "anharmonic.sweep.run_sweep",
        }

    def argv(self, csv_path) -> list:
        w = self.workload
        return [
            "--alpha", ",".join(repr(a) for a in self.alphas),
            "--theta", ",".join(w.thetas),
            "--lambda", ",".join(repr(l) for l in w.lams),
            "--t-start", "0", "--t-end", repr(self.t_end), "--t-steps", str(w.t_steps),
            "--mode", w.mode, "--witness", ",".join(w.witnesses), "--out", str(csv_path),
        ]

    def spec(self, csv_path):
        from anharmonic import sweep
        w = self.workload
        return sweep.SweepSpec(
            alpha_mag=self.alphas, theta=self.thetas, lam=w.lams,
            t_start=0.0, t_end=self.t_end, t_steps=w.t_steps,
            mode=w.mode, witnesses=w.witnesses, output_path=str(csv_path),
        )

    def run(self, csv_path) -> str:
        """One sweep through the workload's public entry point; returns its stdout."""
        from anharmonic import cli, sweep
        if not self.workload.via_cli:
            sweep.run_sweep(self.spec(csv_path))
            return ""
        buf = io.StringIO()
        code = cli.main(self.argv(csv_path), out=buf)
        if code != 0:
            raise RuntimeError(f"anharmonic.cli.main exited with {code}")
        return buf.getvalue()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="compare_small_alpha",
        why="canonical compare sweep via cli.main: per-t first-order matrix and exact "
            "evolution dominate, eigh is negligible; the only cli and compare_report run",
        alphas=(0.5, 1.0, 2.0, 3.0), thetas=("0", "pi/4", "pi/2"), lams=(1e-3, 1e-4),
        t_end=2.0 * math.pi, t_steps=256, mode="compare",
        witnesses=("f", "d1", "d2", "d3", "N", "quadrature", "hillery"), via_cli=True,
    ),
    Workload(
        name="closed_form_scalar",
        why="scalar closed forms, ClosedFormInputs, classify, row objects and write_csv "
            "only; dynamics and the first-order matrix are never called",
        alphas=(0.5, 1.0, 2.0, 3.0), thetas=("0", "pi/4", "pi/2"), lams=(1e-3, 1e-4),
        t_end=2.0 * math.pi, t_steps=1024, mode="closed_form",
        witnesses=("f", "d1", "d2", "d3", "N"), via_cli=False,
    ),
    Workload(
        name="exact_large_alpha",
        why="exact oracle at D=201 and 581: Hamiltonian build and eigh are over half "
            "the sweep, per-t evolution the rest; no first-order matrix work",
        alphas=(10.0, 20.0), thetas=("pi/2",), lams=(1e-4, 3e-4, 1e-3),
        t_end=math.pi, t_steps=16, mode="exact",
        witnesses=("N", "d1", "d2", "d3", "f"), via_cli=False,
    ),
)}
