"""Tests of the benchmark's own correctness check, inputs and tracer.

    python3 -m pytest sweepbench/tests -q
"""

import math

import pytest

import anharmonic
from anharmonic import dynamics, fock, perturbative, sweep
from check import EXPECTED_VERDICTS, check_sweep, load_reference
from spans import Tracer, clear_caches
from workloads import DEFAULT_SEED, WORKLOADS


def _sweep(tmp_path, name, seed=DEFAULT_SEED):
    inputs = WORKLOADS[name].inputs(seed)
    csv_path = tmp_path / f"{name}.csv"
    clear_caches()
    stdout = inputs.run(csv_path)
    return inputs, csv_path.read_text(encoding="ascii"), stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_reference(tmp_path, name):
    inputs, text, stdout = _sweep(tmp_path, name)
    res = check_sweep(inputs, text, stdout, load_reference(inputs))
    assert (res.failed, res.problems) == (0, [])
    if inputs.workload.mode == "compare":
        assert res.verdicts == EXPECTED_VERDICTS


def test_check_catches_first_order_f_swap(tmp_path, monkeypatch):
    # the first-order f differs from the compact f by O(lambda) and scales
    # like lambda^2 against the oracle, so both the values and the f verdict move
    monkeypatch.setattr(sweep, "squeezing_witness_f", perturbative.first_order_squeezing_f)
    inputs, text, stdout = _sweep(tmp_path, "compare_small_alpha")
    res = check_sweep(inputs, text, stdout, load_reference(inputs))
    assert res.verdicts["f"] == "pass"
    assert any(p.startswith("verdict f:") for p in res.problems)
    value_problems = [p for p in res.problems if "value_cf" in p]
    assert value_problems and all("'f')" in p for p in value_problems)
    assert res.failed > 1


def test_check_counts_every_row_of_a_truncated_csv(tmp_path):
    inputs, text, stdout = _sweep(tmp_path, "exact_large_alpha")
    res = check_sweep(inputs, text.rsplit("\n", 2)[0] + "\n", stdout)
    assert res.failed == res.attempted == inputs.workload.rows_per_sweep


def test_seed_jitters_amplitudes_and_t_end_only():
    for w in WORKLOADS.values():
        a, b = w.inputs(1), w.inputs(2)
        assert a == w.inputs(1)
        assert a.alphas != b.alphas and a.t_end != b.t_end
        assert a.describe()["theta"] == b.describe()["theta"] == list(w.thetas)
        assert a.describe()["lambda"] == list(w.lams)
        assert a.thetas == tuple(t for t in (0.0, math.pi / 4, math.pi / 2) if t in a.thetas)
        dims = {tuple(fock.default_dim(x) for x in w.inputs(s).alphas) for s in range(20)}
        assert len(dims) == 1


@pytest.mark.parametrize("name, zero, nonzero", [
    ("closed_form_scalar",
     ("dynamics.eigh", "fock.coherent_state", "perturbative.first_order_moment_set"),
     ("perturbative.closed_form", "criteria.classify", "sweep.write_csv")),
    ("exact_large_alpha",
     ("perturbative.first_order_moment_set", "perturbative.a_i_first_order", "cli.main"),
     ("dynamics.eigh", "dynamics.hamiltonian", "fock.FockVector")),
])
def test_tracer_zero_calls_and_self_time(tmp_path, name, zero, nonzero):
    originals = (fock.coherent_state, dynamics.coherent_state, anharmonic.classify)
    tracer = Tracer()
    tracer.install()
    try:
        _sweep(tmp_path, name)
    finally:
        tracer.uninstall()
    assert (fock.coherent_state, dynamics.coherent_state, anharmonic.classify) == originals
    assert all(tracer.calls[n] == 0 for n in zero)
    assert all(tracer.calls[n] > 0 for n in nonzero)
    roots = [end - start for _, start, end, parent in tracer.spans if parent == -1]
    assert len(roots) == 1 == tracer.calls["sweep.run_sweep"]
    assert sum(tracer.self_s.values()) == pytest.approx(roots[0], rel=1e-9)
