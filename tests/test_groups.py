"""A sweep's (|alpha|, lambda) groups: shared work, the same bits, nothing kept.

``run_sweep`` evaluates the theta slices of one (|alpha|, lambda) as a group
that builds H, its ``eigh`` and the exp(-iwt) table once (``exact_moment_blocks``)
and the coefficient rows of a_1(t) once (``first_order_moment_blocks``); the scalar
closed forms run once a sweep, over the whole grid.  Every slice must come out bit for
bit as the one-slice group ``[params]`` and the one-slice closed-form call give it, and
each group's arrays must be gone before the next group's ``eigh``.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anharmonic import dynamics, perturbative, sweep
from anharmonic.dynamics import (
    MomentSet,
    coherent_inputs,
    evolve_blocks,
    exact_moment_blocks,
)
from anharmonic.fock import ModelParams, TruncationError, coherent_state, default_dim
from anharmonic.perturbative import (
    ClosedFormInputs,
    first_order_moment_blocks,
)
from anharmonic.sweep import WITNESS_NAMES, WITNESSES, SweepSpec, run_sweep

#: (mode, witnesses): both matrix paths, the first-order path alone, and the
#: scalar closed forms alone.
MODES = [("exact", WITNESS_NAMES), ("compare", WITNESS_NAMES),
         ("closed_form", ("quadrature", "hillery")), ("closed_form", ("f", "d1", "d2", "d3", "N"))]
SCALAR = MODES[3]

amplitudes = st.lists(st.sampled_from([0.0, 0.4, 1.3, 2.0]), min_size=1, max_size=2)
phases = st.lists(st.sampled_from([0.0, -0.0, 0.7, np.pi / 2, 2.5]), min_size=1, max_size=3)
#: At 1e-2 the oracle refuses |alpha| = 1.3 and 2.0 at their default dims.
couplings = st.lists(st.sampled_from([1e-4, 1e-3, 3e-3]), min_size=1, max_size=2)


def mode_grids(mode):
    """(mode, amplitudes, couplings).  The scalar closed forms run no oracle, so
    there |alpha| reaches 40 and lambda 0."""
    if mode == SCALAR:
        return st.tuples(st.just(mode), st.lists(st.floats(0.0, 40.0), min_size=1, max_size=2),
                         st.lists(st.sampled_from([0.0, 1e-4, 3e-3]), min_size=1, max_size=2))
    return st.tuples(st.just(mode), amplitudes, couplings)


def bits(values):
    return np.asarray(values).view(np.uint64)


def one_slice_walk(spec):
    """value_cf and value_exact of ``spec`` from one-slice groups, slice by slice:
    an entry without a scalar closed form takes its closed-form value from a_1(t)."""
    ts = spec.t_grid()
    entries = [WITNESSES[w] for w in spec.witnesses]
    cf, exact = [], []
    for a, th, lam in spec.slices():
        params = ModelParams(a, th, lam)
        [block] = first_order_moment_blocks([params], ts)
        fo = MomentSet(*block.T)
        inputs = ClosedFormInputs(a, th, lam, ts)
        cf.append([e.moments(fo) if e.closed_form is None else e.closed_form(inputs)
                   for e in entries])
        if spec.mode != "closed_form":
            [block] = exact_moment_blocks([params], ts, coherent_inputs([params], spec.dim_for(a)))
            m = MomentSet(*block.T)
            exact.append([e.moments(m) for e in entries])
    return (np.array(cf).transpose(0, 2, 1),
            np.array(exact).transpose(0, 2, 1) if exact else None)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MODES).flatmap(mode_grids), phases, st.booleans(), st.integers(2, 5))
@example((MODES[1], [0.4, 1.3], [3e-3, 3e-3]), [0.0, -0.0, 0.0], True, 3)
@example((MODES[2], [0.0, 0.0], [3e-3]), [-0.0, 2.5, 2.5], False, 2)
# at 6.52... numpy's array ** rounds |alpha|^2 unlike C pow
@example((SCALAR, [40.0, 6.5208984171594375], [0.0, 3e-3]), [0.7, -0.0, np.pi / 2], False, 4)
def test_group_sweep_is_the_one_slice_walk(grid, thetas, shared_dim, t_steps):
    mode, alphas, lams = grid
    # a fixed dim puts two amplitudes on one dimension, each still its own group
    dim = default_dim(max(alphas)) + 1 if shared_dim else None
    spec = SweepSpec(alpha_mag=alphas, theta=thetas, lam=lams, t_start=0.0, t_end=3.0,
                     t_steps=t_steps, dim=dim, mode=mode[0], witnesses=mode[1])
    result = run_sweep(spec)
    cf, exact = one_slice_walk(spec)
    assert np.array_equal(bits(result.value_cf), bits(cf))
    if exact is None:
        assert result.value_exact is None
    else:
        assert np.array_equal(bits(result.value_exact), bits(exact))


def on_inputs(kernel, dim=34):
    """The oracle's ``kernel`` on the inputs of its group in ``dim`` levels."""
    return lambda group, ts: kernel(group, ts, coherent_inputs(group, dim))


#: The three group kernels, the oracle's on inputs at one dim.
KERNELS = [on_inputs(evolve_blocks), on_inputs(exact_moment_blocks), first_order_moment_blocks]
KERNEL_IDS = ["evolve_blocks", "exact_moment_blocks", "first_order_moment_blocks"]


def test_group_kernels_yield_the_one_slice_blocks():
    ts = np.linspace(-2.0, 3.0, 7)
    group = [ModelParams(a, th, 3e-3) for a, th in
             [(1.3, 0.0), (1.3, -0.0), (0.4, 0.7), (1.3, 0.7), (1.3, 0.7)]]
    for kernel in KERNELS:
        blocks = list(kernel(group, ts))
        assert len(blocks) == len(group)
        for params, block in zip(group, blocks):
            [one] = kernel([params], ts)
            assert np.array_equal(bits(block), bits(one))


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_a_group_shares_lam(kernel):
    with pytest.raises(ValueError, match="^a group shares one lam, got"):
        next(kernel([ModelParams(1.0, 0.0, 1e-3), ModelParams(1.0, 0.2, 2e-3)], [0.5]))


def test_the_oracle_checks_its_dim_for_every_params_of_a_group():
    # the smallest dims whose input passes the edge check are 25 for |alpha| = 1.3
    # and 33 for 2.0 (34 holds both), so dim 30 holds 1.3 but not 2.0, wherever it
    # sits; every input is judged before any kernel runs
    for group in ([ModelParams(1.3, 0.0, 1e-3), ModelParams(2.0, 0.0, 1e-3)],
                  [ModelParams(2.0, 0.0, 1e-3), ModelParams(1.3, 0.0, 1e-3)]):
        with pytest.raises(TruncationError, match=r"^ModelParams\(alpha_mag=2\.0, .*: the "
                                                  r"input state holds .*; the dim 40 of --dim auto"):
            coherent_inputs(group, 30)
    inputs = coherent_inputs([ModelParams(1.3, 0.0, 1e-3)], 30)
    assert inputs.shape == (1, 30) and not inputs.flags.writeable
    with pytest.raises(ValueError, match="^dim must be a finite integer"):
        coherent_inputs([ModelParams(1.3, 0.0, 1e-3)], 34.5)


@pytest.mark.parametrize("kernel", [evolve_blocks, exact_moment_blocks], ids=KERNEL_IDS[:2])
def test_the_oracle_kernels_build_no_state_and_take_one_input_a_params(kernel, monkeypatch):
    group = [ModelParams(1.3, 0.0, 1e-3), ModelParams(1.3, 0.7, 1e-3)]
    inputs = coherent_inputs(group, 30)
    expected = list(kernel(group, [0.5], inputs))

    def no_state(alpha, dim):
        raise AssertionError("a kernel built a coherent state")

    monkeypatch.setattr(dynamics, "coherent_state", no_state)
    blocks = list(kernel(group, [0.5], inputs))
    assert all(np.array_equal(bits(b), bits(e)) for b, e in zip(blocks, expected, strict=True))
    # a row of inputs is wanted for every params
    with pytest.raises(ValueError, match="zip"):
        list(kernel(group, [0.5], inputs[:1]))


@pytest.mark.parametrize("mode", ["exact", "compare"])
def test_one_eigensystem_per_group_and_none_kept(monkeypatch, mode):
    # the compare workload's grid shape: 4 amplitudes x 3 phases x 2 couplings
    spec = SweepSpec(alpha_mag=(0.5, 1.0, 2.0, 3.0), theta=(0.0, np.pi / 4, np.pi / 2),
                     lam=(1e-3, 1e-4), t_start=0.0, t_end=2 * np.pi, t_steps=5, mode=mode)
    eigh, bracket_coefficients = np.linalg.eigh, perturbative._bracket_coefficients
    earlier, coefficients_built = [], []

    def checked_eigh(h):
        gc.collect()
        # no eigenvector matrix of an earlier group is still alive
        assert [ref() for ref in earlier] == [None] * len(earlier)
        result = eigh(h)
        earlier.append(weakref.ref(result.eigenvectors))
        return result

    def counted_coefficients(lam, t):
        coefficients_built.append(lam)
        return bracket_coefficients(lam, t)

    monkeypatch.setattr(np.linalg, "eigh", checked_eigh)
    monkeypatch.setattr(perturbative, "_bracket_coefficients", counted_coefficients)
    run_sweep(spec)
    groups = len(spec.alpha_mag) * len(spec.lam)
    assert len(earlier) == groups == 8
    assert coefficients_built == list(spec.lam) * len(spec.alpha_mag)


@pytest.mark.parametrize("grid, builds", [
    # compare_small_alpha's grid shape: 4 amplitudes x 3 phases x 2 couplings
    (dict(alpha_mag=(0.5, 1.0, 2.0, 3.0), theta=(0.0, np.pi / 4, np.pi / 2), lam=(1e-3, 1e-4),
          t_end=2 * np.pi, mode="compare"), 12),
    # exact_large_alpha's: 2 amplitudes x 1 phase x 3 couplings, at D = 201 and 581
    (dict(alpha_mag=(10.0, 20.0), theta=(np.pi / 2,), lam=(1e-4, 3e-4, 1e-3), t_end=np.pi,
          mode="exact"), 2),
], ids=["compare_small_alpha", "exact_large_alpha"])
def test_a_sweep_builds_each_input_once(monkeypatch, grid, builds):
    built = []

    def counted(alpha, dim):
        built.append((alpha, dim))
        return coherent_state(alpha, dim)

    monkeypatch.setattr(dynamics, "coherent_state", counted)
    spec = SweepSpec(t_start=0.0, t_steps=5, witnesses=("N", "f"), **grid)
    run_sweep(spec)
    # one build per (|alpha|, theta), in grid order, and none per lambda
    assert built == [(ModelParams(a, th, 0.0).alpha, spec.dim_for(a))
                     for a in spec.alpha_mag for th in spec.theta]
    assert len(built) == builds


@pytest.mark.parametrize("mode", ["closed_form", "exact", "compare"])
@pytest.mark.parametrize("witnesses, needed", [(("f", "d1", "N"), False),
                                               (("quadrature", "hillery"), True),
                                               (("N", "hillery"), True)],
                         ids=["scalar", "first-order", "mixed"])
def test_first_order_runs_once_per_group_exactly_when_an_entry_has_no_closed_form(
        monkeypatch, mode, witnesses, needed):
    calls = []

    def counted(group, ts):
        calls.append(len(group))
        return first_order_moment_blocks(group, ts)

    monkeypatch.setattr(sweep, "first_order_moment_blocks", counted)
    # twice the default dim of |alpha| = 1, where the oracle accepts lambda = 3e-2
    spec = SweepSpec(alpha_mag=(0.5, 1.0), theta=(0.0, np.pi / 4, np.pi / 2), lam=(1e-3, 1e-2, 3e-2),
                     t_start=0.0, t_end=1.0, t_steps=3, dim=2 * default_dim(1.0), mode=mode,
                     witnesses=witnesses)
    run_sweep(spec)
    assert any(WITNESSES[w].closed_form is None for w in witnesses) == needed
    # one call per (|alpha|, lambda) group, each with the group's theta slices
    assert calls == ([len(spec.theta)] * len(spec.alpha_mag) * len(spec.lam) if needed else [])
