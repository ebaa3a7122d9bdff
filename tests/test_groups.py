"""A sweep's (|alpha|, lambda) groups: shared work, the same bits, nothing kept.

``run_sweep`` evaluates the theta slices of one (|alpha|, lambda) as a group
that builds H, its ``eigh``, the exp(-iwt) table and the bands of a_1(t) once
(``exact_moment_blocks``, ``first_order_moment_blocks``).  Every slice must
come out bit for bit as the one-slice group ``[params]`` gives it, and each group's arrays
must be gone before the next group's ``eigh``.
"""

import gc
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anharmonic import perturbative
from anharmonic.dynamics import (
    MomentSet,
    evolve_blocks,
    exact_moment_blocks,
)
from anharmonic.fock import ModelParams, default_dim
from anharmonic.perturbative import (
    ClosedFormInputs,
    first_order_moment_blocks,
)
from anharmonic.sweep import WITNESS_NAMES, WITNESSES, SweepSpec, run_sweep

#: (mode, witnesses): both matrix paths, and the first-order path alone.
MODES = [("exact", WITNESS_NAMES), ("compare", WITNESS_NAMES),
         ("closed_form", ("quadrature", "hillery"))]

amplitudes = st.lists(st.sampled_from([0.0, 0.4, 1.3, 2.0]), min_size=1, max_size=2)
phases = st.lists(st.sampled_from([0.0, -0.0, 0.7, np.pi / 2, 2.5]), min_size=1, max_size=3)
couplings = st.lists(st.sampled_from([1e-4, 3e-3, 1e-2]), min_size=1, max_size=2)


def bits(values):
    return np.asarray(values).view(np.uint64)


def one_slice_walk(spec):
    """value_cf and value_exact of ``spec`` from one-slice groups, slice by slice."""
    ts, horizon = spec.t_grid(), spec.horizon()
    need_fo = any(WITNESSES[w].needs_first_order for w in spec.witnesses)
    cf, exact = [], []
    for a, th, lam in product(spec.alpha_mag, spec.theta, spec.lam):
        params = ModelParams(a, th, lam, spec.dim_for(a))
        fo = None
        if need_fo:
            [block] = first_order_moment_blocks([params], ts)
            fo = MomentSet(*block.T)
        inputs = ClosedFormInputs(a, th, lam, ts)
        cf.append([WITNESSES[w].closed_form(inputs, fo) for w in spec.witnesses])
        if spec.mode != "closed_form":
            [block] = exact_moment_blocks([params], ts, horizon)
            m = MomentSet(*block.T)
            exact.append([WITNESSES[w].exact(m) for w in spec.witnesses])
    return (np.array(cf).transpose(0, 2, 1),
            np.array(exact).transpose(0, 2, 1) if exact else None)


@settings(max_examples=30, deadline=None)
@given(amplitudes, phases, couplings, st.booleans(), st.sampled_from(MODES),
       st.integers(2, 5))
@example([0.4, 1.3], [0.0, -0.0, 0.0], [1e-2, 1e-2], True, MODES[1], 3)
@example([0.0, 0.0], [-0.0, 2.5, 2.5], [3e-3], False, MODES[2], 2)
def test_group_sweep_is_the_one_slice_walk(alphas, thetas, lams, shared_dim, mode, t_steps):
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


def test_group_kernels_yield_the_one_slice_blocks():
    ts = np.linspace(-2.0, 3.0, 7)
    group = [ModelParams(a, th, 3e-3, 34) for a, th in
             [(1.3, 0.0), (1.3, -0.0), (0.4, 0.7), (1.3, 0.7), (1.3, 0.7)]]
    for kernel in (evolve_blocks, exact_moment_blocks, first_order_moment_blocks):
        blocks = list(kernel(group, ts))
        assert len(blocks) == len(group)
        for params, block in zip(group, blocks):
            [one] = kernel([params], ts)
            assert np.array_equal(bits(block), bits(one))


@pytest.mark.parametrize("kernel", [evolve_blocks, exact_moment_blocks, first_order_moment_blocks])
@pytest.mark.parametrize("other", [ModelParams(1.0, 0.2, 2e-3, 30), ModelParams(1.0, 0.2, 1e-3, 31)])
def test_a_group_shares_lam_and_dim(kernel, other):
    with pytest.raises(ValueError, match="one lam and one dim"):
        next(kernel([ModelParams(1.0, 0.0, 1e-3, 30), other], [0.5]))


@pytest.mark.parametrize("mode", ["exact", "compare"])
def test_one_eigensystem_per_group_and_none_kept(monkeypatch, mode):
    # the compare workload's grid shape: 4 amplitudes x 3 phases x 2 couplings
    spec = SweepSpec(alpha_mag=(0.5, 1.0, 2.0, 3.0), theta=(0.0, np.pi / 4, np.pi / 2),
                     lam=(1e-3, 1e-4), t_start=0.0, t_end=2 * np.pi, t_steps=5, mode=mode)
    eigh, bracket_bands = np.linalg.eigh, perturbative._bracket_bands
    earlier, bands_built = [], []

    def checked_eigh(h):
        gc.collect()
        # no eigenvector matrix of an earlier group is still alive
        assert [ref() for ref in earlier] == [None] * len(earlier)
        result = eigh(h)
        earlier.append(weakref.ref(result.eigenvectors))
        return result

    def counted_bands(dim):
        bands_built.append(dim)
        return bracket_bands(dim)

    monkeypatch.setattr(np.linalg, "eigh", checked_eigh)
    monkeypatch.setattr(perturbative, "_bracket_bands", counted_bands)
    run_sweep(spec)
    groups = len(spec.alpha_mag) * len(spec.lam)
    assert len(earlier) == groups == 8
    assert len(bands_built) == groups
