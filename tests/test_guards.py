"""Guards and input checks, each raised with its own error type.

A ScaleLimitError is a ValueError, and the CLI tells them apart: a guard
exits 3, a usage or input error 2.  So each case asserts the exact type
raised, not only that some ValueError was.
"""

import numpy as np
import pytest

from dihedral_pgm import (BlockLabel, DihedralElement, IrrepLabel,
                          ScaleLimitError, chi_single_copy,
                          dense_block_effects, hidden_subgroup_state,
                          identity, irrep, pgm_dense, qft_dihedral,
                          subgroup_elements, tilde_basis_change,
                          verify_holevo)
from dihedral_pgm import success
from dihedral_pgm.subsetsum import _widen, count_eta_batch
from dihedral_pgm.success import _means, _success_values


def _zero_square(dim):
    """A dim x dim zero state that allocates one number, for guards that
    read only the shape."""
    return np.broadcast_to(np.zeros((1, 1)), (dim, dim))


GUARDS = {
    # dense guards, checked before anything of that size is built
    "hidden_subgroup_state, 2N > 4096": (
        lambda: hidden_subgroup_state(subgroup_elements("order2", 2049, d=0)),
        ScaleLimitError, "dense dimension 4098"),
    "tilde_basis_change, 2N > 4096": (
        lambda: tilde_basis_change(2049), ScaleLimitError,
        "dense dimension 4098"),
    "pgm_dense past PGM_DENSE_LIMIT": (
        lambda: pgm_dense([_zero_square(257)], [1.0]), ScaleLimitError,
        "dense dimension 257"),
    "dense_block_effects past PGM_DENSE_LIMIT": (
        lambda: dense_block_effects(3, 4), ScaleLimitError,
        "dense dimension 1296"),
    "qft_dihedral, 2N > 1024": (
        lambda: qft_dihedral(513), ScaleLimitError, "QFT guard: 2N = 1026"),
    "chi_single_copy, 2N > 512": (
        lambda: chi_single_copy(257), ScaleLimitError,
        "eigensolve guard: 2N = 514"),
    # input checks
    "_means with one sample": (
        lambda: _means(64, [3], _success_values, 1, seed=1), ValueError,
        "at least 2 samples"),
    "count_eta_batch with reduce and depths": (
        lambda: count_eta_batch(np.zeros((2, 3), dtype=np.int64), 4, _widen,
                                depths={3: _widen}),
        ValueError, "in place of reduce"),
    "count_eta_batch with a depth above k": (
        lambda: count_eta_batch(np.zeros((2, 3), dtype=np.int64), 4,
                                depths={4: _widen}),
        ValueError, "depths 0 .. 3"),
    "order2 subgroup without d": (
        lambda: subgroup_elements("order2", 4), ValueError, "needs a shift d"),
    "cyclic subgroup without j": (
        lambda: subgroup_elements("cyclic", 4), ValueError, "needs an index j"),
    "dihedral subgroup without d": (
        lambda: subgroup_elements("dihedral", 4, j=2), ValueError,
        "needs a shift d"),
    "unknown subgroup kind": (
        lambda: subgroup_elements("abelian", 4), ValueError,
        "unknown subgroup kind"),
    "BlockLabel with N < 1": (
        lambda: BlockLabel((0,), 0), ValueError, "N must be >= 1"),
    "BlockLabel with no entries": (
        lambda: BlockLabel((), 4), ValueError, "k >= 1 entries"),
    "DihedralElement with N < 1": (
        lambda: DihedralElement(0, 0, 0), ValueError, "N must be >= 1"),
    "hidden_subgroup_state of no elements": (
        lambda: hidden_subgroup_state(frozenset()), ValueError,
        "empty subgroup"),
    "hidden_subgroup_state over two groups": (
        lambda: hidden_subgroup_state(frozenset({identity(4), identity(5)})),
        ValueError, "group mismatch"),
    "pgm_dense with one prior for two states": (
        lambda: pgm_dense([np.eye(2) / 2, np.eye(2) / 2], [1.0]), ValueError,
        "one prior per state"),
    "pgm_dense with priors summing to 1/2": (
        lambda: pgm_dense([np.eye(2) / 2, np.eye(2) / 2], [0.25, 0.25]),
        ValueError, "sum to 1"),
    "verify_holevo with two priors for one state": (
        lambda: verify_holevo([np.eye(2) / 2], [0.5, 0.5], [np.eye(2)]),
        ValueError, "must align"),
    "irrep of an unknown kind": (
        lambda: irrep(IrrepLabel("sign"), identity(4)), ValueError,
        "unknown irrep kind"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_own_type(name):
    call, kind, match = GUARDS[name]
    with pytest.raises(ValueError, match=match) as caught:
        call()
    assert type(caught.value) is kind


@pytest.mark.parametrize("k_list", [[0, 5], [5, -1, 6]])
def test_sweep_refuses_a_k_below_1_before_any_draw(monkeypatch, k_list):
    """k < 1 is always an exact row of a sweep (N^k <= 1), and it is
    refused before the Monte Carlo pass draws anything for the other k."""
    def no_pass(*args, **kwargs):
        raise AssertionError("the Monte Carlo pass ran")

    monkeypatch.setattr(success, "_means", no_pass)
    with pytest.raises(ValueError, match="need N >= 2 and k >= 1") as caught:
        success.threshold_sweep(64, k_list, 10000, seed=1)
    assert type(caught.value) is ValueError
