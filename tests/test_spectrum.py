"""Diagonal-model levels and degeneracy classification."""

from fractions import Fraction

import numpy as np
import pytest

from cqdeph.device import EffectiveParams
from cqdeph.errors import InvalidArgumentError
from cqdeph.hilbert import FockCutoff, TensorBasisLabel, all_labels
from cqdeph.spectrum import (
    cluster_energies,
    dfs_find,
    eigenvalue,
    energies_vector,
)


def _eff(omega_a_prime: float, chi: float) -> EffectiveParams:
    return EffectiveParams(g_a=0.1, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                           omega_a=1.0, omega_a_prime=omega_a_prime, chi=chi)


def test_eigenvalue_closed_values():
    eff = _eff(5.0, 1.0)
    assert eigenvalue(TensorBasisLabel(2, 3, 0), eff) == pytest.approx(4.0)
    assert eigenvalue(TensorBasisLabel(2, 3, 1), eff) == pytest.approx(-6.0)
    assert eigenvalue(TensorBasisLabel(0, 7, 0), eff) == 0.0
    # one extra mode-A photon at fixed n adds omega' - chi n
    eff2 = _eff(0.9, 0.3)
    gap = (eigenvalue(TensorBasisLabel(2, 1, 0), eff2)
           - eigenvalue(TensorBasisLabel(1, 1, 0), eff2))
    assert gap == pytest.approx(0.9 - 0.3)


def test_energies_vector_matches_labels():
    eff = _eff(0.9, 0.3)
    cut = FockCutoff(2, 3)
    vec = energies_vector(eff, cut)
    for lab in all_labels(cut):
        assert vec[lab.flat_index(cut)] == pytest.approx(
            eigenvalue(lab, eff), abs=1e-15)


def test_exact_ratio_three_zero_class():
    eff = _eff(0.9, 0.3)
    cut = FockCutoff(3, 4)
    res = dfs_find(eff, cut, ratio=Fraction(3))
    assert res.exact
    zero = res.class_of(TensorBasisLabel(0, 0, 0))
    got = {(l.m, l.n, l.i) for l in zero.members}
    want = {(0, n, 0) for n in range(5)}
    want |= {(m, 3, i) for m in range(4) for i in (0, 1)}
    assert got == want
    assert zero.energy == pytest.approx(0.0, abs=1e-300)


def test_exact_path_immune_to_float_noise():
    # omega'/chi = 3 with chi values whose products round differently
    eff = _eff(0.3 * 3, 0.3)
    cut = FockCutoff(4, 6)
    exact = dfs_find(eff, cut, ratio=Fraction(3))
    as_sets = lambda res: {
        frozenset((l.m, l.n, l.i) for l in c.members) for c in res}
    # float path at default tolerance agrees here; the exact path is the
    # reference it is judged against
    assert as_sets(dfs_find(eff, cut)) == as_sets(exact)


def test_float_path_splits_detuned_ratio():
    # ratio 3 + 1e-6: the would-be zero class must split once the offset
    # exceeds the clustering tolerance
    chi = 0.3
    eff = _eff(chi * (3 + 1e-6), chi)
    cut = FockCutoff(3, 4)
    res = dfs_find(eff, cut)
    zero = res.class_of(TensorBasisLabel(0, 0, 0))
    got = {(l.m, l.n, l.i) for l in zero.members}
    # the m = 0, i = 0 states stay exactly degenerate; the n = 3 towers drift
    assert {(0, n, 0) for n in range(5)} <= got
    assert (2, 3, 0) not in got
    # a coarse tolerance glues the near-degenerate towers back together
    coarse = dfs_find(eff, cut, 1e-3)
    zero_c = coarse.class_of(TensorBasisLabel(0, 0, 0))
    assert (2, 3, 0) in {(l.m, l.n, l.i) for l in zero_c.members}


def test_partition_is_scale_invariant():
    cut = FockCutoff(2, 3)
    as_sets = lambda res: {
        frozenset((l.m, l.n, l.i) for l in c.members) for c in res}
    assert as_sets(dfs_find(_eff(0.9, 0.3), cut)) == \
        as_sets(dfs_find(_eff(4.5, 1.5), cut))


def test_exact_path_requires_positive_chi():
    eff = _eff(0.9, 0.0)
    with pytest.raises(InvalidArgumentError):
        dfs_find(eff, FockCutoff(2, 2), ratio=Fraction(3))


@pytest.mark.parametrize("omega_a_prime, chi, ratio", [
    (0.9, 0.3, Fraction(3, 2)),    # 22 classes instead of 15 when accepted
    (0.9, -0.3, Fraction(3)),      # class energies off by 5.4 when accepted
    (0.9, 0.3, Fraction(3) + Fraction(1, 10**8)),
])
def test_exact_path_rejects_a_ratio_that_is_not_omega_over_chi(
        omega_a_prime, chi, ratio):
    with pytest.raises(InvalidArgumentError, match="ratio \\* chi"):
        dfs_find(_eff(omega_a_prime, chi), FockCutoff(3, 4), ratio=ratio)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_non_finite_tol_rejected(tol):
    with pytest.raises(InvalidArgumentError, match="tol must be finite"):
        dfs_find(_eff(0.9, 0.3), FockCutoff(2, 2), tol)
    with pytest.raises(InvalidArgumentError, match="tol must be finite"):
        cluster_energies([0.0, 1.0, 2.0], tol)


def test_class_of_unknown_label_raises():
    res = dfs_find(_eff(0.9, 0.3), FockCutoff(2, 2), ratio=Fraction(3))
    with pytest.raises(InvalidArgumentError):
        res.class_of(TensorBasisLabel(9, 9, 0))


def test_classes_partition_all_labels():
    cut = FockCutoff(3, 3)
    res = dfs_find(_eff(0.7, 0.2), cut)
    flat = [lab.flat_index(cut) for c in res for lab in c.members]
    assert sorted(flat) == list(range(cut.dim))


def test_report_text_mentions_index_convention():
    res = dfs_find(_eff(0.9, 0.3), FockCutoff(2, 3), ratio=Fraction(3))
    text = res.to_text()
    assert "Index convention" in text
    assert "truncat" in text.lower()

