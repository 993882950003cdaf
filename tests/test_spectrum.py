"""Diagonal-model levels and degeneracy classification."""

from fractions import Fraction

import numpy as np
import pytest

from cqdeph.device import EffectiveParams
from cqdeph.errors import InvalidArgumentError
from cqdeph.hilbert import FockCutoff
from cqdeph.spectrum import _level, cluster_energies, dfs_find, energies_vector


def _eff(omega_a_prime: float, chi: float) -> EffectiveParams:
    return EffectiveParams(g_a=0.1, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                           omega_a=1.0, omega_a_prime=omega_a_prime, chi=chi)


def _members(res, k):
    """The (m, n, i) labels of class k of a DfsResult."""
    return {tuple(lab) for lab in
            np.stack(res.cutoff.numbers(), axis=1)[res.classes[k]].tolist()}


def _holding(res, m, n, i):
    """The index of the class that holds the label (m, n, i)."""
    flat = res.cutoff.flat_indices(m, n, i)
    return next(k for k, c in enumerate(res.classes) if flat in c)


def _partition(res):
    return {frozenset(c.tolist()) for c in res.classes}


def test_eigenvalue_closed_values():
    cut = FockCutoff(2, 7)
    levels = energies_vector(_eff(5.0, 1.0), cut)
    assert levels[cut.flat_indices(2, 3, 0)] == pytest.approx(4.0)
    assert levels[cut.flat_indices(2, 3, 1)] == pytest.approx(-6.0)
    assert levels[cut.flat_indices(0, 7, 0)] == 0.0
    # one extra mode-A photon at fixed n adds omega' - chi n
    levels = energies_vector(_eff(0.9, 0.3), cut)
    gap = levels[cut.flat_indices(2, 1, 0)] - levels[cut.flat_indices(1, 1, 0)]
    assert gap == pytest.approx(0.9 - 0.3)


def test_exact_ratio_three_zero_class():
    eff = _eff(0.9, 0.3)
    cut = FockCutoff(3, 4)
    res = dfs_find(eff, cut, ratio=Fraction(3))
    assert res.exact
    zero = _holding(res, 0, 0, 0)
    want = {(0, n, 0) for n in range(5)}
    want |= {(m, 3, i) for m in range(4) for i in (0, 1)}
    assert _members(res, zero) == want
    assert res.energies[zero] == pytest.approx(0.0, abs=1e-300)


def test_exact_path_immune_to_float_noise():
    # omega'/chi = 3 with chi values whose products round differently
    eff = _eff(0.3 * 3, 0.3)
    # (60, 60) is dim 7442, past the dense-matrix cap: neither path builds
    # a matrix
    for cut, count in ((FockCutoff(4, 6), None), (FockCutoff(60, 60), 2281)):
        exact = dfs_find(eff, cut, ratio=Fraction(3))
        # float path at default tolerance agrees here; the exact path is
        # the reference it is judged against
        assert _partition(dfs_find(eff, cut)) == _partition(exact)
        assert count is None or len(exact.classes) == count


def test_float_path_splits_detuned_ratio():
    # ratio 3 + 1e-6: the would-be zero class must split once the offset
    # exceeds the clustering tolerance
    chi = 0.3
    eff = _eff(chi * (3 + 1e-6), chi)
    cut = FockCutoff(3, 4)
    res = dfs_find(eff, cut)
    got = _members(res, _holding(res, 0, 0, 0))
    # the m = 0, i = 0 states stay exactly degenerate; the n = 3 towers drift
    assert {(0, n, 0) for n in range(5)} <= got
    assert (2, 3, 0) not in got
    # a coarse tolerance glues the near-degenerate towers back together
    coarse = dfs_find(eff, cut, 1e-3)
    assert (2, 3, 0) in _members(coarse, _holding(coarse, 0, 0, 0))


def test_partition_is_scale_invariant():
    cut = FockCutoff(2, 3)
    assert _partition(dfs_find(_eff(0.9, 0.3), cut)) == \
        _partition(dfs_find(_eff(4.5, 1.5), cut))


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


def test_classes_partition_every_label():
    cut = FockCutoff(3, 3)
    for eff, ratio in ((_eff(0.7, 0.2), None), (_eff(0.9, -0.3), Fraction(-3))):
        res = dfs_find(eff, cut, ratio=ratio)
        # ascending flat-index arrays, one per class, in ascending energy
        for c in res.classes:
            assert c.dtype == np.intp and np.all(np.diff(c) > 0)
        assert np.all(np.diff(res.energies) > 0)
        assert len(res.energies) == len(res.classes)
        flat = np.concatenate(res.classes)
        assert sorted(flat.tolist()) == list(range(cut.dim))


def test_report_text_mentions_index_convention():
    res = dfs_find(_eff(0.9, 0.3), FockCutoff(2, 3), ratio=Fraction(3))
    text = res.to_text()
    assert "Index convention" in text
    assert "truncat" in text.lower()



def _exact_classes_by_label(eff, cut, ratio):
    """The exact path one label at a time, in rational arithmetic: the
    independent reference of dfs_find's grouping of the integer levels."""
    ratio = Fraction(ratio)
    groups = {}
    for k, lab in enumerate(zip(*(x.tolist() for x in cut.numbers()))):
        groups.setdefault(_level(*lab, ratio, 1), []).append(k)
    found = sorted(groups.items(), reverse=eff.chi < 0)
    return ([float(key) * eff.chi for key, _ in found],
            [idxs for _, idxs in found])


def _exact_draws():
    rng = np.random.default_rng(30)
    for _ in range(300):
        ratio = Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))
        chi = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))
        if ratio == 0:
            continue
        cut = FockCutoff(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        yield ratio, chi, cut
    # K = q E / chi beyond the int64 range
    yield Fraction(10 ** 30, 7), 0.3, FockCutoff(3, 4)
    yield Fraction(-10 ** 30, 7), -0.3, FockCutoff(3, 4)


def test_exact_path_matches_the_rational_reference():
    # same classes in the same order, same members, bit-identical energies
    for ratio, chi, cut in _exact_draws():
        eff = _eff(float(ratio) * chi, chi)
        res = dfs_find(eff, cut, ratio=ratio)
        energies, classes = _exact_classes_by_label(eff, cut, ratio)
        assert res.energies.tolist() == energies, (ratio, chi, cut)
        assert [c.tolist() for c in res.classes] == classes, (ratio, chi, cut)
        assert all(c.dtype == np.intp for c in res.classes)
