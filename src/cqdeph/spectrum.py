"""Closed-form level structure and degeneracy-protected subspace discovery.

Energies are H/hbar values (angular frequency units) of the cross-Kerr
normal form:

    E(m, n, 0) = (omega_a_prime - chi n) m
    E(m, n, 1) = -(omega_a_prime - chi n) (m + 1)

independent of :mod:`cqdeph.hamiltonians` (which builds the same spectrum
through operator products) so the two routes can certify each other.

Coherences between equal-energy labels acquire no damping and no extra
phase, so every multi-member degeneracy class is a protected subspace of
the pure-dephasing dynamics.  The classes come by clustering the float
energy line, or by exact grouping of the levels in rational arithmetic
when omega_a_prime/chi is given as a rational, not by a closed-form index
condition (see INDEX_CONVENTION_NOTE); either way they are listed in
ascending energy, for either sign of chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational

import numpy as np

from .device import EffectiveParams
from .errors import InvalidArgumentError
from .hilbert import FockCutoff, TensorBasisLabel, all_labels

INDEX_CONVENTION_NOTE = (
    "Index convention: the computed eigenvalues vanish for every m and both "
    "qubit levels exactly when the mode-B photon number satisfies "
    "chi*n = omega_a_prime, so integer omega_a_prime/chi pins n (mode B) and "
    "protects superpositions over m and the qubit. A reading that pins the "
    "mode-A number m instead circulates for this model; it is inconsistent "
    "with the level formula used here, where m enters only through the "
    "prefactor (omega_a_prime - chi*n). This report follows the computed "
    "spectrum."
)

TRUNCATION_NOTE = (
    "Classes are enumerated over the truncated label set only; families like "
    "{(m, n0, i) : all m} extend to unbounded m in the untruncated model."
)


def _level(m, n, i, w, chi):
    """The level E(m, n, i) = (w - chi n)(m - i (2m + 1)) of the module
    docstring, with w = omega_a_prime; for ints, Fractions and arrays."""
    return (w - chi * n) * (m - i * (2 * m + 1))


def eigenvalue(label: TensorBasisLabel, eff: EffectiveParams) -> float:
    """Closed-form energy of one basis label (H/hbar units)."""
    return _level(label.m, label.n, label.i, eff.omega_a_prime, eff.chi)


def energies_vector(eff: EffectiveParams, cutoff: FockCutoff) -> np.ndarray:
    """All eigenvalues in flat-index order, vectorized."""
    return _level(*cutoff.numbers(), eff.omega_a_prime, eff.chi)


def cluster_energies(energies, tol: float) -> list[np.ndarray]:
    """Single-linkage clustering of a 1-D energy list.

    Returns index arrays, one per class, ordered by class energy.  Two
    energies land in one class iff they are connected by a chain of gaps
    <= tol, so distinct classes are separated by > tol at their nearest
    points.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidArgumentError(f"tol must be finite and >= 0, got {tol}")
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        return []
    order = np.argsort(energies, kind="stable")
    gaps = np.diff(energies[order])
    breaks = np.nonzero(gaps > tol)[0] + 1
    return [np.sort(chunk) for chunk in np.split(order, breaks)]


@dataclass(frozen=True)
class DegeneracyClass:
    """One energy cluster: all labels whose energies coincide within tol."""

    energy: float
    members: tuple[TensorBasisLabel, ...]
    tolerance: float

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DfsResult:
    """Partition of every truncated label into degeneracy classes."""

    classes: tuple[DegeneracyClass, ...]
    ratio: float
    exact: bool
    tolerance: float
    note: str = INDEX_CONVENTION_NOTE

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def multi_member(self) -> tuple[DegeneracyClass, ...]:
        """The protected subspaces: every class with at least two labels."""
        return tuple(c for c in self.classes if len(c) >= 2)

    def class_of(self, label: TensorBasisLabel) -> DegeneracyClass:
        for c in self.classes:
            if label in c.members:
                return c
        raise InvalidArgumentError(f"label {label} outside the scanned cutoff")

    def to_text(self) -> str:
        lines = [
            f"degeneracy classes: {len(self.classes)} "
            f"({len(self.multi_member())} with >= 2 members)",
            f"omega_a_prime/chi = {self.ratio!r}"
            + (" (exact rational arithmetic)" if self.exact
               else f" (float clustering, tol = {self.tolerance:.3e})"),
        ]
        if self.exact and float(self.ratio) == int(self.ratio):
            lines.append(
                f"integer ratio r = {int(self.ratio)}: the E = 0 class joins "
                f"every (m, n = r, i) with the m = 0, i = 0 zero modes"
            )
        for k, c in enumerate(self.classes):
            if len(c) < 2:
                continue
            members = " ".join(f"({l.m},{l.n},{l.i})" for l in c.members)
            lines.append(f"class {k}: E = {c.energy:.9g}  size {len(c)}: {members}")
        lines.append(self.note)
        lines.append(TRUNCATION_NOTE)
        return "\n".join(lines)


def _check_ratio(eff: EffectiveParams, ratio: Rational) -> None:
    """Raise unless chi != 0 and ratio * chi is omega_a_prime to 1e-9."""
    w = eff.omega_a_prime
    if eff.chi == 0 or abs(float(ratio) * eff.chi - w) > 1e-9 * abs(w):
        raise InvalidArgumentError(
            "exact-ratio classification needs chi != 0 and |ratio * chi - "
            f"omega_a_prime| <= 1e-9 |omega_a_prime|; got ratio {ratio}, "
            f"chi {eff.chi!r}, omega_a_prime {w!r}"
        )


def dfs_find(eff: EffectiveParams, cutoff: FockCutoff,
             tol: float | None = None, *,
             ratio: Rational | None = None) -> DfsResult:
    """Partition all labels into degeneracy classes, in ascending energy.

    Float path: single-linkage clustering with ``tol`` (default
    1e-9 * max|E|; a given ``tol`` must be finite and > 0).  Exact path:
    pass ``ratio`` as the rational value of omega_a_prime/chi and the labels
    are grouped by their exact level E/chi in rational arithmetic -- immune
    to the false splits float rounding can produce at, say,
    omega_a_prime = 3*chi with omega_a_prime - 3*chi = O(eps).  The ratio
    must be that value: chi != 0 and |ratio * chi - omega_a_prime| <=
    1e-9 |omega_a_prime|, otherwise InvalidArgumentError.  Either path lists
    the classes in ascending energy, for either sign of chi.
    """
    labels = all_labels(cutoff)
    if ratio is not None:
        if not isinstance(ratio, Rational):
            raise InvalidArgumentError(
                f"ratio must be a rational number, got {type(ratio).__name__}"
            )
        from fractions import Fraction

        _check_ratio(eff, ratio)
        ratio = Fraction(ratio)
        groups: dict[Fraction, list[int]] = {}
        for k, lab in enumerate(labels):
            groups.setdefault(_level(lab.m, lab.n, lab.i, ratio, 1),
                              []).append(k)
        # E = chi * key, so the keys sort in energy order reversed if chi < 0
        found = [(float(key) * eff.chi, idxs) for key, idxs in
                 sorted(groups.items(), reverse=eff.chi < 0)]
        ratio_f, tol = float(ratio), 0.0
    else:
        energies = energies_vector(eff, cutoff)
        if tol is None:
            scale = float(np.max(np.abs(energies)))
            tol = 1e-9 * scale if scale > 0 else 1e-30
        elif not (math.isfinite(tol) and tol > 0):
            raise InvalidArgumentError(f"tol must be finite and > 0, got {tol}")
        found = [(float(np.mean(energies[idxs])), idxs)
                 for idxs in cluster_energies(energies, tol)]
        ratio_f = eff.omega_a_prime / eff.chi if eff.chi != 0 else math.inf
    classes = tuple(DegeneracyClass(energy, tuple(labels[i] for i in idxs), tol)
                    for energy, idxs in found)
    return DfsResult(classes, ratio=ratio_f, exact=ratio is not None,
                     tolerance=tol)
