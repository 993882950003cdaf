"""Truncated Hilbert space for a qubit coupled to two bosonic modes.

Composite ordering is qubit (x) mode A (x) mode B.  The qubit basis is
(|0>, |1>) with sigma_z = diag(-1, +1), i.e. sigma_z|0> = -|0> and
sigma_z|1> = +|1>.  A basis label (m, n, i) means m photons in mode A,
n photons in mode B, qubit level i, and maps to the flat index

    i * (n_max_a + 1) * (n_max_b + 1) + m * (n_max_b + 1) + n.

Code outside this module reads that order from ``FockCutoff.numbers()``
(the label arrays in flat order) or ``TensorBasisLabel.flat_index`` /
``from_flat``, never from the formula.

All matrices are dense complex ndarrays; the spaces this package targets
stay below a few thousand states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InvalidArgumentError

__all__ = [
    "FockCutoff",
    "TensorBasisLabel",
    "OperatorMatrix",
    "StateVector",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "annihilation",
    "number_operator",
    "identity",
    "tensor3",
    "number_state",
    "coherent_state",
    "partial_trace",
    "hermiticity_defect",
    "require_density_matrix",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.flags.writeable = False
    return out


# Qubit operators in the (|0>, |1>) ordering described above.
SIGMA_X = _readonly(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Y = _readonly(np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex))
SIGMA_PLUS = _readonly(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))   # |1><0|
SIGMA_MINUS = _readonly(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))  # |0><1|


@dataclass(frozen=True)
class FockCutoff:
    """Photon-number truncation (inclusive) for the two resonator modes."""

    n_max_a: int
    n_max_b: int

    def __post_init__(self):
        for name in ("n_max_a", "n_max_b"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise InvalidArgumentError(f"{name} must be an integer >= 1, got {v!r}")

    @property
    def dim_a(self) -> int:
        return self.n_max_a + 1

    @property
    def dim_b(self) -> int:
        return self.n_max_b + 1

    @property
    def dim(self) -> int:
        """Total composite dimension 2 * (n_max_a + 1) * (n_max_b + 1)."""
        return 2 * self.dim_a * self.dim_b

    def numbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The integer arrays (m, n, i) of every label, in flat-index order."""
        i, m, n = np.indices((2, self.dim_a, self.dim_b)).reshape(3, -1)
        return m, n, i

    def flat_indices(self, m, n, i) -> np.ndarray:
        """The flat indices of the labels (m[k], n[k], i[k]); raises
        InvalidArgumentError when a label lies outside the cutoff."""
        try:
            return np.ravel_multi_index((i, m, n), (2, self.dim_a, self.dim_b))
        except ValueError:
            raise InvalidArgumentError(f"a label exceeds cutoff {self}") from None


DENSE_DIM_CAP = 5000  # largest dim of which a dense dim x dim matrix is built


def check_dense_dim(cutoff: FockCutoff) -> None:
    """Raise CapacityError when cutoff.dim exceeds DENSE_DIM_CAP."""
    if cutoff.dim > DENSE_DIM_CAP:
        raise CapacityError(
            f"dimension {cutoff.dim} exceeds the dense-matrix cap {DENSE_DIM_CAP}")


@dataclass(frozen=True, order=True)
class TensorBasisLabel:
    """Number-state label (m, n, i): mode A, mode B, qubit level."""

    m: int
    n: int
    i: int

    def __post_init__(self):
        for name in ("m", "n", "i"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise InvalidArgumentError(
                    f"TensorBasisLabel.{name} must be an integer, got "
                    f"{getattr(self, name)!r}")
        if self.m < 0 or self.n < 0:
            raise InvalidArgumentError(f"photon numbers must be >= 0, got {self}")
        if self.i not in (0, 1):
            raise InvalidArgumentError(f"qubit level must be 0 or 1, got {self.i}")

    def flat_index(self, cutoff: FockCutoff) -> int:
        if self.m > cutoff.n_max_a or self.n > cutoff.n_max_b:
            raise InvalidArgumentError(f"{self} exceeds cutoff {cutoff}")
        return (self.i * cutoff.dim_a + self.m) * cutoff.dim_b + self.n

    @staticmethod
    def from_flat(index: int, cutoff: FockCutoff) -> "TensorBasisLabel":
        if not 0 <= index < cutoff.dim:
            raise InvalidArgumentError(f"flat index {index} outside dimension {cutoff.dim}")
        index, n = divmod(index, cutoff.dim_b)
        i, m = divmod(index, cutoff.dim_a)
        return TensorBasisLabel(m=m, n=n, i=i)


def all_labels(cutoff: FockCutoff) -> list[TensorBasisLabel]:
    """Every basis label, in flat-index order."""
    return [TensorBasisLabel(*lab)
            for lab in zip(*(x.tolist() for x in cutoff.numbers()))]


# bound of require_density_matrix on the hermiticity defect, |trace - 1|
# and the negative eigenvalues; StateVector holds |psi|^2 to it
_DENSITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A dense complex square matrix, optionally tied to a composite cutoff.

    The stored array is read-only; share freely across threads.  Like every
    class here that holds an array, it compares and hashes by identity.
    """

    mat: np.ndarray
    cutoff: FockCutoff | None = None
    # the unit vector psi of a matrix built as |psi><psi| by
    # StateVector.density, which alone sets it
    _psi: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidArgumentError(f"operator must be square, got shape {arr.shape}")
        if self.cutoff is not None and arr.shape[0] != self.cutoff.dim:
            raise InvalidArgumentError(
                f"matrix dimension {arr.shape[0]} does not match cutoff dimension {self.cutoff.dim}"
            )
        object.__setattr__(self, "mat", _readonly(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def hermiticity_defect(self) -> float:
        return hermiticity_defect(self.mat)

    def __matmul__(self, other):
        rhs = other.mat if isinstance(other, OperatorMatrix) else other
        return OperatorMatrix(self.mat @ rhs, self.cutoff)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state on the composite space.

    Constructors in this module always produce unit norm; direct construction
    rejects vectors whose squared norm, the trace of :meth:`density`,
    deviates from 1 by more than _DENSITY_TOL (1e-10), the trace condition of
    ``require_density_matrix``.  Use :meth:`normalized` for raw amplitude
    lists.
    """

    vec: np.ndarray
    cutoff: FockCutoff | None = None

    def __post_init__(self):
        arr = np.asarray(self.vec, dtype=complex)
        if arr.ndim != 1:
            raise InvalidArgumentError(f"state must be a vector, got shape {arr.shape}")
        if self.cutoff is not None and arr.shape[0] != self.cutoff.dim:
            raise InvalidArgumentError(
                f"vector dimension {arr.shape[0]} does not match cutoff dimension {self.cutoff.dim}"
            )
        norm2 = float(np.linalg.norm(arr)) ** 2
        if abs(norm2 - 1.0) > _DENSITY_TOL:
            raise InvalidArgumentError(
                f"state norm squared {norm2} deviates from 1 beyond {_DENSITY_TOL}")
        object.__setattr__(self, "vec", _readonly(arr))

    @staticmethod
    def normalized(amplitudes, cutoff: FockCutoff | None = None) -> "StateVector":
        arr = np.asarray(amplitudes, dtype=complex)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise InvalidArgumentError("cannot normalize a zero vector")
        return StateVector(arr / norm, cutoff)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def density(self) -> OperatorMatrix:
        """|psi><psi| as a dense matrix that also keeps psi, so that
        ``require_density_matrix`` reads the state in O(dim)."""
        mat = np.outer(self.vec, self.vec.conj())
        mat.flags.writeable = False
        # the fresh product needs neither OperatorMatrix's copy nor its
        # shape checks: the vector passed them
        rho = object.__new__(OperatorMatrix)
        for name, value in (("mat", mat), ("cutoff", self.cutoff),
                            ("_psi", self.vec)):
            object.__setattr__(rho, name, value)
        return rho


def annihilation(n_max: int) -> OperatorMatrix:
    """Single-mode annihilation operator on a Fock space truncated at n_max.

    Entry [k-1, k] is sqrt(k).  The truncated commutator [a, a^dag] equals the
    identity except for the (n_max, n_max) entry, which is -n_max.
    """
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    return OperatorMatrix(np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex))


def number_operator(n_max: int) -> OperatorMatrix:
    return OperatorMatrix(np.diag(np.arange(0.0, n_max + 1)).astype(complex))


def identity(dim: int) -> OperatorMatrix:
    return OperatorMatrix(np.eye(dim, dtype=complex))


def _as_array(op) -> np.ndarray:
    return op.mat if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)


def tensor3(op_qubit, op_a, op_b) -> OperatorMatrix:
    """Kronecker product qubit (x) A (x) B consistent with the flat ordering.

    q (x) (a (x) b) is formed by broadcasting, with the products of
    ``np.kron(q, np.kron(a, b))`` taken in the same order, so the result
    is bit-identical to it and skips np.kron's per-call overhead."""
    q, a, b = _as_array(op_qubit), _as_array(op_a), _as_array(op_b)
    if q.shape != (2, 2):
        raise InvalidArgumentError(f"qubit factor must be 2x2, got {q.shape}")
    for name, f in (("A", a), ("B", b)):
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] < 2:
            raise InvalidArgumentError(f"mode {name} factor must be square with dim >= 2")
    cutoff = FockCutoff(a.shape[0] - 1, b.shape[0] - 1)
    # axes (qubit, A, B) of the row, then of the column
    ab = a[:, None, :, None] * b[None, :, None, :]
    out = q[:, None, None, :, None, None] * ab[None, :, :, None, :, :]
    return OperatorMatrix(out.reshape(cutoff.dim, cutoff.dim), cutoff)


def number_state(label: TensorBasisLabel, cutoff: FockCutoff) -> StateVector:
    vec = np.zeros(cutoff.dim, dtype=complex)
    vec[label.flat_index(cutoff)] = 1.0
    return StateVector(vec, cutoff)


def coherent_state(
    mode: str,
    alpha: complex,
    cutoff: FockCutoff,
    qubit_level: int = 0,
) -> StateVector:
    """Coherent state |alpha> in one mode, vacuum elsewhere, qubit in a level.

    Parameters
    ----------
    mode : {"A", "B"}
        Which resonator holds the coherent state.
    alpha : complex
        Coherent amplitude.
    cutoff : FockCutoff
        Composite truncation.  If the Poisson tail
        |alpha|^(2(n_max+1)) / (n_max+1)! is not below 1e-8 a warning is
        emitted; the truncated vector is renormalized either way.
    qubit_level : {0, 1}
        Qubit component of the product state.
    """
    if mode not in ("A", "B"):
        raise InvalidArgumentError(f"mode must be 'A' or 'B', got {mode!r}")
    if not (isinstance(qubit_level, (int, np.integer)) and qubit_level in (0, 1)):
        raise InvalidArgumentError(f"qubit_level must be 0 or 1, got {qubit_level!r}")
    n_max = cutoff.n_max_a if mode == "A" else cutoff.n_max_b
    alpha = complex(alpha)
    if alpha != 0:
        log_tail = 2 * (n_max + 1) * math.log(abs(alpha)) - math.lgamma(n_max + 2)
        if log_tail > math.log(1e-8):
            warnings.warn(
                f"coherent state truncation tail {math.exp(log_tail):.3e} exceeds 1e-8 "
                f"at n_max={n_max}; increase the cutoff",
                stacklevel=2,
            )
    amps = np.empty(n_max + 1, dtype=complex)
    amps[0] = 1.0
    for k in range(1, n_max + 1):
        amps[k] = amps[k - 1] * alpha / math.sqrt(k)
    amps /= np.linalg.norm(amps)

    qubit = np.zeros(2, dtype=complex)
    qubit[qubit_level] = 1.0
    vac_a = np.zeros(cutoff.dim_a, dtype=complex)
    vac_a[0] = 1.0
    vac_b = np.zeros(cutoff.dim_b, dtype=complex)
    vac_b[0] = 1.0
    mode_a = amps if mode == "A" else vac_a
    mode_b = amps if mode == "B" else vac_b
    return StateVector(np.kron(qubit, np.kron(mode_a, mode_b)), cutoff)


def hermiticity_defect(mat: np.ndarray) -> float:
    """max |M - M^dag| normalized by max |M| (0 for the zero matrix)."""
    mat = _as_array(mat)
    scale = float(np.max(np.abs(mat)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(mat - mat.conj().T))) / scale


def require_density_matrix(
        rho: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Raise unless rho is hermitian, unit trace, positive semidefinite.

    _DENSITY_TOL bounds the hermiticity defect, |trace - 1| and the
    negative eigenvalues.  Returns ``(support, root)``: the indices of the
    nonzero rows of rho, and a |S| x r factor of the support block
    B = rho[support][:, support] with ``root @ root^dag`` = B.

    A matrix built by ``StateVector.density`` returns ``(flatnonzero(psi),
    psi[support][:, None])`` from its vector psi in O(dim), and reads no
    element of the matrix: psi psi^dag is hermitian and rank 1 by
    construction, and StateVector holds |psi|^2, its trace, within
    _DENSITY_TOL.  Every other matrix takes the checks below.  A pure
    block among them needs no eigendecomposition either: with the pivot j
    of the largest diagonal entry and psi = B[:, j] / sqrt(B[j, j]), a
    block with ||B - psi psi^dag||_F <= _DENSITY_TOL returns
    ``psi[:, None]``.  By
    Weyl's inequality every eigenvalue of B then lies within _DENSITY_TOL
    of (|psi|^2, 0, ...), so B passes the eigenvalue check as well.  Any
    other block takes one ``eigh``, and root keeps the eigenvectors with
    eigenvalues above w_max |S| eps, each scaled by sqrt(w): the numerical
    range of B, so r is its numerical rank.
    """
    psi = rho._psi
    if psi is not None:
        support = np.flatnonzero(psi)
        return support, psi[support][:, None]
    mat = rho.mat
    if hermiticity_defect(mat) > _DENSITY_TOL:
        raise InvalidArgumentError("density matrix is not hermitian")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > _DENSITY_TOL:
        raise InvalidArgumentError(f"density matrix trace {tr} deviates from 1")
    support = np.flatnonzero(np.any(mat != 0, axis=1))
    block = mat[np.ix_(support, support)]
    j = int(np.argmax(block.diagonal().real))
    psi = block[:, j] / math.sqrt(block[j, j].real)
    if np.linalg.norm(block - np.outer(psi, psi.conj())) <= _DENSITY_TOL:
        return support, psi[:, None]
    w, v = np.linalg.eigh(block)
    if float(w[0]) < -_DENSITY_TOL:
        raise InvalidArgumentError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    keep = w > w[-1] * support.size * np.finfo(float).eps
    return support, v[:, keep] * np.sqrt(w[keep])


_FACTORS = ("qubit", "A", "B")


def partial_trace(rho: OperatorMatrix, keep) -> OperatorMatrix:
    """Reduced density matrix over a subset of {"qubit", "A", "B"}.

    Parameters
    ----------
    rho : OperatorMatrix
        A valid density matrix on the composite space; its cutoff must be set.
    keep : str or sequence of str
        Factors to retain.  The result orders kept factors canonically
        (qubit, A, B) regardless of the order given.

    Returns
    -------
    OperatorMatrix
        Density matrix on the kept factors (cutoff is None unless all three
        factors are kept).
    """
    if rho.cutoff is None:
        raise InvalidArgumentError("partial_trace needs an operator with a cutoff attached")
    if isinstance(keep, str):
        keep = (keep,)
    keep = tuple(keep)
    unknown = [k for k in keep if k not in _FACTORS]
    if unknown or not keep or len(set(keep)) != len(keep):
        raise InvalidArgumentError(f"keep must be a non-empty subset of {_FACTORS}, got {keep!r}")
    require_density_matrix(rho)

    c = rho.cutoff
    dims = (2, c.dim_a, c.dim_b)
    work = rho.mat.reshape(dims + dims)
    # Trace out unkept factors from the right so earlier axis ids stay valid.
    kept_positions = [p for p, name in enumerate(_FACTORS) if name in keep]
    n_active = 3
    for p in reversed(range(3)):
        if p in kept_positions:
            continue
        work = np.trace(work, axis1=p, axis2=p + n_active)
        n_active -= 1
    kept_dim = int(np.prod([dims[p] for p in kept_positions]))
    out = work.reshape(kept_dim, kept_dim)
    out_cutoff = c if len(keep) == 3 else None
    return OperatorMatrix(out, out_cutoff)
