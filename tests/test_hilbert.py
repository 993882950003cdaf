"""Truncated tensor algebra: labels, operators, states, partial trace."""

import numpy as np
import pytest

from cqdeph.errors import InvalidArgumentError
from cqdeph.hilbert import (
    FockCutoff,
    OperatorMatrix,
    StateVector,
    TensorBasisLabel,
    annihilation,
    coherent_state,
    number_operator,
    partial_trace,
    require_density_matrix,
    tensor3,
)


def _number_state(label, cutoff):
    vec = np.zeros(cutoff.dim, dtype=complex)
    vec[label.flat_index(cutoff)] = 1.0
    return StateVector(vec, cutoff)


def test_cutoff_dimensions():
    cut = FockCutoff(3, 5)
    assert cut.dim_a == 4
    assert cut.dim_b == 6
    assert cut.dim == 2 * 4 * 6


def test_cutoff_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        FockCutoff(-1, 2)


def test_label_flat_roundtrip():
    cut = FockCutoff(2, 4)
    seen = set()
    for flat in range(cut.dim):
        lab = TensorBasisLabel.from_flat(flat, cut)
        assert lab.flat_index(cut) == flat
        seen.add((lab.m, lab.n, lab.i))
    assert len(seen) == cut.dim


def test_label_ordering_is_qubit_mode_a_mode_b():
    # flat index factorizes as (i * dim_a + m) * dim_b + n
    cut = FockCutoff(2, 3)
    assert TensorBasisLabel(0, 0, 0).flat_index(cut) == 0
    assert TensorBasisLabel(0, 1, 0).flat_index(cut) == 1
    assert TensorBasisLabel(1, 0, 0).flat_index(cut) == cut.dim_b
    assert TensorBasisLabel(0, 0, 1).flat_index(cut) == cut.dim_a * cut.dim_b


@pytest.mark.parametrize("n_max_a, n_max_b", [(1, 1), (3, 4), (6, 2)])
def test_numbers_follow_the_flat_order(n_max_a, n_max_b):
    cut = FockCutoff(n_max_a, n_max_b)
    m, n, i = cut.numbers()
    for arr in (m, n, i):
        assert arr.shape == (cut.dim,)
        assert arr.dtype.kind == "i"
    for k in range(cut.dim):
        assert TensorBasisLabel.from_flat(k, cut) == \
            TensorBasisLabel(int(m[k]), int(n[k]), int(i[k]))


def test_label_out_of_range():
    cut = FockCutoff(2, 2)
    with pytest.raises(InvalidArgumentError):
        TensorBasisLabel(3, 0, 0).flat_index(cut)
    with pytest.raises(InvalidArgumentError):
        TensorBasisLabel(0, 0, 2)


@pytest.mark.parametrize("m, n, i, field", [
    (1.5, 0, 0, "m"), (0, 0.5, 0, "n"), (0, 0, 1.0, "i"), (np.nan, 0, 0, "m"),
])
def test_label_rejects_non_integers(m, n, i, field):
    with pytest.raises(InvalidArgumentError, match=f"TensorBasisLabel.{field} "):
        TensorBasisLabel(m, n, i).flat_index(FockCutoff(2, 3))


def test_annihilation_matrix_elements():
    a = annihilation(4).mat
    for n in range(1, 5):
        assert a[n - 1, n] == pytest.approx(np.sqrt(n))
    assert np.count_nonzero(a) == 4


def test_number_operator_diagonal():
    n = number_operator(5).mat
    assert np.allclose(n, np.diag(np.arange(6)))


def test_commutator_truncation_corner():
    a = annihilation(6).mat
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(comm[:-1, :-1], np.eye(6))
    # the very top level absorbs the truncation error
    assert comm[6, 6] == pytest.approx(-6.0)


def test_tensor3_shapes_and_cutoff():
    cut = FockCutoff(2, 3)
    op = tensor3(np.eye(2), annihilation(2).mat, np.eye(cut.dim_b))
    assert op.mat.shape == (cut.dim, cut.dim)
    assert op.cutoff == cut


def test_tensor3_acts_on_correct_factor():
    cut = FockCutoff(2, 3)
    num_a = tensor3(np.eye(2), number_operator(2).mat, np.eye(cut.dim_b))
    for lab in (TensorBasisLabel(2, 1, 0), TensorBasisLabel(1, 3, 1)):
        k = lab.flat_index(cut)
        assert num_a.mat[k, k] == pytest.approx(lab.m)


@pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (3, 5), (6, 4)])
def test_tensor3_is_the_nested_kron(dim_a, dim_b):
    rng = np.random.default_rng(dim_a * 10 + dim_b)

    def factor(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    q, a, b = factor(2), factor(dim_a), factor(dim_b)
    assert np.array_equal(tensor3(q, a, b).mat, np.kron(q, np.kron(a, b)))


@pytest.mark.parametrize("q, a, b", [
    (np.eye(3), np.eye(2), np.eye(2)),          # qubit factor not 2x2
    (np.eye(2), np.ones((2, 3)), np.eye(2)),    # A not square
    (np.eye(2), np.eye(2), np.eye(1)),          # B of dim 1
    (np.eye(2), np.ones(4), np.eye(2)),         # A not a matrix
])
def test_tensor3_rejects_bad_factors(q, a, b):
    with pytest.raises(InvalidArgumentError):
        tensor3(q, a, b)


def test_states_and_operators_compare_by_identity():
    cut = FockCutoff(1, 1)
    vec = np.full(cut.dim, 1.0 / np.sqrt(cut.dim))
    for x, y in ((StateVector(vec, cut), StateVector(vec, cut)),
                 (StateVector(vec, cut).density(), StateVector(vec, cut).density()),
                 (OperatorMatrix(np.eye(3)), OperatorMatrix(np.eye(3)))):
        assert x == x
        assert not x == y and x != y
        assert hash(x) == hash(x) and {x, y} == {x, y}


def test_operator_matrix_is_readonly():
    op = OperatorMatrix(np.eye(3))
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_state_normalization_enforced():
    with pytest.raises(InvalidArgumentError):
        StateVector(np.array([1.0, 1.0]))
    psi = StateVector.normalized(np.array([1.0, 1.0]))
    assert np.linalg.norm(psi.vec) == pytest.approx(1.0)
    with pytest.raises(InvalidArgumentError):
        StateVector.normalized(np.zeros(4))


def test_state_vector_holds_the_density_trace_condition():
    # norm 1 + 0.8e-10 puts the trace of psi psi^dag 1.6e-10 from 1, which
    # require_density_matrix rejects, so the vector is rejected as well
    cut = FockCutoff(1, 1)
    vec = np.zeros(cut.dim, dtype=complex)
    vec[3] = 1.0 + 0.8e-10
    with pytest.raises(InvalidArgumentError, match="norm squared"):
        StateVector(vec, cut)
    vec[3] = 1.0 + 0.4e-10
    rho = StateVector(vec, cut).density()
    for mat in (rho, OperatorMatrix(rho.mat, cut)):
        support, root = require_density_matrix(mat)
        assert support.tolist() == [3] and root.shape == (1, 1)


def test_state_vector_rejects_a_nan_amplitude():
    # a nan norm used to pass the bound |norm^2 - 1| > tol
    cut = FockCutoff(1, 1)
    vec = np.zeros(cut.dim, dtype=complex)
    vec[0], vec[3] = 1.0, np.nan
    with pytest.raises(InvalidArgumentError, match="norm squared nan"):
        StateVector(vec, cut)


def test_normalized_rejects_an_inf_amplitude():
    # inf / inf used to leave a vector of nans that the norm check accepted
    cut = FockCutoff(1, 1)
    amps = np.zeros(cut.dim, dtype=complex)
    amps[0], amps[3] = 1.0, np.inf
    with pytest.raises(InvalidArgumentError, match="norm inf"):
        StateVector.normalized(amps, cut)
    amps[3] = np.nan
    with pytest.raises(InvalidArgumentError, match="norm nan"):
        StateVector.normalized(amps, cut)


def test_density_check_rejects_a_nan_diagonal():
    # every bound used to pass a nan, and the eigenvalue cut then kept no
    # column: a rank-0 "mixed" state
    cut = FockCutoff(1, 1)
    mat = np.zeros((cut.dim, cut.dim), dtype=complex)
    mat[0, 0], mat[1, 1] = 1.0, np.nan
    with pytest.raises(InvalidArgumentError, match="not hermitian"):
        require_density_matrix(OperatorMatrix(mat, cut))


def test_flat_indices_follow_the_labels():
    cut = FockCutoff(2, 3)
    m, n, i = cut.numbers()
    assert np.array_equal(cut.flat_indices(m, n, i), np.arange(cut.dim))
    assert cut.flat_indices([1], [3], [1]).tolist() == \
        [TensorBasisLabel(1, 3, 1).flat_index(cut)]
    for bad in (([3], [0], [0]), ([0], [4], [0]), ([0], [0], [2]),
                ([-1], [0], [0])):
        with pytest.raises(InvalidArgumentError, match="exceeds cutoff"):
            cut.flat_indices(*bad)


def test_density_is_projector():
    cut = FockCutoff(1, 1)
    rng = np.random.default_rng(0)
    psi = StateVector.normalized(
        rng.normal(size=cut.dim) + 1j * rng.normal(size=cut.dim), cut)
    rho = psi.density()
    assert np.allclose(rho.mat @ rho.mat, rho.mat)
    assert np.trace(rho.mat) == pytest.approx(1.0)


def test_density_check_on_sparse_support():
    # a block on labels 2 and 5 of dim 8; the other rows are zero
    cut = FockCutoff(1, 1)
    for off, ok in ((0.3, True), (0.7, False)):   # eigenvalues 0.5 +- off
        mat = np.zeros((cut.dim, cut.dim))
        mat[np.ix_([2, 5], [2, 5])] = [[0.5, off], [off, 0.5]]
        if ok:
            require_density_matrix(OperatorMatrix(mat, cut))
        else:
            with pytest.raises(InvalidArgumentError, match="negative eigen"):
                require_density_matrix(OperatorMatrix(mat, cut))


def test_density_check_returns_a_factor_of_the_support_block(rng):
    cut = FockCutoff(2, 2)
    support = np.array([1, 4, 5, 11, 16])
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    mat = np.zeros((cut.dim, cut.dim), dtype=complex)
    mat[np.ix_(support, support)] = a @ a.conj().T / np.trace(a @ a.conj().T)
    got, root = require_density_matrix(OperatorMatrix(mat, cut))
    assert np.array_equal(got, support)
    assert root.shape == (5, 5)
    block = mat[np.ix_(support, support)]
    assert np.max(np.abs(root @ root.conj().T - block)) < 1e-12

    psi = a[:, 0] / np.linalg.norm(a[:, 0])
    mat[np.ix_(support, support)] = np.outer(psi, psi.conj())
    got, root = require_density_matrix(OperatorMatrix(mat, cut))
    assert np.array_equal(got, support)
    assert root.shape == (5, 1)
    block = mat[np.ix_(support, support)]
    assert np.max(np.abs(root @ root.conj().T - block)) < 1e-12


def _orthonormal_pair(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
    return q[:, 0], q[:, 1]


def _unit_trace(mat):
    return mat / np.trace(mat).real


def test_rank1_exit_keeps_the_negative_eigenvalue_check(rng):
    cut = FockCutoff(2, 2)
    psi, phi = _orthonormal_pair(rng, cut.dim)
    mat = _unit_trace(np.outer(psi, psi.conj()) - 1e-9 * np.outer(phi, phi.conj()))
    with pytest.raises(InvalidArgumentError, match="negative eigenvalue"):
        require_density_matrix(OperatorMatrix(mat, cut))


@pytest.mark.parametrize("weight, rank", [(1e-9, 2), (1e-12, 1)])
def test_rank1_exit_takes_only_blocks_within_the_tolerance(rng, weight, rank):
    # a second eigenvalue above _DENSITY_TOL needs the eigendecomposition;
    # one below it is a pure state to the check's own tolerance
    cut = FockCutoff(2, 2)
    psi, phi = _orthonormal_pair(rng, cut.dim)
    mat = _unit_trace(np.outer(psi, psi.conj())
                      + weight * np.outer(phi, phi.conj()))
    support, root = require_density_matrix(OperatorMatrix(mat, cut))
    assert root.shape == (cut.dim, rank)
    assert np.max(np.abs(root @ root.conj().T - mat)) < 1e-12


def test_rank1_exit_keeps_the_hermiticity_check(rng):
    cut = FockCutoff(2, 2)
    psi, phi = _orthonormal_pair(rng, cut.dim)
    # phi is orthogonal to psi, so the trace stays 1
    mat = np.outer(psi, psi.conj()) + 1e-9 * np.outer(phi, psi.conj())
    with pytest.raises(InvalidArgumentError, match="not hermitian"):
        require_density_matrix(OperatorMatrix(mat, cut))


def test_coherent_state_poisson_weights():
    alpha = 0.6 + 0.3j
    cut = FockCutoff(14, 1)
    psi = coherent_state("A", alpha, cut)
    p0 = abs(psi.vec[TensorBasisLabel(0, 0, 0).flat_index(cut)]) ** 2
    p1 = abs(psi.vec[TensorBasisLabel(1, 0, 0).flat_index(cut)]) ** 2
    assert p1 / p0 == pytest.approx(abs(alpha) ** 2, rel=1e-10)
    assert np.linalg.norm(psi.vec) == pytest.approx(1.0)


@pytest.mark.parametrize("level", [-1, 2, 1.0])
def test_coherent_state_rejects_qubit_level_outside_0_1(level):
    # -1 used to build qubit level 1 through negative indexing, and 2 raised
    # a bare IndexError
    with pytest.raises(InvalidArgumentError, match="qubit_level must be 0 or 1"):
        coherent_state("A", 0.5, FockCutoff(2, 1), qubit_level=level)


def test_coherent_state_truncation_warning():
    with pytest.warns(UserWarning, match="truncation tail"):
        coherent_state("A", 3.0, FockCutoff(2, 1))


def test_partial_trace_reduces_to_qubit():
    cut = FockCutoff(2, 2)
    lab = TensorBasisLabel(1, 2, 1)
    rho = _number_state(lab, cut).density()
    q = partial_trace(rho, ("qubit",))
    assert q.mat.shape == (2, 2)
    assert q.mat[1, 1] == pytest.approx(1.0)


def test_partial_trace_is_trace_preserving(rng):
    cut = FockCutoff(2, 3)
    psi = StateVector.normalized(
        rng.normal(size=cut.dim) + 1j * rng.normal(size=cut.dim), cut)
    rho = psi.density()
    for keep in (("qubit",), ("A",), ("B",), ("qubit", "B")):
        red = partial_trace(rho, keep)
        assert np.trace(red.mat) == pytest.approx(1.0)
        assert np.allclose(red.mat, red.mat.conj().T)


def test_partial_trace_of_product_state():
    # qubit part of |1,0,1><1,0,1| x anything is |1><1|
    cut = FockCutoff(1, 1)
    psi = _number_state(TensorBasisLabel(1, 0, 1), cut)
    rho = psi.density()
    ab = partial_trace(rho, ("A", "B"))
    lab = TensorBasisLabel(1, 0, 0)  # m=1, n=0 inside the (A, B) factor
    k = 1 * cut.dim_b + 0
    assert ab.mat[k, k] == pytest.approx(1.0)


def test_partial_trace_needs_cutoff():
    rho = OperatorMatrix(np.eye(8) / 8.0)
    with pytest.raises(InvalidArgumentError):
        partial_trace(rho, ("qubit",))
