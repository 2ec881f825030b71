import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from definetti.operators import (
    ResourceCapError,
    density,
    haar_moment_operator,
    haar_state_vector,
    identity_channel,
    induced_mixed_state,
    pauli_twirl_channel,
    permutation_twirl,
    pure_state_density,
    qc_dephasing_channel,
    completely_depolarizing_channel,
    set_max_side,
    stream,
    sym_projector,
    symmetric_state_vector,
)
from definetti.reductions import (
    check_classical_reduction,
    check_fixed_point_reduction,
    check_integrand_domination,
    check_mixed_reduction,
    check_pinching,
    check_pure_reduction,
    check_truncated_ambient_reduction,
    constrained_moment,
    monte_carlo_constrained_moment,
    truncated_symmetric_state_vector,
)


def test_pinching_single_operator_is_equality():
    rho = induced_mixed_state((3,), 0)
    res = check_pinching([np.eye(3)], rho)
    assert res.passed
    assert abs(res.gap_min_eig) < 1e-12


def test_pinching_two_orthogonal_projectors():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    psi = pure_state_density(haar_state_vector(2, 1), (2,))
    res = check_pinching([p0, p1], psi)
    assert res.passed
    assert res.prefactor == 2


def test_pinching_random_instances():
    for s in range(100):
        rng = stream(2, "pinch", s)
        ops = [
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for _ in range(3)
        ]
        rho = induced_mixed_state((4,), 2, s)
        res = check_pinching(ops, rho)
        assert res.passed, (s, res.gap_min_eig)


def test_constrained_moment_single_copy_closed_form():
    for d in (2, 3):
        theta = haar_state_vector(d, 3, d)
        got = constrained_moment(theta, 1, d).matrix
        expect = (np.outer(theta, theta.conj()) + np.eye(d)) / (d * (d + 1))
        assert_allclose(got, expect, atol=1e-13)


def test_constrained_moment_occupation_diagonal():
    # |00..0> input: the operator is diagonal in the occupation basis
    n, d = 3, 2
    theta = np.zeros(d**n)
    theta[0] = 1.0
    got = constrained_moment(theta, n, d).matrix
    # occupation basis: normalized symmetrized strings
    basis = []
    for combo in itertools.combinations_with_replacement(range(d), n):
        vec = np.zeros(d**n)
        for arrangement in set(itertools.permutations(combo)):
            idx = 0
            for letter in arrangement:
                idx = idx * d + letter
            vec[idx] = 1.0
        basis.append(vec / np.linalg.norm(vec))
    basis = np.stack(basis).T
    in_occ = basis.conj().T @ got @ basis
    off = in_occ - np.diag(np.diag(in_occ))
    assert np.abs(off).max() < 1e-12


def test_constrained_moment_trace_identity():
    for (n, d) in [(2, 2), (3, 2), (2, 3)]:
        theta = symmetric_state_vector(n, d, 4)
        got = constrained_moment(theta, n, d)
        expect = np.vdot(theta, haar_moment_operator(n, d).matrix @ theta).real
        assert abs(got.trace() - expect) < 1e-10


def test_constrained_moment_requires_symmetry():
    with pytest.raises(ValueError):
        constrained_moment(np.array([0, 1, 0, 0.0]), 2, 2)


def test_constrained_moment_linearity():
    a = symmetric_state_vector(2, 2, 5, "a")
    b = symmetric_state_vector(2, 2, 5, "b")
    b = b - np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    mix = 0.5 * (np.outer(a, a.conj()) + np.outer(b, b.conj()))
    avg = 0.5 * (constrained_moment(a, 2, 2).matrix + constrained_moment(b, 2, 2).matrix)
    proj = sym_projector(4, 2).matrix.reshape(4, 4, 4, 4)
    mixed = np.einsum("uw,waub->ab", mix, proj) / math.comb(5, 4)
    assert np.linalg.norm(mixed - avg) < 1e-12


def test_constrained_moment_monte_carlo_agreement():
    theta = symmetric_state_vector(2, 2, 6)
    exact = constrained_moment(theta, 2, 2).matrix
    mean, stderr = monte_carlo_constrained_moment(theta, 2, 2, samples=20_000, seed=6)
    assert (np.abs(mean - exact) <= 5 * stderr + 1e-12).all()


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_constrained_moment_matches_dense_projector(n, d):
    theta = symmetric_state_vector(n, d, 16, n, d)
    dn = d**n
    proj = sym_projector(2 * n, d).matrix.reshape(dn, dn, dn, dn)
    dense = np.einsum("u,w,waub->ab", theta, theta.conj(), proj) / math.comb(2 * n + d - 1, 2 * n)
    got = constrained_moment(theta, n, d).matrix
    assert np.abs(got - dense).max() < 1e-13


def test_constrained_moment_keeps_side_cap():
    theta = symmetric_state_vector(4, 2, 17)
    set_max_side(255)
    with pytest.raises(ResourceCapError):
        constrained_moment(theta, 4, 2)
    # the ambient side 81 fits, the degree-8 moment on the low block does not
    set_max_side(200)
    with pytest.raises(ResourceCapError):
        check_truncated_ambient_reduction(2, 2, 2, 3, seed=0)


def test_constrained_moment_peak_memory_stays_small():
    # the side-4096 projector alone would take 268 MB
    theta = symmetric_state_vector(6, 2, 18)
    tracemalloc.start()
    try:
        res = check_pure_reduction(theta, 6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 64 * 2**20, peak


def test_monte_carlo_crosses_a_chunk_boundary():
    theta = symmetric_state_vector(2, 2, 19)
    exact = constrained_moment(theta, 2, 2).matrix
    mean, stderr = monte_carlo_constrained_moment(theta, 2, 2, samples=2049, seed=19)
    again, stderr_again = monte_carlo_constrained_moment(theta, 2, 2, samples=2049, seed=19)
    assert np.array_equal(mean, again) and np.array_equal(stderr, stderr_again)
    assert (np.abs(mean - exact) <= 5 * stderr + 1e-12).all()


def test_pure_reduction_examples():
    theta = np.zeros(4)
    theta[0] = 1.0
    res = check_pure_reduction(theta, 2, 2)
    assert res.passed and res.prefactor == 27
    theta = np.zeros(9)
    theta[1] = theta[3] = 1 / math.sqrt(2)
    res = check_pure_reduction(theta, 2, 3)
    assert res.passed and res.prefactor == math.comb(2 + 3 - 1, 2) ** 3


def test_pure_reduction_random_seeds():
    # a hundred seeds per qubit configuration, a spot check at d = 3
    for (n, d, seeds) in [(2, 2, 100), (3, 2, 100), (2, 3, 10)]:
        for s in range(seeds):
            theta = symmetric_state_vector(n, d, 100 + s, n, d)
            res = check_pure_reduction(theta, n, d)
            assert res.passed, (n, d, s, res.gap_min_eig)


def test_mixed_reduction():
    res = check_mixed_reduction(2, 2, seed=3, samples=100)
    assert res.passed
    assert res.prefactor == math.comb(2 + 4 - 1, 2) ** 3
    assert res.extras["fidelity_domination_min_margin"] >= -1e-9
    # the reduced state is permutation invariant by construction
    rho = res.lhs
    assert np.linalg.norm(permutation_twirl(rho, 2).matrix - rho.matrix) < 1e-12


def test_integrand_domination_identity_channel():
    tau0 = induced_mixed_state((2,), 7)
    rho = density(np.kron(tau0.matrix, tau0.matrix), (2, 2))
    res = check_integrand_domination(rho, identity_channel((2,)), tau0, samples=50, seed=7)
    assert res.passed
    # identity channel: both sides agree per sample
    assert np.abs(res.margins).max() < 1e-9


def test_integrand_domination_depolarizing():
    d = 2
    ch = completely_depolarizing_channel(d)
    tau0 = density(np.eye(d) / d, (d,))
    rho_single = induced_mixed_state((d,), 8)
    rho = density(np.kron(rho_single.matrix, rho_single.matrix), (d, d))
    res = check_integrand_domination(rho, ch, tau0, samples=50, seed=8, delta=0.2)
    assert res.passed
    assert res.extras["mass_in_kdelta"] == 1.0  # RHS fidelity is always 1


def test_integrand_domination_dephasing_classical():
    ch = qc_dephasing_channel(2)
    p = np.array([0.7, 0.3])
    tau0 = density(np.diag(p), (2,))
    joint = np.kron(np.diag(p), np.diag(p))
    rho = density(joint, (2, 2))
    res = check_integrand_domination(rho, ch, tau0, samples=1000, seed=9)
    assert res.passed


def test_integrand_domination_precondition():
    tau0 = induced_mixed_state((2,), 10, "t")
    rho = density(np.eye(4) / 4, (2, 2))
    with pytest.raises(ValueError):
        check_integrand_domination(rho, identity_channel((2,)), tau0, samples=5)


def test_fixed_point_identity_channel():
    rho = induced_mixed_state((2, 2), 11)
    res = check_fixed_point_reduction(rho, identity_channel((2,)), samples=30, seed=11)
    assert res.passed
    assert np.abs(res.margins).max() < 1e-9


def test_fixed_point_pauli_twirl():
    ch = pauli_twirl_channel()
    rho = density(np.eye(4) / 4, (2, 2))
    res = check_fixed_point_reduction(rho, ch, samples=100, seed=12)
    assert res.passed


def test_fixed_point_dephasing_diagonal_state():
    ch = qc_dephasing_channel(2)
    # symmetric diagonal two-copy state
    w = np.array([0.4, 0.1, 0.1, 0.4])
    rho = density(np.diag(w), (2, 2))
    res = check_fixed_point_reduction(rho, ch, samples=100, seed=13)
    assert res.passed


def test_classical_reduction_uniform():
    res = check_classical_reduction(np.full(8, 1 / 8), 2, 3)
    assert res.passed
    assert res.min_slack > 0
    assert res.prefactor == math.comb(3 + 4 - 1, 3) ** 3
    assert res.printed_prefactor == 4 ** (3 * 4)


def test_classical_reduction_point_mass():
    w = np.zeros(8)
    w[0] = 1.0
    res = check_classical_reduction(w, 2, 3)
    assert res.passed
    assert res.rhs_diag[0] >= 1.0  # prefactor times moment weight covers the point mass


def test_classical_reduction_symmetrized_string():
    w = np.zeros(8)
    for idx in (0b001, 0b010, 0b100):
        w[idx] = 1 / 3
    res = check_classical_reduction(w, 2, 3)
    assert res.passed


def test_classical_reduction_rejects_asymmetric():
    w = np.zeros(8)
    w[1] = 1.0
    with pytest.raises(ValueError):
        check_classical_reduction(w, 2, 3)


def test_truncated_reduction_k0_matches_pure():
    theta2 = symmetric_state_vector(2, 2, 14)
    emb = np.zeros((3, 3), dtype=complex)
    emb[:2, :2] = theta2.reshape(2, 2)
    res = check_truncated_ambient_reduction(2, 0, 2, 3, seed=0, theta=emb.reshape(-1))
    pure = check_pure_reduction(theta2, 2, 2)
    assert res.passed
    assert res.prefactor == pure.prefactor == 27
    # the embedded gap operator restricted to the low block matches the pure one
    assert abs(res.gap_min_eig - min(pure.gap_min_eig, 0.0)) < 1e-9


def test_truncated_reduction_configs():
    for (d, big_d, n, k) in [(2, 3, 1, 1), (2, 3, 2, 1)]:
        for s in range(5):
            res = check_truncated_ambient_reduction(n, k, d, big_d, seed=s)
            assert res.passed, (d, big_d, n, k, s, res.gap_min_eig)
    expected = sum(math.comb(2, q) for q in range(2)) * math.comb(2, 1) ** 3
    assert check_truncated_ambient_reduction(1, 1, 2, 3, seed=0).prefactor == expected == 24


def loop_global_indices(comp, subset, d, d_perp, big_d, m):
    """Basis indices of strings that are perp on ``comp`` and low on ``subset``,
    comp digits the slow axis, by explicit digit arithmetic."""
    strides = big_d ** np.arange(m - 1, -1, -1, dtype=np.int64)
    comp_count = max(d_perp ** len(comp), 1)
    sub_count = d ** len(subset)
    rows = np.zeros(comp_count * sub_count, dtype=np.int64)
    for ci in range(comp_count):
        base = 0
        rem = ci
        for pos in reversed(comp):
            base += (d + rem % d_perp) * strides[pos]
            rem //= d_perp
        for si in range(sub_count):
            off = 0
            rem2 = si
            for pos in reversed(subset):
                off += (rem2 % d) * strides[pos]
                rem2 //= d
            rows[ci * sub_count + si] = base + off
    return rows


def dense_truncated_rhs(theta, n, k, d, big_d):
    """The truncated right-hand side through the dense degree-2m projector."""
    m = n + k
    side = big_d**m
    arr = theta.reshape((big_d,) * m)
    rhs = np.zeros((side, side), dtype=complex)
    for msize in range(n, m + 1):
        dm = d**msize
        q4 = sym_projector(2 * msize, d).matrix.reshape(dm, dm, dm, dm) / math.comb(2 * msize + d - 1, 2 * msize)
        for subset in itertools.combinations(range(m), msize):
            comp = [i for i in range(m) if i not in subset]
            view = arr.transpose(comp + list(subset))
            slicer = tuple(slice(d, big_d) for _ in comp) + tuple(slice(0, d) for _ in subset)
            block = view[slicer].reshape(max((big_d - d) ** len(comp), 1), dm)
            term = np.einsum("us,vt,tasb->uavb", block, block.conj(), q4)
            rows = loop_global_indices(comp, subset, d, big_d - d, big_d, m)
            rhs[np.ix_(rows, rows)] += term.reshape(rows.size, rows.size)
    prefactor = sum(math.comb(m, q) for q in range(k + 1)) * math.comb(n + d - 1, n) ** 3
    return prefactor * (rhs + rhs.conj().T) / 2.0


@pytest.mark.parametrize("d,big_d,n,k", [(2, 3, 1, 1), (2, 3, 2, 1), (2, 3, 2, 2), (1, 3, 2, 2)])
def test_truncated_rhs_matches_dense_projector(d, big_d, n, k):
    theta = truncated_symmetric_state_vector(n, k, d, big_d, 20)
    res = check_truncated_ambient_reduction(n, k, d, big_d, seed=20, theta=theta)
    dense = dense_truncated_rhs(theta, n, k, d, big_d)
    assert np.abs(res.rhs.matrix - dense).max() <= 1e-12 * np.abs(dense).max()


def test_truncated_state_has_low_letter_support():
    theta = truncated_symmetric_state_vector(2, 1, 2, 3, seed=5)
    arr = theta.reshape(3, 3, 3)
    # strings with more than k=1 letters outside the low subspace carry no weight
    assert abs(arr[2, 2, 2]) < 1e-15
    # symmetric under factor exchange
    assert np.linalg.norm(arr - arr.transpose(1, 0, 2)) < 1e-12


def test_reduction_check_fields():
    theta = symmetric_state_vector(2, 2, 15)
    res = check_pure_reduction(theta, 2, 2)
    assert res.tolerance == 1e-9
    assert res.params["n"] == 2 and res.params["d"] == 2
    assert res.rhs.dims.factors == (2, 2)
    assert isinstance(res.prefactor, int)
