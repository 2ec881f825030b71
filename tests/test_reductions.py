import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from definetti import reductions, suites
from definetti.measures import _sqrtm_psd
from definetti.operators import (
    Dims,
    HermitianOperator,
    ResourceCapError,
    _haar_stack,
    density,
    haar_state_vector,
    identity_channel,
    induced_mixed_state,
    partial_trace_vector,
    pauli_twirl_channel,
    pure_state_density,
    qc_dephasing_channel,
    completely_depolarizing_channel,
    ginibre,
    set_max_side,
    stream,
    sym_projector,
    symmetric_state_vector,
)
from definetti.reductions import (
    _product_fidelities,
    _sym_gram,
    _sym_isometry,
    check_classical_reduction,
    check_fixed_point_reduction,
    check_integrand_domination,
    check_mixed_reduction,
    check_pinching,
    check_pinching_stack,
    check_pure_reduction,
    check_truncated_ambient_reduction,
    constrained_moment,
    monte_carlo_constrained_moment,
    truncated_symmetric_state_vector,
)
from reference import (
    haar_moment_operator,
    loop_fixed_point_margins,
    loop_integrand_margins,
    loop_mixed_margins,
    permutation_twirl,
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


@example(d=3, r=1, k=2, seed=0)
@given(d=st.integers(1, 4), r=st.integers(1, 4), k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_stacked_pinching_gaps_match_single_checks(d, r, k, seed):
    ops = ginibre(stream(seed, "pinching-stack"), (k, r, d, d))
    rhos = [induced_mixed_state((d,), seed, "pinching-stack", j) for j in range(k)]
    stacked = check_pinching_stack(ops, np.stack([rho.matrix for rho in rhos]), (d,))
    assert len(stacked) == k
    for j, got in enumerate(stacked):
        single = check_pinching(list(ops[j]), rhos[j])
        scale = np.linalg.norm(single.rhs.matrix)
        assert abs(got.gap_min_eig - single.gap_min_eig) <= 1e-12 * scale
        assert got.passed == single.passed and got.prefactor == single.prefactor == r
        assert got.params == single.params == {"r": r, "side": d}
        if r == 1:
            # a single operator makes both sides M rho M^dag: equality
            assert got.passed and abs(got.gap_min_eig) <= 1e-12 * scale


def test_pinching_suite_records_are_a_prefix_of_longer_runs():
    full = suites.pinching_suite(seeds=40, seed=5)
    assert [r["seed"] for r in full] == list(range(5, 45))
    for k in (1, 7, 39):
        assert suites.pinching_suite(seeds=k, seed=5) == full[:k]


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


@given(
    m=st.integers(1, 4),
    d=st.integers(1, 4),
    nrows=st.integers(1, 3),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sym_gram_matches_dense_projector(m, d, nrows, symmetric, seed):
    assume(d ** (2 * m) <= 256)
    dm = d**m
    rng = stream(seed, "sym-gram")
    rows = rng.standard_normal((nrows, dm)) + 1j * rng.standard_normal((nrows, dm))
    if symmetric:
        rows = rows @ sym_projector(m, d).matrix
    proj = sym_projector(2 * m, d).matrix.reshape(dm, dm, dm, dm)
    dense = np.einsum("us,vt,tasb->uavb", rows, rows.conj(), proj)
    assert np.abs(_sym_gram(rows, m, d) - dense).max() <= 1e-13 * max(np.abs(dense).max(), 1.0)


def test_constrained_moment_keeps_side_cap():
    # the cap holds the dense sides actually built: d^n for the moment and
    # D^(n+k) for the truncated check, not the degree-2n space
    theta = symmetric_state_vector(4, 2, 17)
    set_max_side(15)
    with pytest.raises(ResourceCapError):
        constrained_moment(theta, 4, 2)
    set_max_side(16)
    assert constrained_moment(theta, 4, 2).side == 16
    set_max_side(80)
    with pytest.raises(ResourceCapError):
        check_truncated_ambient_reduction(2, 2, 2, 3, seed=0)
    set_max_side(81)
    assert check_truncated_ambient_reduction(2, 2, 2, 3, seed=0).passed


@pytest.mark.parametrize(
    "call",
    [
        lambda: constrained_moment(np.eye(1024)[0], 1, 1024),
        lambda: constrained_moment(symmetric_state_vector(2, 64, 0), 2, 64),
        lambda: check_mixed_reduction(1, 32, seed=0),
        lambda: check_classical_reduction(np.full(32, 1 / 32), 32, 1),
        lambda: check_truncated_ambient_reduction(1, 0, 257, 258, seed=0),
    ],
    ids=["pure-1-1024", "pure-2-64", "mixed-1-32", "classical-32-1", "truncated-1-0-257-258"],
)
def test_occupation_gram_keeps_the_side_cap(call):
    # every dense side passes the cap, but the class-pair table (r^2 d
    # entries) or the scatter (r r2) does not: 8 GiB of pairs at (1, 1024)
    with pytest.raises(ResourceCapError, match="occupation Gram"):
        call()


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
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("mixed,n,d,bound_mb", [(False, 8, 2, 8), (True, 4, 2, 6)])
def test_reductions_past_the_degree_2n_cap_stay_small(mixed, n, d, bound_mb):
    # both once held the degree-2n side 65536 to the default cap; the dense
    # side built is 256 in both, with peaks of 4.1 MB and 3.2 MB
    theta = None if mixed else symmetric_state_vector(n, d, 20)
    tracemalloc.start()
    try:
        res = check_mixed_reduction(n, d, seed=0) if mixed else check_pure_reduction(theta, n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < bound_mb * 2**20, peak


def test_monte_carlo_crosses_a_chunk_boundary():
    theta = symmetric_state_vector(2, 2, 19)
    exact = constrained_moment(theta, 2, 2).matrix
    mean, stderr = monte_carlo_constrained_moment(theta, 2, 2, samples=2049, seed=19)
    again, stderr_again = monte_carlo_constrained_moment(theta, 2, 2, samples=2049, seed=19)
    assert np.array_equal(mean, again) and np.array_equal(stderr, stderr_again)
    assert (np.abs(mean - exact) <= 5 * stderr + 1e-12).all()


def test_monte_carlo_moment_rejects_no_samples():
    theta = symmetric_state_vector(2, 2, 19)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        monte_carlo_constrained_moment(theta, 2, 2, samples=0, seed=19)


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
            assert res.passed and res.gap_min_eig > 0.1, (n, d, s, res.gap_min_eig)


def test_pure_reduction_fails_at_prefactor_one(monkeypatch):
    # rhs = 1 * moment has trace 1/binom(n+d-1, n), so <theta|rhs - lhs|theta>
    # and with it the margin on Sym^n are at most 1/binom(n+d-1, n) - 1
    n, d = 2, 2
    rank = math.comb(n + d - 1, n)
    moment = reductions.constrained_moment
    monkeypatch.setattr(
        reductions,
        "constrained_moment",
        lambda theta, n, d: HermitianOperator(moment(theta, n, d).matrix / rank**3, (d,) * n),
    )
    res = check_pure_reduction(symmetric_state_vector(n, d, 7, "x"), n, d)
    assert res.gap_min_eig <= 1 / rank - 1
    assert not res.passed


@given(n=st.integers(1, 4), d=st.integers(1, 4))
def test_sym_isometry_spans_the_symmetric_subspace(n, d):
    v = _sym_isometry(n, d)
    assert v.shape == (d**n, math.comb(n + d - 1, n))
    assert np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() <= 1e-15
    assert np.abs(v @ v.conj().T - sym_projector(n, d).matrix).max() <= 1e-15


def test_mixed_reduction():
    res = check_mixed_reduction(2, 2, seed=3, samples=100)
    assert res.passed
    assert res.prefactor == math.comb(2 + 4 - 1, 2) ** 3
    assert res.extras["fidelity_domination_min_margin"] >= -1e-9
    # the reduced state is permutation invariant by construction
    rho = res.lhs
    assert np.linalg.norm(permutation_twirl(rho, 2).matrix - rho.matrix) < 1e-12


def test_mixed_reduction_rejects_no_samples():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_mixed_reduction(2, 2, seed=3, samples=0)


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


def test_integrand_domination_rejects_no_samples():
    tau0 = induced_mixed_state((2,), 7)
    rho = density(np.kron(tau0.matrix, tau0.matrix), (2, 2))
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_integrand_domination(rho, identity_channel((2,)), tau0, samples=0)


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


def test_fixed_point_rejects_no_samples():
    rho = induced_mixed_state((2, 2), 11)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_fixed_point_reduction(rho, identity_channel((2,)), samples=0)


def _assert_margins_match(new, ref):
    # margins are differences of fidelities, which lie in [0, 1]
    assert np.abs(new - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())
    assert (new.min() >= -reductions.GAP_TOL) == (ref.min() >= -reductions.GAP_TOL)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("seed", [0, 5, 14])
def test_mixed_reduction_matches_the_per_sample_loop(n, d, seed):
    # the (2, 3) moment has side 9^4 = 6561, over the default cap
    set_max_side((d * d) ** (2 * n))
    res = check_mixed_reduction(n, d, seed=seed, samples=40)
    ref = loop_mixed_margins(n, d, seed, 40)
    _assert_margins_match(np.array([res.extras["fidelity_domination_min_margin"]]), np.array([ref.min()]))
    assert res.passed == (res.gap_min_eig >= -reductions.GAP_TOL and ref.min() >= -reductions.GAP_TOL)


def _product_image_cases(seed):
    """``(rho, channel, tau0)`` with ``channel^n(rho) = tau0^n = rho``: a
    dephased diagonal state, the maximally mixed state under the completely
    depolarizing channel, and ``I/4`` under the Pauli twirl."""
    p = stream(seed, "product-image").dirichlet([1.0, 1.0, 1.0])
    diag = density(np.diag(p).astype(complex), (3,))
    yield density(np.kron(diag.matrix, diag.matrix), (3, 3)), qc_dephasing_channel(3), diag
    mixed = density(np.eye(2) / 2, (2,))
    yield density(np.eye(8) / 8, (2, 2, 2)), completely_depolarizing_channel(2), mixed
    yield density(np.eye(4) / 4, (2, 2)), pauli_twirl_channel(), mixed


@pytest.mark.parametrize("seed", [1, 8, 21])
def test_fixed_point_and_integrand_match_the_per_sample_loops(seed):
    for rho, ch, tau0 in _product_image_cases(seed):
        res = check_fixed_point_reduction(rho, ch, samples=60, seed=seed)
        ref = loop_fixed_point_margins(rho, ch, 60, seed)
        _assert_margins_match(res.margins, ref)
        assert res.passed == (ref.min() >= -reductions.GAP_TOL)
        for delta in (0.0, 0.05, 0.3):
            res = check_integrand_domination(rho, ch, tau0, samples=60, delta=delta, seed=seed)
            ref, mass = loop_integrand_margins(rho, ch, tau0, 60, delta, seed)
            _assert_margins_match(res.margins, ref)
            assert res.passed == (ref.min() >= -reductions.GAP_TOL)
            assert res.extras["mass_in_kdelta"] == mass


def test_stacked_fidelities_in_blocks_match_one_row_at_a_time(monkeypatch):
    # side 32 leaves 2^18 / 32^2 = 256 rows per stacked block, so 300 rows
    # take two blocks
    _, sigmas = _haar_stack(2, 300, 2, "blocks", induced=True)
    root = _sqrtm_psd(induced_mixed_state((2,) * 5, 2).matrix)
    calls = _count_eigensolver_calls(monkeypatch)
    values = _product_fidelities(root, sigmas, 5)
    assert len(calls) == 2
    rows = np.concatenate([_product_fidelities(root, sigmas[j : j + 1], 5) for j in range(300)])
    assert_allclose(values, rows, rtol=0, atol=1e-14)


def test_haar_stack_rows_are_the_single_samples():
    vecs, states = _haar_stack(3, 5, 4, "mixed-fid")
    for j in range(5):
        assert np.array_equal(vecs[j], haar_state_vector(9, 4, "mixed-fid", j))
        assert_allclose(states[j], partial_trace_vector(vecs[j], Dims((3, 3)), [0]).matrix, rtol=0, atol=1e-15)
    _, states = _haar_stack(2, 5, 4, "domination", induced=True)
    for j in range(5):
        assert_allclose(states[j], induced_mixed_state((2,), 4, "domination", j).matrix, rtol=0, atol=1e-15)


def _count_eigensolver_calls(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_sampled_checks_make_a_few_stacked_eigensolver_calls(monkeypatch):
    # a count, not a timing: one eigh per fidelity made 102, 201 and 202 calls here
    tau0 = density(np.diag([0.7, 0.3]).astype(complex), (2,))
    rho = density(np.kron(tau0.matrix, tau0.matrix), (2, 2))
    calls = _count_eigensolver_calls(monkeypatch)
    check_mixed_reduction(2, 2, seed=3, samples=100)
    assert len(calls) <= 8
    calls.clear()
    check_fixed_point_reduction(rho, qc_dephasing_channel(2), samples=100, seed=3)
    assert len(calls) <= 8
    calls.clear()
    check_integrand_domination(rho, qc_dephasing_channel(2), tau0, samples=100, seed=3)
    assert len(calls) <= 8


def test_sampled_checks_keep_the_side_cap():
    rho = density(np.eye(8) / 8, (2, 2, 2))
    tau0 = density(np.eye(2) / 2, (2,))
    set_max_side(4)
    with pytest.raises(ResourceCapError):
        check_fixed_point_reduction(rho, pauli_twirl_channel(), samples=3)
    with pytest.raises(ResourceCapError):
        check_integrand_domination(rho, pauli_twirl_channel(), tau0, samples=3)


def test_integrand_domination_rejects_a_target_of_the_wrong_side():
    rho = density(np.eye(4) / 4, (2, 2))
    tau0 = density(np.eye(3) / 3, (3,))
    with pytest.raises(ValueError, match="target side 3 is not the channel output side 2"):
        check_integrand_domination(rho, pauli_twirl_channel(), tau0, samples=3)


@pytest.mark.parametrize("delta", [-1.0, 1.5, float("nan")])
def test_integrand_domination_rejects_delta_outside_the_unit_interval(delta):
    rho = density(np.eye(4) / 4, (2, 2))
    tau0 = density(np.eye(2) / 2, (2,))
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\]"):
        check_integrand_domination(rho, pauli_twirl_channel(), tau0, samples=3, delta=delta)


@pytest.mark.parametrize("samples", [2.5, True, "3", np.float64(4.0)])
def test_sampled_checks_reject_non_integer_samples(samples):
    rho = density(np.eye(4) / 4, (2, 2))
    with pytest.raises(ValueError, match="samples must be >= 1 and an integer"):
        check_mixed_reduction(2, 2, seed=1, samples=samples)
    with pytest.raises(ValueError, match="samples must be >= 1 and an integer"):
        check_fixed_point_reduction(rho, pauli_twirl_channel(), samples=samples)
    with pytest.raises(ValueError, match="samples must be >= 1 and an integer"):
        monte_carlo_constrained_moment(symmetric_state_vector(2, 2, 1), 2, 2, samples=samples, seed=1)


def test_sampled_checks_accept_numpy_integer_samples():
    rho = density(np.eye(4) / 4, (2, 2))
    res = check_fixed_point_reduction(rho, pauli_twirl_channel(), samples=np.int64(7))
    assert res.margins.shape == (7,)


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


def test_classical_symmetry_test_stays_at_1e_12():
    # an asymmetry of norm 5.7e-11 passes SYMMETRY_TOL (1e-10) but not the classical 1e-12
    w = np.full(8, 1 / 8)
    w[0b001] += 2e-11
    w[0b010] -= 2e-11
    with pytest.raises(ValueError, match="not permutation symmetric to 1e-12"):
        check_classical_reduction(w, 2, 3)


def test_degenerate_sizes_name_the_parameter():
    with pytest.raises(ValueError, match="need d >= 1, got 0"):
        symmetric_state_vector(2, 0, 0)
    with pytest.raises(ValueError, match="need d >= 1, got 0"):
        check_classical_reduction(np.ones(1), 0, 2)
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        check_classical_reduction(np.ones(1), 2, 0)
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        check_truncated_ambient_reduction(0, 1, 2, 3, seed=0)
    with pytest.raises(ValueError, match="need k >= 0, got -1"):
        check_truncated_ambient_reduction(1, -1, 2, 3, seed=0)


def test_truncated_reduction_k0_matches_pure():
    theta2 = symmetric_state_vector(2, 2, 14)
    emb = np.zeros((3, 3), dtype=complex)
    emb[:2, :2] = theta2.reshape(2, 2)
    res = check_truncated_ambient_reduction(2, 0, 2, 3, seed=0, theta=emb.reshape(-1))
    pure = check_pure_reduction(theta2, 2, 2)
    assert res.passed
    assert res.prefactor == pure.prefactor == 27
    # at k = 0 the kept classes are Sym^2(C^2), so the margins agree
    assert abs(res.gap_min_eig - pure.gap_min_eig) < 1e-9


def test_truncated_reduction_configs():
    for (d, big_d, n, k) in [(2, 3, 1, 1), (2, 3, 2, 1)]:
        for s in range(5):
            res = check_truncated_ambient_reduction(n, k, d, big_d, seed=s)
            assert res.passed and res.gap_min_eig > 0.1, (d, big_d, n, k, s, res.gap_min_eig)
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


def permutation_truncated_vector(n, k, d, big_d, seed):
    """The truncated vector built class by class from explicit permutations."""
    m = n + k
    rng = stream(seed, "truncated")
    strides = big_d ** np.arange(m - 1, -1, -1, dtype=np.int64)
    vec = np.zeros(big_d**m, dtype=complex)
    for combo in itertools.combinations_with_replacement(range(big_d), m):
        if sum(1 for j in combo if j < d) < n:
            continue
        coeff = rng.standard_normal() + 1j * rng.standard_normal()
        members = set(itertools.permutations(combo))
        basis = np.zeros(big_d**m, dtype=complex)
        for arrangement in members:
            basis[int(np.dot(arrangement, strides))] = 1.0
        vec += coeff * basis / math.sqrt(len(members))
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize("d,big_d,n,k", [(2, 3, 1, 1), (2, 3, 2, 1), (2, 3, 2, 2), (1, 3, 2, 2)])
def test_truncated_vector_matches_permutation_construction(d, big_d, n, k):
    for seed in range(6):
        got = truncated_symmetric_state_vector(n, k, d, big_d, seed)
        assert np.array_equal(got, permutation_truncated_vector(n, k, d, big_d, seed))


def test_truncated_reduction_rejects_asymmetric_theta():
    theta = np.zeros(9)
    theta[1] = 1.0  # |0 1>
    with pytest.raises(ValueError, match="not permutation symmetric"):
        check_truncated_ambient_reduction(1, 1, 2, 3, seed=0, theta=theta)


def test_truncated_reduction_rejects_weight_past_k_outside_letters():
    theta = np.zeros(9)
    theta[8] = 1.0  # |2 2>: symmetric, with two letters outside C^2 and k = 1
    with pytest.raises(ValueError, match="more than 1 letters outside"):
        check_truncated_ambient_reduction(1, 1, 2, 3, seed=0, theta=theta)


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


def test_every_pass_rule_lives_in_the_two_builders():
    # ReductionCheck and SampledCheck are built, and GAP_TOL is read, only in
    # _operator_check and _sampled_check, so one place decides every margin;
    # the suites build no check, read no GAP_TOL, take no eigenvalue, and pass
    # on each verify-* record the verdict of the check behind it
    builders = {"_operator_check", "_sampled_check"}
    seen = {reductions: [], suites: []}
    for module, owners in seen.items():
        for top in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                name = getattr(node, "id", getattr(node, "attr", None))
                built = isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("ReductionCheck", "SampledCheck")
                read = name == "GAP_TOL" and isinstance(node.ctx, ast.Load)
                solved = module is suites and name in ("eigh", "eigvalsh", "min_eigenvalue")
                decided = (
                    module is suites
                    and isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "record"
                    and str(getattr(node.args[0], "value", "")).startswith("verify-")
                    and not any(k.arg == "passed" and getattr(k.value, "attr", None) == "passed" for k in node.keywords)
                )
                if built or read or solved or decided:
                    owners.append(owner)
    assert set(seen[reductions]) == builders, seen[reductions]
    assert seen[suites] == [], seen[suites]
