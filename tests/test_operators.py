import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import definetti
from definetti.operators import (
    HERMITICITY_ATOL,
    HERMITICITY_RTOL,
    PSD_MIN_EIG_TOL,
    TRACE_TOL,
    DensityMatrix,
    Dims,
    HermitianOperator,
    ResourceCapError,
    _occupation_table,
    _psd_spectrum,
    apply_channel,
    channel_on_factors,
    completely_depolarizing_channel,
    density,
    haar_state_vector,
    hermitian,
    identity_channel,
    identity_operator,
    induced_mixed_state,
    min_eigenvalue,
    partial_trace,
    partial_trace_vector,
    pauli_twirl_channel,
    permute_factors,
    pure_state_density,
    qc_dephasing_channel,
    random_hermitian,
    set_max_side,
    stream,
    sym_projector,
    symmetric_state_vector,
    tensor,
    tensor_power,
)
from definetti.reductions import constrained_moment
from reference import (
    PermutationSpec,
    b_side_twirl,
    haar_moment_operator,
    permutation_class_vector,
    permutation_twirl,
    permutation_unitary,
    sym_projector_average,
    sym_rank,
    symmetrized_strings,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_tensor_identity():
    out = tensor(identity_operator((2,)), identity_operator((2,)))
    assert_allclose(out.matrix, np.eye(4))
    assert out.dims.factors == (2, 2)


def test_tensor_basis_projectors():
    a = hermitian(np.diag([1.0, 0.0]), (2,))
    b = hermitian(np.diag([0.0, 1.0]), (2,))
    assert_allclose(tensor(a, b).matrix, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_bitflip_action():
    xx = tensor(hermitian(X, (2,)), hermitian(X, (2,)))
    v00 = np.zeros(4)
    v00[0] = 1.0
    out = xx.matrix @ v00
    assert_allclose(out, [0, 0, 0, 1])


def test_partial_trace_bell():
    bell = pure_state_density(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))
    red = partial_trace(bell.op, [0])
    assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product():
    rng = stream(1, "pt")
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    ab = tensor(hermitian(a, (2,)), hermitian(b, (3,)))
    red = partial_trace(ab, [0])
    assert_allclose(red.matrix, a * np.trace(b).real, atol=1e-12)
    # trace preserved, all-keep is a no-op
    assert abs(partial_trace(ab, [0, 1]).trace() - ab.trace()) < 1e-12


def test_permutation_unitary_action_and_identity():
    n = 3
    assert_allclose(permutation_unitary(PermutationSpec.identity(n), 2), np.eye(8))
    swap = PermutationSpec((1, 0))
    u = permutation_unitary(swap, 2)
    v01 = np.zeros(4)
    v01[0b01] = 1.0
    assert_allclose(u @ v01, [0, 0, 1, 0])  # |01> -> |10>


def test_permutation_composition_matches_matrix_product():
    rng = stream(2, "perm")
    for _ in range(10):
        a = PermutationSpec.random(3, rng)
        b = PermutationSpec.random(3, rng)
        ua = permutation_unitary(a, 2)
        ub = permutation_unitary(b, 2)
        uc = permutation_unitary(a.compose(b), 2)
        assert_allclose(ua @ ub, uc)


def test_sym_projector_small_cases():
    assert_allclose(sym_projector(1, 5).matrix, np.eye(5))
    p22 = sym_projector(2, 2)
    assert_allclose(p22.matrix, (np.eye(4) + SWAP) / 2, atol=1e-14)
    assert abs(p22.trace() - 3) < 1e-12
    p32 = sym_projector(3, 2)
    assert abs(p32.trace() - 4) < 1e-12
    assert np.linalg.matrix_rank(p32.matrix, tol=1e-10) == sym_rank(3, 2) == 4


@pytest.mark.parametrize(
    "n,d",
    [(n, d) for d in (2, 3, 4, 5) for n in range(1, 8) if d**n <= 1024] + [(8, 2), (9, 2), (10, 2)],
)
def test_sym_projector_constructions_agree(n, d):
    occ = sym_projector(n, d)
    avg = sym_projector_average(n, d)
    assert np.linalg.norm(occ.matrix - avg.matrix) <= 1e-13
    assert abs(occ.trace() - sym_rank(n, d)) < 1e-9


@given(n=st.integers(1, 6), d=st.integers(1, 5))
def test_occupation_table_against_sorted_strings(n, d):
    assume(d**n <= 1024)
    label, counts, sizes = _occupation_table(n, d)
    classes = list(itertools.combinations_with_replacement(range(d), n))
    assert len(counts) == len(sizes) == len(classes) == sym_rank(n, d)
    for c, combo in enumerate(classes):
        assert counts[c].tolist() == [combo.count(j) for j in range(d)]
        multinomial = math.factorial(n) // math.prod(math.factorial(k) for k in counts[c])
        assert sizes[c] == multinomial
    strings = itertools.product(range(d), repeat=n)
    assert label.tolist() == [classes.index(tuple(sorted(s))) for s in strings]
    # the projector is exactly the per-class block construction
    proj = np.zeros((d**n, d**n), dtype=complex)
    for c in range(len(classes)):
        idx = np.flatnonzero(label == c)
        proj[np.ix_(idx, idx)] = 1.0 / len(idx)
    assert np.array_equal(sym_projector(n, d).matrix, proj)


def test_haar_moment_operator_values():
    assert_allclose(haar_moment_operator(1, 2).matrix, np.eye(2) / 2)
    assert_allclose(haar_moment_operator(2, 2).matrix, (np.eye(4) + SWAP) / 6, atol=1e-14)
    m = haar_moment_operator(3, 3)
    assert abs(m.trace() - 1) < 1e-12
    assert min_eigenvalue(m) > -1e-14


def test_haar_moment_fixes_product_powers():
    p = sym_projector(3, 2).matrix
    psi = haar_state_vector(2, 11)
    v = np.kron(np.kron(psi, psi), psi)
    assert np.linalg.norm(p @ v - v) < 1e-12


def test_haar_moment_monte_carlo_purity():
    # Tr[(2nd moment)(rho x rho)] == (1 + Tr rho^2) / 6 for qubits
    rho = induced_mixed_state((2,), 5)
    target = (1 + np.trace(rho.matrix @ rho.matrix).real) / 6.0
    exact = np.trace(haar_moment_operator(2, 2).matrix @ np.kron(rho.matrix, rho.matrix)).real
    assert abs(exact - target) < 1e-12
    samples = 100_000
    rng = stream(7, "mc-purity")
    vals = np.empty(samples)
    psi = rng.standard_normal((samples, 2)) + 1j * rng.standard_normal((samples, 2))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    amps = np.einsum("ki,ij,kj->k", psi.conj(), rho.matrix, psi).real
    vals = amps**2  # <psi|rho|psi>^2 = Tr[(psi psi*)^{x2} rho x rho]
    err = vals.std(ddof=1) / math.sqrt(samples)
    assert abs(vals.mean() - target) <= 5 * err


def test_permutation_twirl_fixed_points_and_commutation():
    rng = stream(3, "twirl")
    x = hermitian(random_hermitian(8, rng), (2, 2, 2))
    tw = permutation_twirl(x, 3)
    assert np.linalg.norm(permutation_twirl(tw, 3).matrix - tw.matrix) < 1e-12
    for perm in itertools.permutations(range(3)):
        u = permutation_unitary(PermutationSpec(perm), 2)
        assert np.linalg.norm(u @ tw.matrix - tw.matrix @ u) <= 1e-10


def test_permutation_twirl_explicit_average():
    rng = stream(4, "twirl2")
    x = hermitian(random_hermitian(8, rng), (2, 2, 2))
    acc = np.zeros((8, 8), dtype=complex)
    for perm in itertools.permutations(range(3)):
        u = permutation_unitary(PermutationSpec(perm), 2)
        acc += u @ x.matrix @ u.conj().T
    assert_allclose(permutation_twirl(x, 3).matrix, acc / 6, atol=1e-12)


def test_permutation_twirl_simple_values():
    v01 = pure_state_density(np.array([0, 1, 0, 0.0]), (2, 2))
    tw = permutation_twirl(v01.op, 2)
    expect = np.zeros((4, 4))
    expect[1, 1] = expect[2, 2] = 0.5
    assert_allclose(tw.matrix, expect, atol=1e-14)
    rng = stream(5, "twirl3")
    m = random_hermitian(2, rng)
    power = tensor_power(hermitian(m, (2,)), 3)
    assert_allclose(permutation_twirl(power, 3).matrix, power.matrix, atol=1e-12)


def test_permutation_twirl_iterative_matches_explicit():
    # seven groups: 5040 permutations, reached through 21 transposes
    rng = stream(6, "twirl-it")
    x = hermitian(random_hermitian(2**7, rng), (2,) * 7)
    tw = permutation_twirl(x, 7)
    for i in range(6):
        perm = list(range(7))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        u = permutation_unitary(PermutationSpec(tuple(perm)), 2)
        assert np.linalg.norm(u @ tw.matrix - tw.matrix @ u) <= 1e-9


def test_b_side_twirl():
    rng = stream(7, "btw")
    m = hermitian(random_hermitian(8, rng), (2, 2, 2))
    assert b_side_twirl(m, 1) is m
    tw = b_side_twirl(m, 2)
    u = np.kron(np.eye(2), SWAP)
    assert np.linalg.norm(u @ tw.matrix - tw.matrix @ u) <= 1e-12
    # A factor untouched: twirl commutes with partial trace over B
    assert_allclose(
        partial_trace(tw, [0]).matrix, partial_trace(m, [0]).matrix, atol=1e-12
    )


def _moved_strings(perm, dim: int, n: int) -> np.ndarray:
    """Index of each length-n base-dim string after slot k takes letter perm[k]."""
    strings = list(itertools.product(range(dim), repeat=n))
    index = {s: i for i, s in enumerate(strings)}
    return np.array([index[tuple(s[p] for p in perm)] for s in strings])


def _conjugation_average(x: np.ndarray, a_dim: int, dim: int, n: int) -> np.ndarray:
    """Mean of (1_a (x) U_pi) x (1_a (x) U_pi)^dag over all pi, by relabelling indices."""
    acc = np.zeros_like(x)
    for perm in itertools.permutations(range(n)):
        moved = _moved_strings(perm, dim, n)
        rows = (np.arange(a_dim)[:, None] * dim**n + moved[None, :]).reshape(-1)
        conj = np.empty_like(x)
        conj[np.ix_(rows, rows)] = x
        acc += conj
    return acc / math.factorial(n)


@given(
    a_dim=st.integers(1, 2),
    dim=st.integers(1, 3),
    q=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_averages_match_explicit_permutation_sum(a_dim, dim, q, seed):
    assume(a_dim * dim**q <= 256)
    rng = stream(seed, "group-average")
    side = dim**q
    x = random_hermitian(a_dim * side, rng)
    b_dims = (a_dim,) + (dim,) * q if a_dim > 1 else (dim,) * q
    tw = b_side_twirl(hermitian(x, b_dims), q)
    assert np.abs(tw.matrix - _conjugation_average(x, a_dim, dim, q)).max() <= 1e-12
    y = x[:side, :side]
    tw = permutation_twirl(hermitian(y, (dim,) * q), q)
    assert np.abs(tw.matrix - _conjugation_average(y, 1, dim, q)).max() <= 1e-12
    proj = np.zeros((side, side))
    for perm in itertools.permutations(range(q)):
        proj[_moved_strings(perm, dim, q), np.arange(side)] += 1
    avg = sym_projector_average(q, dim).matrix
    assert np.abs(avg - proj / math.factorial(q)).max() <= 1e-12


def test_apply_channel_basics():
    rho = pure_state_density(np.array([1, 1]) / math.sqrt(2), (2,))
    assert_allclose(apply_channel(identity_channel((2,)), rho).matrix, rho.matrix)
    dephased = apply_channel(qc_dephasing_channel(2), rho)
    assert_allclose(dephased.matrix, np.eye(2) / 2, atol=1e-14)
    dep = completely_depolarizing_channel(3)
    r3 = induced_mixed_state((3,), 1)
    assert_allclose(apply_channel(dep, r3).matrix, np.eye(3) / 3, atol=1e-12)
    assert abs(apply_channel(dep, r3).op.trace() - 1) < 1e-12


def test_qc_dephasing_fixed_point_and_idempotence():
    ch = qc_dephasing_channel(3)
    diag = density(np.diag([0.5, 0.3, 0.2]), (3,))
    out = apply_channel(ch, diag)
    assert_allclose(out.matrix, diag.matrix, atol=1e-14)
    r = induced_mixed_state((3,), 2)
    once = apply_channel(ch, r)
    twice = apply_channel(ch, once)
    assert_allclose(once.matrix, twice.matrix, atol=1e-14)


def test_pauli_twirl_range():
    r = induced_mixed_state((2,), 3)
    assert_allclose(apply_channel(pauli_twirl_channel(), r).matrix, np.eye(2) / 2, atol=1e-12)


def test_channel_preserves_trace_and_psd():
    for i in range(100):
        r = induced_mixed_state((2,), 8, i)
        ch = qc_dephasing_channel(2) if i % 2 else pauli_twirl_channel()
        out = apply_channel(ch, r)
        assert abs(out.op.trace() - 1) < 1e-10
        assert min_eigenvalue(out.op) >= -1e-10


def test_random_state_determinism():
    assert_allclose(haar_state_vector(4, 7), haar_state_vector(4, 7))
    assert abs(np.linalg.norm(haar_state_vector(4, 7)) - 1) < 1e-12
    a = induced_mixed_state((2,), 9)
    assert isinstance(a, DensityMatrix)
    b = induced_mixed_state((2,), 9)
    assert_allclose(a.matrix, b.matrix)
    assert not np.allclose(haar_state_vector(4, 7), haar_state_vector(4, 8))


def test_symmetric_state_vector_invariance():
    theta = symmetric_state_vector(3, 2, 11)
    for perm in itertools.permutations(range(3)):
        u = permutation_unitary(PermutationSpec(perm), 2)
        assert np.linalg.norm(u @ theta - theta) <= 1e-10


def test_symmetric_state_vector_is_the_class_amplitude_draw():
    for n, d in ((1, 3), (3, 2), (2, 3), (4, 2), (2, 4)):
        theta = symmetric_state_vector(n, d, 5, "x", n)
        assert abs(np.linalg.norm(theta) - 1) < 1e-12
        arr = theta.reshape((d,) * n)
        assert all(np.array_equal(arr, np.swapaxes(arr, i, i + 1)) for i in range(n - 1))
        assert np.array_equal(theta, permutation_class_vector(stream(5, "symmetric", "x", n), n, d))


def test_symmetric_state_vector_class_weights_are_uniform():
    # Haar on Sym^n: each |<S_c|theta>|^2 has mean 1/binom(n+d-1, n)
    for n, d in ((3, 2), (2, 3)):
        basis = np.array([s / math.sqrt(s.sum()) for _, s in symmetrized_strings(n, d)])
        weights = np.array([abs(basis @ symmetric_state_vector(n, d, seed)) ** 2 for seed in range(2000)])
        assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        stderr = weights.std(axis=0, ddof=1) / math.sqrt(len(weights))
        assert (abs(weights.mean(axis=0) - 1 / math.comb(n + d - 1, n)) <= 5 * stderr).all()


def test_induced_mixed_mean_is_maximally_mixed():
    samples = 10_000
    # spot check the seeded constructor, then vectorize the same sampling law
    first = induced_mixed_state((2,), 123, 0).matrix
    assert abs(np.trace(first) - 1) < 1e-12
    rng = stream(123, "induced-mean")
    psi = rng.standard_normal((samples, 4)) + 1j * rng.standard_normal((samples, 4))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    blocks = psi.reshape(samples, 2, 2)
    mats = np.einsum("kae,kbe->kab", blocks, blocks.conj())
    mean = mats.mean(axis=0)
    var = (np.abs(mats) ** 2).mean(axis=0) - np.abs(mean) ** 2
    err = np.sqrt(np.clip(var, 1e-30, None) / samples)
    assert (np.abs(mean - np.eye(2) / 2) <= 5 * err + 1e-12).all()


def test_permute_factors_roundtrip():
    rng = stream(11, "perm-f")
    op = hermitian(random_hermitian(12, rng), (2, 3, 2))
    moved = permute_factors(op, [2, 0, 1])
    assert moved.dims.factors == (2, 2, 3)
    back = permute_factors(moved, [1, 2, 0])
    assert_allclose(back.matrix, op.matrix)


def test_resource_cap():
    set_max_side(4096)
    with pytest.raises(ResourceCapError):
        sym_projector(13, 2)
    set_max_side(64)
    try:
        with pytest.raises(ResourceCapError):
            tensor(identity_operator((16,)), identity_operator((16,)))
    finally:
        set_max_side(4096)


def test_invariant_violations_raise():
    with pytest.raises(ValueError):
        hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
    with pytest.raises(ValueError):
        density(np.diag([1.5, -0.5]), (2,))
    with pytest.raises(ValueError):
        density(np.diag([0.7, 0.7]), (2,))
    with pytest.raises(ValueError):
        density(np.diag([0.3, 0.3]), (2,))
    with pytest.raises(ValueError):
        PermutationSpec((0, 0, 1))
    with pytest.raises(ValueError):
        Dims((2, 0))
    with pytest.raises(IndexError):
        partial_trace(identity_operator((2, 2)), [5])


def test_partial_trace_vector_matches_outer_product():
    vec = haar_state_vector(12, 13)
    dims = Dims((2, 3, 2))
    full = hermitian(np.outer(vec, vec.conj()), dims)
    for keep in ([0], [1], [0, 2]):
        assert_allclose(
            partial_trace_vector(vec, dims, keep).matrix,
            partial_trace(full, keep).matrix,
            atol=1e-12,
        )


def _kron_channel_on_factors(ch, op, positions):
    """Reference: conjugate by ``1 (x) K (x) 1`` for every Kraus operator and position."""
    out = op.matrix
    for pos in sorted(positions):
        left = math.prod(op.dims.factors[:pos])
        right = math.prod(op.dims.factors[pos + 1 :])
        acc = np.zeros_like(out)
        for k in ch.kraus_ops:
            kk = np.kron(np.kron(np.eye(left), k), np.eye(right))
            acc += kk @ out @ kk.conj().T
        out = acc
    return out


def _single_factor_channels(d):
    chans = [identity_channel((d,)), qc_dephasing_channel(d), completely_depolarizing_channel(d)]
    return chans + [pauli_twirl_channel()] if d == 2 else chans


def _subsets(items):
    return itertools.chain.from_iterable(itertools.combinations(items, r) for r in range(len(items) + 1))


@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_on_factors_matches_kron_reference(dims, d, seed):
    dims = [d] + dims[1:]
    op = hermitian(random_hermitian(math.prod(dims), stream(seed, "channel-factors")), dims)
    slots = [i for i, f in enumerate(dims) if f == d]
    for ch in _single_factor_channels(d):
        for positions in _subsets(slots):
            out = channel_on_factors(ch, op, positions)
            assert out.dims == op.dims
            assert np.abs(out.matrix - _kron_channel_on_factors(ch, op, positions)).max() <= 1e-12


def _assert_hermitian(op):
    m = op.matrix
    assert np.linalg.norm(m - m.conj().T) <= HERMITICITY_ATOL + HERMITICITY_RTOL * np.linalg.norm(m)


def _assert_state(rho):
    assert float(np.linalg.eigvalsh(rho.matrix)[0]) >= -PSD_MIN_EIG_TOL
    assert abs(rho.op.trace() - 1.0) <= TRACE_TOL


@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_return_hermitian_operators(dims, seed):
    """The unchecked constructor trusts these kernels; the invariant is held here."""
    rng = stream(seed, "kernel-hermiticity")
    side = math.prod(dims)
    x = hermitian(random_hermitian(side, rng), dims)
    m = len(dims)
    for keep in _subsets(range(m)):
        if keep:
            _assert_hermitian(partial_trace(x, keep))
            _assert_hermitian(partial_trace_vector(haar_state_vector(side, seed, "ptv"), dims, keep))
    _assert_hermitian(permute_factors(x, [int(i) for i in rng.permutation(m)]))
    _assert_hermitian(tensor(x, x))
    d = dims[0]
    for ch in _single_factor_channels(d):
        _assert_hermitian(channel_on_factors(ch, x, [i for i, f in enumerate(dims) if f == d]))
        rho = induced_mixed_state((d,), seed, "apply")
        out = apply_channel(ch, rho)
        _assert_hermitian(out.op)
        _assert_state(out)
    _assert_state(induced_mixed_state(dims, seed, "induced"))


@given(n=st.integers(1, 3), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_twirls_and_moment_return_hermitian_operators(n, d, seed):
    rng = stream(seed, "twirl-hermiticity")
    y = hermitian(random_hermitian(d**n, rng), (d,) * n)
    _assert_hermitian(permutation_twirl(y, n))
    z = hermitian(random_hermitian(2 * d**n, rng), (2,) + (d,) * n)
    _assert_hermitian(b_side_twirl(z, n))
    _assert_hermitian(constrained_moment(symmetric_state_vector(n, d, seed), n, d))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_hermitian_rejects_non_finite_entries(bad):
    # nan > tol is false, so the norm test alone would let these through
    mat = np.eye(2, dtype=complex)
    mat[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        hermitian(mat, (2,))
    with pytest.raises(ValueError, match="non-finite"):
        density(mat, (2,))


def test_hermitian_copies_and_freezes():
    a = random_hermitian(4, stream(12, "copy"))
    op = hermitian(a, (2, 2))
    kept = op.matrix.copy()
    a[0, 1] += 1.0
    assert_allclose(op.matrix, kept)
    assert not op.matrix.flags.writeable
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 0.0


def test_constructors_neither_copy_nor_check(monkeypatch):
    a = np.diag([1.5, -0.5]).astype(complex)
    for name in ("eigvalsh", "eigh", "norm"):
        monkeypatch.setattr(np.linalg, name, lambda *args, **kwargs: pytest.fail("norm or eigensolver in a constructor"))
    op = HermitianOperator(a, (2,))
    assert np.shares_memory(op.matrix, a) and a.flags.writeable and not op.matrix.flags.writeable
    assert DensityMatrix(op).matrix is op.matrix
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((2, 3)), (2,))
    with pytest.raises(ValueError):
        DensityMatrix(HermitianOperator(np.diag([0.7, 0.7]), (2,)))


# -- property tests: permutations, partial traces, twirls ---------------------


@st.composite
def _two_permutations(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    a = draw(st.permutations(range(n)))
    b = draw(st.permutations(range(n)))
    return PermutationSpec(tuple(a)), PermutationSpec(tuple(b))


@given(perms=_two_permutations(), d=st.integers(1, 3))
def test_permutation_spec_algebra_matches_unitaries(perms, d):
    a, b = perms
    assume(d ** len(a) <= 81)
    ua, ub = permutation_unitary(a, d), permutation_unitary(b, d)
    # 0/1 matrices: the products are exact
    assert np.array_equal(permutation_unitary(a.compose(b), d), ua @ ub)
    assert np.array_equal(permutation_unitary(a.inverse(), d), ua.conj().T)
    assert a.compose(a.inverse()) == PermutationSpec.identity(len(a))
    assert a.inverse().inverse() == a


@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_partial_trace_commutes_with_permute_factors(dims, data, seed):
    assume(math.prod(dims) <= 81)
    m = len(dims)
    x = hermitian(random_hermitian(math.prod(dims), stream(seed, "pt-perm")), dims)
    order = data.draw(st.permutations(range(m)))
    keep = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    moved = partial_trace(permute_factors(x, order), keep)
    # the same factors kept before the move, then put in the moved order
    kept_old = sorted(order[k] for k in keep)
    ref = permute_factors(partial_trace(x, kept_old), [kept_old.index(order[k]) for k in keep])
    assert moved.dims == ref.dims
    assert np.abs(moved.matrix - ref.matrix).max() <= 1e-12


def _group_order(perm, g):
    """Factor order moving whole groups of ``g`` factors by ``perm``."""
    return [perm[k] * g + j for k in range(len(perm)) for j in range(g)]


@given(
    group=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    n=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_permutation_twirl_idempotent_and_permutation_invariant(group, n, data, seed):
    assume(math.prod(group) ** n <= 256)
    dims = tuple(group) * n
    x = hermitian(random_hermitian(math.prod(dims), stream(seed, "twirl-prop")), dims)
    tw = permutation_twirl(x, n)
    assert np.abs(permutation_twirl(tw, n).matrix - tw.matrix).max() <= 1e-12
    order = _group_order(data.draw(st.permutations(range(n))), len(group))
    moved = permute_factors(x, order)
    assert np.abs(permutation_twirl(moved, n).matrix - tw.matrix).max() <= 1e-12
    assert np.abs(permute_factors(tw, order).matrix - tw.matrix).max() <= 1e-12


@given(
    a_dim=st.integers(1, 3),
    d=st.integers(1, 3),
    q=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_b_side_twirl_idempotent_and_permutation_invariant(a_dim, d, q, data, seed):
    assume(a_dim * d**q <= 256)
    dims = (a_dim,) + (d,) * q
    x = hermitian(random_hermitian(math.prod(dims), stream(seed, "b-twirl-prop")), dims)
    tw = b_side_twirl(x, q)
    assert np.abs(b_side_twirl(tw, q).matrix - tw.matrix).max() <= 1e-12
    order = [0] + [1 + i for i in data.draw(st.permutations(range(q)))]
    moved = permute_factors(x, order)
    assert np.abs(b_side_twirl(moved, q).matrix - tw.matrix).max() <= 1e-12
    assert np.abs(permute_factors(tw, order).matrix - tw.matrix).max() <= 1e-12


@given(
    d=st.integers(1, 6),
    stack=st.sampled_from([None, 1, 3]),
    planted=st.sampled_from([0.0, -5e-11, -2e-10]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_psd_spectrum_on_planted_spectra(d, stack, planted, seed, data):
    # U diag(w) U^dagger with w from [0, 1] and one planted entry in the last matrix
    k = stack or 1
    w = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d), min_size=k, max_size=k)))
    w[-1, data.draw(st.integers(0, d - 1))] = planted
    rng = stream(seed, "planted-spectrum")
    u = np.linalg.qr(rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d)))[0]
    mats = (u * w[:, None, :]) @ u.conj().transpose(0, 2, 1)
    mats = (mats + mats.conj().transpose(0, 2, 1)) / 2.0
    clipped = (u * np.maximum(w, 0.0)[:, None, :]) @ u.conj().transpose(0, 2, 1)
    if stack is None:
        mats, w, clipped = mats[0], w[0], clipped[0]
    if planted < -PSD_MIN_EIG_TOL:
        for vectors in (False, True):
            with pytest.raises(ValueError, match="not PSD: minimum eigenvalue"):
                _psd_spectrum(mats, vectors)
        return
    values = _psd_spectrum(mats)
    assert values.shape == w.shape and (values >= 0.0).all()
    assert np.abs(values - np.sort(np.maximum(w, 0.0), axis=-1)).max() <= 1e-12
    if planted < 0.0:
        assert values.reshape(-1, d)[-1, 0] == 0.0
    values, vecs = _psd_spectrum(mats, vectors=True)
    rebuilt = (vecs * values[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    assert np.abs(rebuilt - clipped).max() <= 1e-12


def test_one_psd_rule_in_the_package():
    # PSD_MIN_EIG_TOL is read only in _psd_spectrum and _require_contraction,
    # measures calls no eigensolver of its own, and no other clip constant exists
    readers, solvers = set(), set()
    for path in Path(definetti.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id == "PSD_MIN_EIG_TOL" and isinstance(node.ctx, ast.Load):
                    readers.add(owner)
                if path.name == "measures.py" and isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh"):
                    solvers.add(owner)
                assert not (isinstance(node, ast.Name) and node.id in ("EIG_CLIP_TOL", "CONTRACTION_TOL")), path.name
    assert readers == {"_psd_spectrum", "_require_contraction"}, readers
    assert solvers == set(), solvers
