import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from definetti.measures import (
    Povm,
    _root_fidelities,
    _sqrtm_psd,
    classical_fidelity,
    conditional_mutual_information,
    entropy,
    fidelity,
    mutual_information,
    outcome_distribution,
    relative_entropy,
)
from definetti.operators import (
    apply_channel,
    density,
    haar_state_vector,
    hermitian,
    induced_mixed_state,
    partial_trace,
    pure_state_density,
    qc_dephasing_channel,
    tensor,
)
from definetti.separability import pauli_tomography_povm, product_povm
from reference import fidelity_from_root, outer_product_relative_entropy, trace_distance

Z0 = pure_state_density([1, 0], (2,))
Z1 = pure_state_density([0, 1], (2,))
PLUS = pure_state_density(np.array([1, 1]) / math.sqrt(2), (2,))
BELL = pure_state_density(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))


def test_fidelity_basics():
    r = induced_mixed_state((3,), 0)
    assert abs(fidelity(r, r) - 1) < 1e-12
    assert fidelity(Z0, Z1) < 1e-12
    assert abs(fidelity(Z0, PLUS) - 1 / math.sqrt(2)) < 1e-12
    s = induced_mixed_state((3,), 1)
    assert abs(fidelity(r, s) - fidelity(s, r)) < 1e-10


def test_fidelity_subnormalized():
    half = np.diag([0.25, 0.25])
    # F(M, M) = Tr M for positive operators
    assert abs(fidelity(half, half) - 0.5) < 1e-12


def test_fuchs_van_de_graaf():
    for i in range(100):
        r = induced_mixed_state((3,), 2, i, "r")
        s = induced_mixed_state((3,), 2, i, "s")
        f = fidelity(r, s)
        d = trace_distance(r, s)
        assert 1 - f <= d + 1e-9
        assert d <= math.sqrt(max(0.0, 1 - f * f)) + 1e-9


def test_entropy_values():
    assert abs(entropy(density(np.eye(2) / 2, (2,))) - 1) < 1e-12
    assert entropy(Z0) < 1e-12
    assert abs(entropy(density(np.eye(8) / 8, (2, 2, 2))) - 3) < 1e-12


def test_mutual_information_cases():
    prod = tensor(induced_mixed_state((2,), 3).op, induced_mixed_state((2,), 4).op)
    assert abs(mutual_information(prod, [0], [1])) < 1e-10
    assert abs(mutual_information(BELL, [0], [1]) - 2) < 1e-10


def test_cmi_chain_rule():
    for i in range(10):
        rho = induced_mixed_state((2, 2, 2), 5, i)
        lhs = mutual_information(rho, [0], [1, 2])
        rhs = mutual_information(rho, [0], [1]) + conditional_mutual_information(
            rho, [0], [2], [1]
        )
        assert abs(lhs - rhs) < 1e-9


def test_relative_entropy_properties():
    for i in range(20):
        r = induced_mixed_state((2,), 6, i, "r")
        s = induced_mixed_state((2,), 6, i, "s")
        assert relative_entropy(r, s) >= -1e-10
    assert relative_entropy(Z0, Z1) == math.inf
    assert abs(relative_entropy(Z0, Z0)) < 1e-10


def _low_rank(rank: int, seed: int, label: str) -> np.ndarray:
    """A rank-``rank`` state on C^4, supported on the first ``rank`` columns
    of a random unitary drawn from ``seed``."""
    g = np.stack([haar_state_vector(4, seed, "low-rank", j) for j in range(4)], axis=1)
    u = np.linalg.qr(g)[0][:, :rank]
    return u @ induced_mixed_state((rank,), seed, label).matrix @ u.conj().T


def test_relative_entropy_matches_the_outer_product_sum():
    pairs = [(Z0.matrix, Z1.matrix), (Z0.matrix, PLUS.matrix), (BELL.matrix, np.eye(4) / 4)]
    for i in range(20):
        dims = (2,) if i % 2 else (2, 2)
        pairs.append((induced_mixed_state(dims, 12, i, "r").matrix, induced_mixed_state(dims, 12, i, "s").matrix))
    for i in range(5):
        # rho inside sigma's rank-2 support (finite), then with weight off it (inf)
        pairs.append((_low_rank(2, i, "r"), _low_rank(2, i, "s")))
        pairs.append((induced_mixed_state((2, 2), 12, i, "full").matrix, _low_rank(2, i, "s")))
    finite = 0
    for r, s in pairs:
        ours, ref = relative_entropy(r, s), outer_product_relative_entropy(r, s)
        if math.isinf(ref):
            assert ours == math.inf
        else:
            finite += 1
            assert abs(ours - ref) <= 1e-13
    assert finite == len(pairs) - 7


def test_relative_entropy_product_vs_marginals():
    # D(tau || rho_U x rho_V) >= D(tau || tau_U x tau_V) = I(U:V)
    for i in range(10):
        tau = induced_mixed_state((2, 2), 7, i)
        ta = partial_trace(tau.op, [0])
        tb = partial_trace(tau.op, [1])
        ra = induced_mixed_state((2,), 7, i, "ra")
        rb = induced_mixed_state((2,), 7, i, "rb")
        own = relative_entropy(tau, hermitian(np.kron(ta.matrix, tb.matrix), (2, 2)))
        other = relative_entropy(tau, hermitian(np.kron(ra.matrix, rb.matrix), (2, 2)))
        mi = mutual_information(tau, [0], [1])
        assert abs(own - mi) < 1e-9
        assert other >= own - 1e-9


def test_fidelity_multiplicativity():
    for i in range(20):
        r1 = induced_mixed_state((2,), 8, i, "r1")
        s1 = induced_mixed_state((2,), 8, i, "s1")
        r2 = induced_mixed_state((2,), 8, i, "r2")
        s2 = induced_mixed_state((2,), 8, i, "s2")
        lhs = fidelity(tensor(r1.op, r2.op), tensor(s1.op, s2.op))
        assert abs(lhs - fidelity(r1, s1) * fidelity(r2, s2)) < 1e-9


def test_fidelity_monotone_under_channels():
    ch = qc_dephasing_channel(2)
    for i in range(20):
        r = induced_mixed_state((2,), 9, i, "r")
        s = induced_mixed_state((2,), 9, i, "s")
        assert fidelity(apply_channel(ch, r), apply_channel(ch, s)) >= fidelity(r, s) - 1e-9


def test_povm_validation():
    with pytest.raises(ValueError):
        Povm((np.diag([1.0, 0.0]),))
    with pytest.raises(ValueError):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))
    p = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=("a", "b"))
    assert p.side == 2


def test_povm_rejects_a_non_psd_last_element():
    # the elements sum to the identity and all but the last are PSD, so only
    # a check that reaches the last element rejects it
    elements = (np.diag([0.5, 0.5]), np.diag([0.25, 0.25]), np.diag([0.35, 0.25]), np.diag([-0.1, 0.0]))
    assert np.allclose(sum(elements), np.eye(2))
    with pytest.raises(ValueError, match="not PSD"):
        Povm(elements)
    Povm(elements[:2] + (np.diag([0.25, 0.25]),))


def test_povm_rejects_non_hermitian_elements():
    # PSD after symmetrization and summing to the identity, but Tr(E rho) would be complex
    with pytest.raises(ValueError, match="not Hermitian"):
        Povm(([[1, 0.1], [-0.1, 0]], [[0, -0.1], [0.1, 1]]))
    with pytest.raises(ValueError, match="non-finite"):
        Povm((np.diag([1.0, np.nan]), np.diag([0.0, 1.0])))
    pauli = pauli_tomography_povm()
    assert product_povm(pauli, pauli).side == 4


def test_root_fidelities_match_one_at_a_time_and_reject_a_non_psd_last_row():
    rho, *sigmas = (induced_mixed_state((3,), seed).matrix for seed in range(4))
    root = _sqrtm_psd(rho)
    inner = np.stack([root @ s @ root for s in sigmas])
    inner = (inner + inner.conj().transpose(0, 2, 1)) / 2.0
    values = _root_fidelities(inner)
    for value, s in zip(values, sigmas):
        assert abs(value - fidelity_from_root(root, s)) <= 1e-12
    inner[-1] -= 0.1 * np.eye(3) + inner[-1]
    with pytest.raises(ValueError, match="not PSD"):
        _root_fidelities(inner)


def test_classical_fidelity_over_a_stack():
    p = np.array([0.5, 0.25, 0.25, 0.0])
    qs = np.array([[0.25, 0.25, 0.25, 0.25], [0.0, 0.5, 0.5, 0.0]])
    values = classical_fidelity(p, qs)
    assert values.shape == (2,)
    for value, q in zip(values, qs):
        assert value == classical_fidelity(p, q)
    assert isinstance(classical_fidelity(p, qs[0]), float)


def test_measured_distances_trivial_povm():
    triv = Povm((np.eye(2),))
    assert_allclose(outcome_distribution(triv, Z0), [1.0], atol=1e-12)
    assert abs(classical_fidelity(outcome_distribution(triv, Z0), outcome_distribution(triv, PLUS)) - 1) < 1e-12


def test_measured_fidelity_dominates_fidelity():
    comp = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    for i in range(100):
        r = induced_mixed_state((2,), 11, i, "r")
        s = induced_mixed_state((2,), 11, i, "s")
        measured = classical_fidelity(outcome_distribution(comp, r), outcome_distribution(comp, s))
        assert measured >= fidelity(r, s) - 1e-9


def test_measured_matches_bhattacharyya_on_diagonals():
    comp = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    da = density(np.diag([0.3, 0.7]), (2,))
    db = density(np.diag([0.6, 0.4]), (2,))
    expect = math.sqrt(0.3 * 0.6) + math.sqrt(0.7 * 0.4)
    assert abs(classical_fidelity(outcome_distribution(comp, da), outcome_distribution(comp, db)) - expect) < 1e-12


def test_measured_family_sup_inf():
    comp = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    hado = Povm((PLUS.matrix, np.eye(2) - PLUS.matrix))
    assert classical_fidelity(outcome_distribution(comp, Z0), outcome_distribution(comp, Z1)) < 1e-12
    # the Hadamard basis cannot distinguish |0> from |1>
    assert_allclose(outcome_distribution(hado, Z0), outcome_distribution(hado, Z1), atol=1e-12)
