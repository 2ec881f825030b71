import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from definetti.measures import (
    Povm,
    _fidelity_from_root,
    _root_fidelities,
    _sqrtm_psd,
    classical_fidelity,
    classical_trace_distance,
    conditional_mutual_information,
    entropy,
    fidelity,
    measured_fidelity,
    measured_trace_distance,
    mutual_information,
    outcome_distribution,
    purify,
    relative_entropy,
    trace_distance,
)
from definetti.operators import (
    apply_channel,
    density,
    hermitian,
    induced_mixed_state,
    partial_trace,
    partial_trace_vector,
    pure_state_density,
    qc_dephasing_channel,
    tensor,
)

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


def test_trace_distance():
    assert trace_distance(Z0, Z0) < 1e-14
    assert abs(trace_distance(Z0, Z1) - 1) < 1e-14


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


def test_purify():
    v = purify(Z0)
    assert_allclose(np.outer(v, v.conj())[:4, :4][0, 0], 1.0)
    v = purify(density(np.eye(2) / 2, (2,)))
    red = partial_trace_vector(v, (2, 2), [0])
    assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
    # maximally entangled output for the maximally mixed input
    sv = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
    assert_allclose(sv, [1 / math.sqrt(2)] * 2, atol=1e-12)
    for i in range(10):
        r = induced_mixed_state((2, 2), 10, i)
        v = purify(r)
        red = partial_trace_vector(v, (4, 4), [0])
        assert np.linalg.norm(red.matrix - r.matrix) <= 1e-10


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


def test_root_fidelities_match_one_at_a_time_and_reject_a_non_psd_last_row():
    rho, *sigmas = (induced_mixed_state((3,), seed).matrix for seed in range(4))
    root = _sqrtm_psd(rho)
    inner = np.stack([root @ s @ root for s in sigmas])
    inner = (inner + inner.conj().transpose(0, 2, 1)) / 2.0
    values = _root_fidelities(inner)
    for value, s in zip(values, sigmas):
        assert abs(value - _fidelity_from_root(root, s)) <= 1e-12
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
    assert measured_trace_distance(Z0, PLUS, [triv]) < 1e-12
    assert abs(measured_fidelity(Z0, PLUS, [triv]) - 1) < 1e-12


def test_measured_fidelity_dominates_fidelity():
    comp = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    for i in range(100):
        r = induced_mixed_state((2,), 11, i, "r")
        s = induced_mixed_state((2,), 11, i, "s")
        assert measured_fidelity(r, s, [comp]) >= fidelity(r, s) - 1e-9
        assert measured_trace_distance(r, s, [comp]) <= trace_distance(r, s) + 1e-9


def test_measured_matches_bhattacharyya_on_diagonals():
    comp = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    da = density(np.diag([0.3, 0.7]), (2,))
    db = density(np.diag([0.6, 0.4]), (2,))
    expect = math.sqrt(0.3 * 0.6) + math.sqrt(0.7 * 0.4)
    assert abs(measured_fidelity(da, db, [comp]) - expect) < 1e-12
    assert abs(classical_fidelity(outcome_distribution(comp, da), outcome_distribution(comp, db)) - expect) < 1e-12
    assert abs(classical_trace_distance([0.3, 0.7], [0.6, 0.4]) - 0.3) < 1e-12


def test_measured_family_sup_inf():
    comp = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    hado = Povm((PLUS.matrix, np.eye(2) - PLUS.matrix))
    fam = [comp, hado]
    assert abs(measured_trace_distance(Z0, Z1, fam) - 1) < 1e-12
    # the Hadamard basis cannot distinguish |0> from |1>
    assert measured_trace_distance(Z0, Z1, [hado]) < 1e-12
    with pytest.raises(ValueError):
        measured_fidelity(Z0, Z1, [])
