import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from definetti.operators import (
    density,
    hermitian,
    identity_operator,
    induced_mixed_state,
    min_eigenvalue,
    permutation_twirl,
    pure_state_density,
    random_contraction,
    stream,
    tensor_power,
)
from definetti.repetition import (
    PiecewiseTable,
    binomial_tail,
    bound_hsep_power,
    bound_qext_power,
    bound_sep_dim,
    bound_threshold,
    bound_threshold_dim,
    cmi_chain_check,
    framework_decay_from_fidelity,
    framework_fidelity_from_decay,
    hoeffding_tail,
    hull_threshold_tails,
    measurement_on_pairs,
    post_measurement_update,
    projective_power_family,
    recursive_conditioning_demo,
    sample_admissible_sequence,
    scalar_recursion_bound,
    scalar_recursion_corollary,
    separable_family,
    threshold_operator,
)
from definetti.separability import BipartiteCut

SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
SINGLET = hermitian(np.outer(SINGLET_VEC, SINGLET_VEC), (2, 2))
CUT = BipartiteCut((0,), (1,))


# -- threshold operators ------------------------------------------------------


def test_threshold_extremes():
    top = threshold_operator(SINGLET, 2, 2, "exact_povm")
    assert_allclose(top.op.matrix, tensor_power(SINGLET, 2).matrix, atol=1e-13)
    bottom = threshold_operator(SINGLET, 2, 0, "exact_povm")
    assert_allclose(bottom.op.matrix, np.eye(16), atol=1e-13)


def test_threshold_printed_overcounts():
    eye = identity_operator((2, 2))
    printed = threshold_operator(eye, 2, 1, "printed_sum")
    exact = threshold_operator(eye, 2, 1, "exact_povm")
    assert_allclose(printed.op.matrix, 3 * np.eye(16), atol=1e-13)
    assert_allclose(exact.op.matrix, np.eye(16), atol=1e-13)


def test_threshold_povm_element_and_invariance():
    rng = stream(1, "thr")
    for i in range(5):
        m = hermitian(random_contraction(4, rng), (2, 2))
        for (n, t) in [(2, 1), (3, 2)]:
            exact = threshold_operator(m, n, t, "exact_povm").op
            w = np.linalg.eigvalsh(exact.matrix)
            assert w[0] >= -1e-10 and w[-1] <= 1 + 1e-10
            assert np.linalg.norm(permutation_twirl(exact, n).matrix - exact.matrix) < 1e-10
            printed = threshold_operator(m, n, t, "printed_sum").op
            assert min_eigenvalue(printed.matrix - exact.matrix) >= -1e-10


# -- printed bounds -----------------------------------------------------------


def test_bound_values():
    assert abs(bound_hsep_power(0.5, 1.0, 10) - 0.95**10) < 1e-15
    assert abs(bound_threshold(0.5, 1.0, 10) - math.exp(-0.5)) < 1e-15
    assert bound_hsep_power(0.5, 1.0, 0) == 1.0
    assert bound_threshold(0.5, 1.0, 0) == 1.0
    assert bound_qext_power(1.0, 3, 7) == 1.0
    expect = 1 - 0.5**4 / (512 * math.log(2) * 16)
    assert abs(bound_sep_dim(0.5, 2, 1) - expect) < 1e-15
    expect = 1 - 0.3**5 / (2048 * math.log(2) * 16 * (1.0 - 0.3))
    assert abs(bound_threshold_dim(0.3, 0.5, 2, 1) - expect) < 1e-15


def test_bounds_monotone_in_n():
    for n in range(1, 12):
        assert bound_hsep_power(0.5, 1.0, n + 1) < bound_hsep_power(0.5, 1.0, n)
        assert bound_qext_power(0.6, 2, n + 1) < bound_qext_power(0.6, 2, n)


def test_bound_range_validation():
    with pytest.raises(ValueError):
        bound_hsep_power(1.5, 1.0, 2)
    with pytest.raises(ValueError):
        bound_threshold(0.5, 0.0, 2)
    with pytest.raises(ValueError):
        bound_threshold_dim(0.6, 0.5, 2, 2)


# -- post-measurement lemma ---------------------------------------------------


def test_post_measurement_identity():
    rho = induced_mixed_state((2, 2), 1)
    res = post_measurement_update(rho, identity_operator((2,)))
    assert abs(res.p - 1) < 1e-12
    assert res.relent < 1e-9
    assert res.passed


def test_post_measurement_product_state():
    a = induced_mixed_state((2,), 2, "a")
    b = induced_mixed_state((2,), 2, "b")
    rho = density(np.kron(a.matrix, b.matrix), (2, 2))
    t = hermitian(random_contraction(2, stream(2, "t")), (2,))
    res = post_measurement_update(rho, t)
    assert res.relent < 1e-9  # conditioning a product leaves V untouched
    assert res.passed


def test_post_measurement_random_instances():
    for i in range(100):
        rho = induced_mixed_state((2, 2), 3, i)
        t = hermitian(random_contraction(2, stream(4, i)), (2,))
        res = post_measurement_update(rho, t)
        assert res.passed, i
        assert res.kraus_defect < 1e-9


def test_post_measurement_vanishing_probability():
    rho = pure_state_density(np.kron([1, 0], [1, 0]), (2, 2))
    t = hermitian(np.diag([0.0, 1.0]), (2,))
    with pytest.raises(ValueError):
        post_measurement_update(rho, t)


def test_outside_measurements_rejected():
    rho = induced_mixed_state((2, 2), 4, "reject")
    with pytest.raises(ValueError, match="0 <= M <= 1"):
        post_measurement_update(rho, hermitian(2.0 * np.eye(2), (2,)))
    alpha = induced_mixed_state((2, 2), 4, "a")
    beta = induced_mixed_state((2, 2), 4, "b")
    with pytest.raises(ValueError, match="0 <= M <= 1"):
        cmi_chain_check(hermitian(2.0 * np.eye(4), (2, 2)), alpha, beta, 1)
    with pytest.raises(ValueError, match="not Hermitian"):
        separable_family((2, 2), CUT).support(np.triu(np.ones((4, 4))))


# -- CMI chain ----------------------------------------------------------------


def test_cmi_chain_trivial_measurement():
    alpha = induced_mixed_state((2, 2), 5, "a")
    beta = induced_mixed_state((2, 2), 5, "b")
    rep = cmi_chain_check(identity_operator((2, 2)), alpha, beta, 1)
    assert rep.passed
    assert abs(rep.p_k - 1) < 1e-12
    assert rep.chain_sum < 1e-9 and rep.budget < 1e-9


def test_cmi_chain_singlet_two_copies():
    alpha = induced_mixed_state((2, 2), 6, "a")
    beta = induced_mixed_state((2, 2), 6, "b")
    rep = cmi_chain_check(SINGLET, alpha, beta, 1)
    assert rep.passed
    assert rep.chain_sum <= rep.joint_mi + 1e-9 <= rep.relent + 2e-9 <= rep.budget + 3e-9


def test_cmi_chain_random_instances():
    for i in range(20):
        m = hermitian(random_contraction(4, stream(7, i)), (2, 2))
        alpha = induced_mixed_state((2, 2, 2), 8, i, "a")
        beta = induced_mixed_state((2, 2, 2), 8, i, "b")
        for k in (1, 2):
            rep = cmi_chain_check(m, alpha, beta, k)
            assert rep.passed, (i, k)


def test_measurement_on_pairs_layout():
    # M on pair 0 of two copies equals M (x) 1 after regrouping to A^2 B^2
    m = hermitian(random_contraction(4, stream(9, "m")), (2, 2))
    emb = measurement_on_pairs(m, 2, [0])
    m4 = m.matrix.reshape(2, 2, 2, 2)
    expect = np.einsum(
        "aibj,AB,IJ->aAiIbBjJ", m4, np.eye(2), np.eye(2)
    ).reshape(16, 16)
    assert_allclose(emb.matrix, expect, atol=1e-13)


# -- scalar recursion ---------------------------------------------------------


def test_recursion_saturating_equality():
    # drive the recursion as equality from p_1 = nu + gamma; the hypothesis
    # residuals then vanish step by step and the lemma bound holds
    nu, c, gamma, n = 0.4, 2.0, 0.25, 8
    p = [nu + gamma]
    for k in range(1, n):
        p.append(p[-1] * min(1.0, math.sqrt(c / (n - k) * math.log2(1 / p[-1])) + nu))
    verdict = scalar_recursion_bound(p, nu, c, gamma)
    assert verdict.applicable and verdict.holds
    saturated = [r for r in verdict.hypothesis_residuals if abs(r) <= 1e-12]
    assert len(saturated) >= 1  # equality wherever the bracket stayed below one
    for r in verdict.hypothesis_residuals:
        assert r >= -1e-12


def test_recursion_constant_ratio_small_case():
    # n = 2 with c chosen to make the single hypothesis step tight
    nu, gamma, n = 0.3, 0.25, 2
    base = nu + gamma
    c = gamma**2 * (n - 1) / math.log2(1 / base)
    p = [base, base**2]
    verdict = scalar_recursion_bound(p, nu, c, gamma, tol=1e-12)
    assert verdict.applicable and verdict.holds
    assert abs(verdict.hypothesis_residuals[0]) < 1e-12


def test_recursion_random_admissible():
    rng = stream(10, "rec")
    for trial in range(300):
        n = int(rng.integers(2, 25))
        nu = float(rng.uniform(0.05, 0.9))
        c = float(rng.uniform(1.0, 10.0))
        gamma = float(rng.uniform(0.1, 0.95)) * (1 - nu)
        seq = sample_admissible_sequence(n, nu, c, gamma, rng)
        v = scalar_recursion_bound(seq, nu, c, gamma)
        assert v.applicable and v.holds, (trial, n, nu, c, gamma)
        vc = scalar_recursion_corollary(seq, nu, c)
        if vc.applicable:
            assert vc.holds, (trial, n, nu, c)


def test_recursion_hypothesis_violation_is_not_applicable():
    bad = [0.5, 0.499, 0.6]
    v = scalar_recursion_bound(bad, 0.3, 2.0, 0.3)
    assert not v.applicable and not v.holds
    # decreasing but breaking the recursion inequality
    bad2 = [0.5, 0.49999999]
    v2 = scalar_recursion_bound(bad2, 0.1, 1e-6, 0.5)
    assert not v2.applicable


# -- conditioning demo --------------------------------------------------------


def test_conditioning_aligned_product():
    p00 = np.zeros((4, 4))
    p00[0, 0] = 1.0
    m = hermitian(p00, (2, 2))
    ket = np.kron([1, 0], [1, 0])
    alpha = pure_state_density(ket, (2, 2))
    beta = pure_state_density(ket, (2, 2))
    traj = recursive_conditioning_demo(m, alpha, beta, q=2, selection="greedy_min_mi", seed=0)
    assert all(abs(s.p - 1.0) < 1e-12 for s in traj.steps)
    assert all(abs(s.surrogate) < 1e-10 for s in traj.steps)
    assert traj.per_step_ok and traj.passed_final


def test_conditioning_singlet_iid_squares():
    a1 = induced_mixed_state((2,), 11, "a")
    b1 = induced_mixed_state((2,), 11, "b")
    alpha = density(np.kron(a1.matrix, a1.matrix), (2, 2))
    beta = density(np.kron(b1.matrix, b1.matrix), (2, 2))
    traj = recursive_conditioning_demo(SINGLET, alpha, beta, q=2, selection="greedy_min_mi", seed=1)
    ps = [s.p for s in traj.steps]
    assert abs(ps[1] - ps[0] ** 2) < 1e-10  # iid product: the ratios repeat
    assert traj.ratio_defect < 1e-10
    assert traj.passed_final and traj.per_step_ok


def test_conditioning_random_instances():
    for i in range(12):
        n = 2 if i % 2 == 0 else 3
        alpha = induced_mixed_state((2,) * n, 12, i, "a")
        beta = induced_mixed_state((2,) * n, 12, i, "b")
        m = hermitian(random_contraction(4, stream(13, i)), (2, 2))
        for sel in ("greedy_min_mi", "uniform_random"):
            traj = recursive_conditioning_demo(m, alpha, beta, q=2, selection=sel, seed=i)
            assert traj.ratio_defect <= 1e-10
            assert traj.passed_final
            if sel == "greedy_min_mi":
                assert traj.per_step_ok
            # per-step pass probabilities stay under the decay curve
            for s in traj.steps:
                assert s.p <= s.bound_k + 1e-8
            # conditional-information budget per step
            for s in traj.steps:
                assert s.cmi_chain_value <= s.chain_budget + 1e-9


def test_conditioning_csv_rows():
    alpha = induced_mixed_state((2, 2), 14, "a")
    beta = induced_mixed_state((2, 2), 14, "b")
    traj = recursive_conditioning_demo(SINGLET, alpha, beta, q=2, seed=2)
    rows = list(traj.csv_rows())
    assert rows[0] == ("k", "i_k", "p_k", "surrogate", "cmi_chain", "bound_k")
    assert len(rows) == len(traj.steps) + 1


def test_two_copy_certified_uppers_shrink():
    # certified extendibility upper bounds of the two-copy support value stay
    # below the single-copy certificate on tested instances
    from definetti.separability import hqext, hsep_seesaw

    rng = stream(15, "chain2")
    ops = [SINGLET] + [hermitian(random_contraction(4, rng), (2, 2)) for _ in range(5)]
    for i, m in enumerate(ops):
        upper1 = min(hqext(m, CUT, q).value for q in (1, 2, 3))
        m2 = tensor_power(m, 2)
        cut2 = CUT.power(2, 2)
        upper2 = min(hqext(m2, cut2, q).value for q in (1, 2))
        see1 = hsep_seesaw(m, CUT, restarts=16, seed=i).value
        see2 = hsep_seesaw(m2, cut2, restarts=16, seed=i).value
        assert see2 >= see1**2 - 1e-8
        assert upper2 <= upper1 + 1e-8


# -- generic framework --------------------------------------------------------


def test_decay_root_closed_form():
    fam = projective_power_family([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    table = PiecewiseTable.from_function(lambda e: e * e / 4.0, points=2**17 + 1)
    rep = framework_decay_from_fidelity(fam, None, r=1.0, delta=0.5, f=table, n=10)
    root = 2.0 * (math.sqrt(1.5) - 1.0)
    assert abs(rep.eps_decay - root) < 1e-10
    assert abs(rep.g - (0.5 - rep.eps_decay)) < 1e-11
    assert rep.residual_decay <= 1e-12
    assert rep.residual_threshold <= 1e-12
    assert not rep.vacuous
    assert abs(rep.bound_power - (1 - rep.g) ** 10) < 1e-15


def test_decay_vacuous_when_no_root():
    fam = projective_power_family([np.diag([1.0, 0.0])])
    tiny = PiecewiseTable.from_function(lambda e: 1e-12)
    rep = framework_decay_from_fidelity(fam, None, r=0.3, delta=0.5, f=tiny, n=5)
    assert rep.vacuous


def test_separable_family_decay_instance():
    fam = separable_family((2, 2), CUT)
    assert abs(fam.decay_f(0.3) - 0.09 / 4) < 1e-15
    rep = framework_decay_from_fidelity(fam, SINGLET, r=1.0, delta=0.5, n=3)
    assert not rep.vacuous
    root = 2.0 * (math.sqrt(1.5) - 1.0)
    assert abs(rep.eps_decay - root) < 1e-8


def test_family_stability_on_products():
    fam = projective_power_family([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    prods = list(fam.product_atoms(2))
    assert len(prods) == 4
    # permutation of a product atom is again a product atom
    swapped = [p.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4) for p in prods]
    for s in swapped:
        assert any(np.allclose(s, p) for p in prods)
    # partial trace of a product atom is an atom
    for p in prods:
        red = p.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert any(np.allclose(red, a) for a in fam.atoms)


def test_tails():
    assert binomial_tail(2, Fraction(1, 2), 2) == Fraction(1, 4)
    assert binomial_tail(7, 0.3, 0) == 1
    assert hoeffding_tail(4, 0.5, 2) == 1.0
    ok = True
    for n in range(1, 13):
        for p10 in range(1, 10):
            p = p10 / 10
            for t in range(n + 1):
                if t > n * p:
                    ok &= float(binomial_tail(n, p, t)) <= hoeffding_tail(n, p, t) + 1e-15
    assert ok


def test_hull_threshold_matches_binomial():
    fam = projective_power_family([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    witness = hermitian(np.full((2, 2), 0.5), (2,))
    h1 = Fraction(0.5)
    for n in (1, 3, 6, 10):
        tails = hull_threshold_tails(fam, witness, n)
        for t in range(n + 1):
            assert tails[t] == binomial_tail(n, h1, t)


def test_framework_fidelity_orthogonal_case():
    fam = projective_power_family([np.diag([1.0, 0.0])])
    rho = pure_state_density([0, 1], (2,))
    rep = framework_fidelity_from_decay(fam, rho, n=3, alpha=0.5)
    assert rep.lhs_fidelity < 1e-9
    assert rep.passed
    assert abs(rep.eta - 1.0) < 1e-12 and abs(rep.eps - 1.0) < 1e-12


def test_framework_fidelity_plus_state():
    fam = projective_power_family([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    plus = pure_state_density(np.array([1, 1]) / math.sqrt(2), (2,))
    rep = framework_fidelity_from_decay(fam, plus, n=3)
    assert abs(rep.lhs_fidelity - 1 / math.sqrt(8)) < 1e-6
    assert abs(rep.eta - 0.5) < 1e-9 and abs(rep.eps - 0.5) < 1e-9
    assert rep.passed
    # the hull pass probability is the exact binomial tail at h = 1 - eta
    assert abs(rep.hull_pass - float(binomial_tail(3, 0.5, rep.threshold))) < 1e-9
    assert rep.rho_fail <= math.exp(-2 * 3 * (rep.eps - rep.alpha) ** 2) + 1e-12


def test_framework_fidelity_rejects_hull_member():
    fam = projective_power_family([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    diag = density(np.diag([0.6, 0.4]), (2,))
    with pytest.raises(ValueError):
        framework_fidelity_from_decay(fam, diag, n=2)
