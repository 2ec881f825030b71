"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test is independent and seeded.
"""

import json
import math
from fractions import Fraction

import numpy as np

from definetti import repetition, suites
from definetti.cli import main as cli_main
from definetti.operators import (
    hermitian,
    induced_mixed_state,
    random_contraction,
    stream,
    sym_projector,
    symmetric_state_vector,
    tensor_power,
)
from definetti.reductions import (
    _sym_isometry,
    check_classical_reduction,
    check_mixed_reduction,
    check_pure_reduction,
    check_truncated_ambient_reduction,
    constrained_moment,
    monte_carlo_constrained_moment,
)
from definetti.repetition import (
    binomial_tail,
    bound_hsep_power,
    bound_qext_power,
    bound_threshold,
    cmi_chain_check,
    framework_decay_from_fidelity,
    hoeffding_tail,
    hull_threshold_tails,
    post_measurement_update,
    projective_power_family,
    recursive_conditioning_demo,
    sample_admissible_sequence,
    scalar_recursion_bound,
    scalar_recursion_corollary,
    threshold_operator,
)
from definetti.separability import BipartiteCut, hqext, hsep_seesaw
from reference import sym_projector_average, sym_rank

CUT = BipartiteCut((0,), (1,))
SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
SINGLET = hermitian(np.outer(SINGLET_VEC, SINGLET_VEC), (2, 2))


def _report(num: int, name: str, passed: bool = True):
    print(f"[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_01_pinching():
    records = suites.pinching_suite(seeds=100, seed=0, d_max=4, r_max=4)
    failures = [r for r in records if not r["pass"]]
    assert len(records) == 100
    assert all(r["tolerance"] == 1e-9 for r in records)
    _report(1, "pinching suite, 100 random instances", not failures)


def test_criterion_02_symmetric_projector_identity():
    ok = True
    for (n, d) in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        occ = sym_projector(n, d)
        avg = sym_projector_average(n, d)
        ok &= np.linalg.norm(occ.matrix - avg.matrix) <= 1e-10
        tr = occ.trace()
        ok &= round(tr) == sym_rank(n, d) and abs(tr - sym_rank(n, d)) < 1e-9
    _report(2, "symmetric projector constructions and ranks", ok)


def test_criterion_03_pure_reduction():
    ok = True
    for (n, d) in [(2, 2), (3, 2), (2, 3)]:
        for s in range(50):
            theta = symmetric_state_vector(n, d, s, "acc3", n, d)
            res = check_pure_reduction(theta, n, d)
            ok &= res.passed and res.tolerance == 1e-9
    theta = symmetric_state_vector(2, 2, 424242, "acc3-mc")
    exact = constrained_moment(theta, 2, 2).matrix
    mean, stderr = monte_carlo_constrained_moment(theta, 2, 2, samples=100_000, seed=33)
    ok &= bool((np.abs(mean - exact) <= 5 * stderr + 1e-12).all())
    _report(3, "pure constrained reduction, 150 seeds + Monte-Carlo cross-check", ok)


def test_criterion_04_mixed_reduction():
    ok = True
    for s in range(25):
        res = check_mixed_reduction(2, 2, seed=s, samples=100)
        ok &= res.passed and res.tolerance == 1e-9
        ok &= res.extras["fidelity_domination_min_margin"] >= -1e-9
    _report(4, "mixed constrained reduction, 25 seeds at d=2 n=2", ok)


def test_criterion_05_classical_reduction():
    dists = {
        "uniform": np.full(8, 1 / 8),
        "point": np.eye(8)[0],
    }
    sym_string = np.zeros(8)
    for idx in (0b001, 0b010, 0b100):
        sym_string[idx] = 1 / 3
    dists["symmetrized"] = sym_string
    ok = True
    for dist in dists.values():
        res = check_classical_reduction(dist, 2, 3)
        ok &= res.passed and res.rhs_diag.size == 8 and res.tolerance == 1e-12
    _report(5, "classical pointwise reduction over all strings", ok)


def test_criterion_06_truncated_reduction():
    ok = True
    for (d, big_d, n, k) in [(2, 3, 1, 1), (2, 3, 2, 1)]:
        res = check_truncated_ambient_reduction(n, k, d, big_d, seed=0)
        ok &= res.passed and res.tolerance == 1e-9
    # k = 0 reduces to the pure reduction: same prefactor, and the bound
    # operator lives on the kept classes, Sym^2(C^2) at k = 0, and equals
    # the pure-case operator compressed there
    theta = symmetric_state_vector(2, 2, 7, "acc6")
    emb = np.zeros((3, 3), dtype=complex)
    emb[:2, :2] = theta.reshape(2, 2)
    trunc = check_truncated_ambient_reduction(2, 0, 2, 3, seed=0, theta=emb.reshape(-1))
    pure = check_pure_reduction(theta, 2, 2)
    ok &= trunc.prefactor == pure.prefactor
    ok &= trunc.rhs.side == math.comb(2 + 2 - 1, 2)
    iso = _sym_isometry(2, 2)
    ok &= np.linalg.norm(trunc.rhs.matrix - iso.T @ pure.rhs.matrix @ iso) <= 1e-12
    _report(6, "truncated-ambient reduction and k=0 degeneration", ok)


def test_criterion_07_separability_values():
    see = hsep_seesaw(SINGLET, CUT, restarts=32, seed=0)
    ok = abs(see.value - 0.5) < 1e-6
    # independent 1-degree product-state grid; the pair overlap reduces to
    # a function of both polar angles and the azimuth difference, all on grid
    thetas = np.deg2rad(np.arange(0.0, 181.0, 1.0))
    dphis = np.deg2rad(np.arange(0.0, 360.0, 1.0))
    sin_t, cos_t = np.sin(thetas), np.cos(thetas)
    dots = (
        sin_t[:, None, None] * sin_t[None, :, None] * np.cos(dphis)[None, None, :]
        + cos_t[:, None, None] * cos_t[None, :, None]
    )
    grid_value = (1.0 - float(dots.min())) / 4.0
    ok &= abs(see.value - grid_value) < 1e-6
    vals = [hqext(SINGLET, CUT, q).value for q in (1, 2, 3)]
    ok &= abs(vals[0] - 1.0) < 1e-9
    ok &= vals[0] > vals[1] + 1e-6 and vals[1] > vals[2] + 1e-6
    rng = stream(1, "acc7")
    for i in range(20):
        m = hermitian(random_contraction(4, rng), (2, 2))
        lower = hsep_seesaw(m, CUT, restarts=16, seed=i).value
        for q in (2, 3):
            ok &= hqext(m, CUT, q).value >= lower - 1e-9
    _report(7, "separability support values (seesaw, grid, extendibility)", ok)


def test_criterion_08_multiplicativity_chain():
    rng = stream(2, "acc8")
    ops = [SINGLET] + [hermitian(random_contraction(4, rng), (2, 2)) for _ in range(10)]
    ok = True
    for i, m in enumerate(ops):
        single = hsep_seesaw(m, CUT, restarts=16, seed=i)
        upper = min(hqext(m, CUT, q).value for q in (1, 2, 3))
        power = tensor_power(m, 2)
        init = (np.kron(single.a_vec, single.a_vec), np.kron(single.b_vec, single.b_vec))
        double = hsep_seesaw(
            power, CUT.power(2, 2), restarts=16, seed=i, initial_points=[init]
        )
        ok &= double.value >= single.value**2 - 1e-8
        ok &= double.value <= upper + 1e-8
    _report(8, "two-copy multiplicativity chain on 11 operators", ok)


def _random_certified_operator(index: int):
    """Random contraction with a q=4 certified test slack of at least 0.2."""
    rng = stream(3, "acc9", index)
    for attempt in range(50):
        u_a = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        u_b = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        rotated = np.kron(u_a, u_b) @ SINGLET.matrix @ np.kron(u_a, u_b).conj().T
        c = rng.uniform(0.7, 1.0)
        m = hermitian(c * rotated + (1 - c) * random_contraction(4, rng), (2, 2))
        delta = 1.0 - hqext(m, CUT, 4).value
        if delta >= 0.2:
            return m, delta
    raise RuntimeError("no certified operator found")


def test_criterion_09_decay_bound_consistency():
    ok = True
    instances = [(SINGLET, 1.0 - hqext(SINGLET, CUT, 4).value)]
    for i in range(5):
        instances.append(_random_certified_operator(i))
    for idx, (m, delta) in enumerate(instances):
        assert delta >= 0.2
        r = float(np.linalg.norm(m.matrix))
        for n in (2, 3):
            power = tensor_power(m, n)
            value = hsep_seesaw(power, CUT.power(n, 2), restarts=16, seed=idx).value
            ok &= value <= bound_hsep_power(delta, r, n) + 1e-6
        thr = threshold_operator(m, 3, 3, "exact_povm")
        value = hsep_seesaw(thr.op, CUT.power(3, 2), restarts=16, seed=idx).value
        ok &= value <= bound_threshold(delta, r, 3) + 1e-6
    _report(9, "tensor-power and threshold decay bounds on certified operators", ok)


def test_criterion_10_post_measurement():
    ok = repetition.BUDGET_TOL == 1e-9
    for i in range(100):
        rho = induced_mixed_state((2, 2), 4, i)
        t = hermitian(random_contraction(2, stream(5, i)), (2,))
        res = post_measurement_update(rho, t)
        ok &= res.passed
    _report(10, "post-measurement relative entropy lemma, 100 instances", ok)


def test_criterion_11_cmi_chain():
    ok = repetition.BUDGET_TOL == 1e-9
    for (n, k) in [(2, 1), (3, 1), (3, 2)]:
        for i in range(20):
            m = hermitian(random_contraction(4, stream(6, n, k, i)), (2, 2))
            alpha = induced_mixed_state((2,) * n, 7, n, k, i, "a")
            beta = induced_mixed_state((2,) * n, 7, n, k, i, "b")
            rep = cmi_chain_check(m, alpha, beta, k)
            ok &= rep.passed
    _report(11, "conditional mutual information chain, 60 instances", ok)


def test_criterion_12_scalar_recursion():
    rng = stream(8, "acc12")
    ok = repetition.RECURSION_TOL == 1e-12
    count = 0
    while count < 1000:
        n = int(rng.integers(2, 30))
        nu = float(rng.uniform(0.05, 0.9))
        c = float(rng.uniform(1.0, 10.0))
        corollary_gamma = count % 2 == 0
        gamma = (1 - nu) / 2 if corollary_gamma else float(rng.uniform(0.1, 0.95)) * (1 - nu)
        seq = sample_admissible_sequence(n, nu, c, gamma, rng)
        lemma = scalar_recursion_bound(seq, nu, c, gamma)
        if not lemma.applicable:
            continue
        ok &= lemma.holds
        cor = scalar_recursion_corollary(seq, nu, c)
        if corollary_gamma:
            ok &= cor.applicable and cor.holds
        elif cor.applicable:
            ok &= cor.holds
        count += 1
    # saturating sequence: recursion driven as equality from p_1 = nu + gamma
    nu, c, gamma, n = 0.4, 2.0, 0.25, 8
    seq = [nu + gamma]
    for k in range(1, n):
        bracket = math.sqrt(c / (n - k) * math.log2(1 / seq[-1])) + nu
        seq.append(seq[-1] * min(1.0, bracket))
    verdict = scalar_recursion_bound(seq, nu, c, gamma)
    ok &= verdict.applicable and verdict.holds
    for k in range(n - 1):
        bracket = math.sqrt(c / (n - (k + 1)) * math.log2(1 / seq[k])) + nu
        if bracket <= 1.0:
            ok &= abs(seq[k + 1] - seq[k] * bracket) <= 1e-12
    _report(12, "scalar recursion lemma and corollary, 1000 sequences", ok)


def test_criterion_13_conditioning_demo():
    ok = repetition.CONDITIONING_TOL == 1e-8
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        alpha = induced_mixed_state((2,) * n, 9, i, "a")
        beta = induced_mixed_state((2,) * n, 9, i, "b")
        m = hermitian(random_contraction(4, stream(10, i)), (2, 2))
        for q in (2, 3):
            traj = recursive_conditioning_demo(
                m, alpha, beta, q=q, selection="greedy_min_mi", seed=i
            )
            ok &= traj.per_step_ok
            ok &= traj.final_p <= bound_qext_power(traj.hqext_value, q, n) + 1e-8
            ok &= traj.ratio_defect <= 1e-10
    _report(13, "greedy conditioning trajectories, 50 instances", ok)


def test_criterion_14_framework_roundtrip():
    fam = projective_power_family([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    rep = framework_decay_from_fidelity(fam, None, r=1.0, delta=0.5, f=lambda e: e * e / 4.0, n=10)
    root = 2.0 * (math.sqrt(1.5) - 1.0)
    ok = abs(rep.eps_decay - root) <= 1e-10
    witness = hermitian(np.full((2, 2), 0.5), (2,))
    h1 = Fraction(0.5)
    for n in range(1, 11):
        tails = hull_threshold_tails(fam, witness, n)
        for t in range(n + 1):
            ok &= tails[t] == binomial_tail(n, h1, t)
    for n in range(1, 13):
        for p10 in range(1, 10):
            p = p10 / 10
            for t in range(n + 1):
                if t > n * p:
                    ok &= float(binomial_tail(n, p, t)) <= hoeffding_tail(n, p, t) + 1e-15
    _report(14, "framework round-trip (root, exact tails, Hoeffding grid)", ok)


def test_criterion_15_determinism(tmp_path):
    from definetti.serialize import dump_operator
    from definetti.separability import certificate_to_json

    singlet_path = tmp_path / "singlet.json"
    dump_operator(SINGLET, singlet_path)
    cert_path = tmp_path / "cert.json"
    res = hsep_seesaw(SINGLET, CUT, restarts=8, seed=5)
    cert_path.write_text(json.dumps(certificate_to_json("hsep_seesaw", SINGLET, CUT, res), sort_keys=True))

    invocations = [
        ["verify-pinching", "--seeds", "5"],
        ["verify-definetti", "--d", "2", "--n", "2", "--seeds", "3"],
        ["verify-definetti", "--d", "2", "--n", "2", "--seeds", "2", "--mixed"],
        ["verify-classical", "--d", "2", "--n", "2"],
        ["verify-truncated", "--seeds", "1"],
        ["hsep", "--op", str(singlet_path), "--restarts", "8"],
        ["qext", "--op", str(singlet_path), "--q", "2"],
        ["repetition-bounds", "--delta", "0.5", "--r", "1", "--n", "10"],
        ["conditioning-demo", "--n", "2", "--instances", "2"],
        ["framework", "--n-exhaustive", "4"],
        ["recheck-certificate", str(cert_path)],
    ]
    ok = True
    for idx, argv in enumerate(invocations):
        blobs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"run{idx}{attempt}.json"
            code = cli_main([*argv, "--seed", "11", "--out", str(out)])
            ok &= code == 0
            blobs.append(out.read_bytes())
        ok &= blobs[0] == blobs[1]
    _report(15, "byte-identical reports for every suite", ok)
