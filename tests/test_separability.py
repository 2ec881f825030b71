import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from definetti import suites
from definetti.measures import Povm, fidelity
from definetti.operators import (
    b_side_twirl,
    density,
    hermitian,
    identity_operator,
    induced_mixed_state,
    min_eigenvalue,
    partial_trace,
    pure_state_density,
    random_contraction,
    random_hermitian,
    stream,
    tensor_power,
)
from definetti.separability import (
    SEESAW_STOP,
    BipartiteCut,
    _min_norm_weights,
    _random_unit,
    _seesaw_product_max,
    _top_eigpair,
    _top_eigpairs,
    certificate_to_json,
    hqext,
    hs_distance_to_sep,
    hsep_certified_interval,
    hsep_seesaw,
    max_fidelity_to_sep,
    measured_fidelity_to_sep_upper,
    pauli_tomography_povm,
    product_povm,
    recheck_certificate,
)

CUT = BipartiteCut((0,), (1,))
SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
SINGLET = hermitian(np.outer(SINGLET_VEC, SINGLET_VEC), (2, 2))
SINGLET_DM = density(np.outer(SINGLET_VEC, SINGLET_VEC), (2, 2))


def bloch_kets(step_deg: float = 1.0):
    thetas = np.deg2rad(np.arange(0.0, 180.0 + step_deg / 2, step_deg))
    phis = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt = tt.ravel()
    pp = pp.ravel()
    kets = np.stack([np.cos(tt / 2), np.exp(1j * pp) * np.sin(tt / 2)], axis=1)
    bloch = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=1
    )
    return kets, bloch


def test_singlet_overlap_bloch_identity():
    # |<ab|psi->|^2 = (1 - a.b)/4, verified directly before the grid uses it
    kets, bloch = bloch_kets(36.0)
    rng = stream(0, "bloch")
    idx = rng.integers(0, len(kets), size=200)
    jdx = rng.integers(0, len(kets), size=200)
    for i, j in zip(idx, jdx):
        ab = np.kron(kets[i], kets[j])
        direct = abs(np.vdot(ab, SINGLET_VEC)) ** 2
        formula = (1.0 - float(bloch[i] @ bloch[j])) / 4.0
        assert abs(direct - formula) < 1e-12


def test_hsep_singlet_grid_oracle():
    res = hsep_seesaw(SINGLET, CUT)
    assert abs(res.value - 0.5) < 1e-6
    # pair overlaps depend only on (theta_a, theta_b, phi_a - phi_b), and the
    # uniform 1-degree phi grid is closed under differences, so the full
    # product-grid minimum reduces exactly to a 3-d scan; spot-check that
    # reduction on random pairs before using it
    rng = stream(3, "grid")
    for _ in range(50):
        ta, tb = rng.uniform(0, np.pi, 2)
        pa, pb = rng.uniform(0, 2 * np.pi, 2)
        va = np.array([np.sin(ta) * np.cos(pa), np.sin(ta) * np.sin(pa), np.cos(ta)])
        vb = np.array([np.sin(tb) * np.cos(pb), np.sin(tb) * np.sin(pb), np.cos(tb)])
        reduced = np.sin(ta) * np.sin(tb) * np.cos(pa - pb) + np.cos(ta) * np.cos(tb)
        assert abs(float(va @ vb) - reduced) < 1e-12
    thetas = np.deg2rad(np.arange(0.0, 181.0, 1.0))
    dphis = np.deg2rad(np.arange(0.0, 360.0, 1.0))
    sin_t, cos_t = np.sin(thetas), np.cos(thetas)
    dots = (
        sin_t[:, None, None] * sin_t[None, :, None] * np.cos(dphis)[None, None, :]
        + cos_t[:, None, None] * cos_t[None, :, None]
    )
    best = (1.0 - float(dots.min())) / 4.0
    assert abs(best - 0.5) < 1e-9
    assert abs(res.value - best) < 1e-6


def test_hsep_product_projector():
    p00 = np.zeros((4, 4))
    p00[0, 0] = 1.0
    res = hsep_seesaw(hermitian(p00, (2, 2)), CUT, restarts=8)
    assert abs(res.value - 1.0) < 1e-10
    assert abs(abs(res.a_vec[0]) - 1.0) < 1e-6 and abs(abs(res.b_vec[0]) - 1.0) < 1e-6


def test_hsep_identity():
    res = hsep_seesaw(identity_operator((2, 2)), CUT, restarts=4)
    assert abs(res.value - 1.0) < 1e-10


def test_hsep_rejects_noncontractive():
    with pytest.raises(ValueError):
        hsep_seesaw(hermitian(2.0 * np.eye(4), (2, 2)), CUT)


def test_seesaw_value_matches_vectors():
    rng = stream(1, "seesaw")
    for i in range(10):
        m = hermitian(random_contraction(4, rng), (2, 2))
        res = hsep_seesaw(m, CUT, restarts=8, seed=i)
        v = np.kron(res.a_vec, res.b_vec)
        direct = float(np.real(np.vdot(v, m.matrix @ v)))
        assert abs(direct - res.value) < 1e-10
        assert res.value <= np.linalg.eigvalsh(m.matrix)[-1] + 1e-10


def serial_seesaw(matrix, da, db, restarts, max_iters, seed, initial_points=()):
    """Reference oracle: one start at a time, contractions by einsum.

    Returns ``(value, a, b, iterations, converged)`` under the same start
    order, stop test and tie rule as ``_seesaw_product_max``.
    """
    m4 = matrix.reshape(da, db, da, db)
    starts = [(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)) for a, b in initial_points]
    for r in range(restarts):
        rng = stream(seed, "seesaw-restart", r)
        starts.append((_random_unit(rng, da), _random_unit(rng, db)))
    best = None
    total = 0
    for a, b in starts:
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        value, converged = -np.inf, False
        for _ in range(max_iters):
            total += 1
            _, a = _top_eigpair(np.einsum("i,aibj,j->ab", b.conj(), m4, b))
            new, b = _top_eigpair(np.einsum("a,aibj,b->ij", a.conj(), m4, a))
            if new - value < SEESAW_STOP:
                value, converged = max(value, new), True
                break
            value = new
        if best is None or value > best[0] + 1e-15:
            best = (value, a, b, converged)
    value, a, b, converged = best
    v = np.kron(a, b)
    return float(np.real(np.vdot(v, matrix @ v))), a, b, total, converged


@pytest.mark.parametrize("da,db", [(2, 2), (3, 3), (2, 4), (4, 4)])
def test_batched_seesaw_matches_serial_reference(da, db):
    rng = stream(11, "batched", da, db)
    for i in range(6):
        m = random_contraction(da * db, rng)
        res = _seesaw_product_max(m, da, db, restarts=8, max_iters=200, seed=i)
        value, a, b, iterations, converged = serial_seesaw(m, da, db, 8, 200, i)
        assert abs(res.value - value) <= 1e-12
        assert res.iterations == iterations
        assert res.converged == converged
        assert np.allclose(res.a_vec, a, atol=1e-8) and np.allclose(res.b_vec, b, atol=1e-8)
        assert res.restarts == 8 and res.seed == i


def test_seesaw_ties_go_to_lowest_restart():
    # on the identity every restart reaches 1 and ties
    res = _seesaw_product_max(np.eye(4), 2, 2, restarts=5, max_iters=50, seed=3)
    first = _seesaw_product_max(np.eye(4), 2, 2, restarts=1, max_iters=50, seed=3)
    assert abs(res.value - 1.0) < 1e-12
    assert np.array_equal(res.a_vec, first.a_vec) and np.array_equal(res.b_vec, first.b_vec)
    # |00><00| + |11><11| has two product maxima; starts that reach different
    # ones tie at 1, and the lowest-index start wins
    m = np.diag([1.0, 0.0, 0.0, 1.0])
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for winner, loser in ((e0, e1), (e1, e0)):
        starts = [(winner, winner), (loser, loser)]
        res = _seesaw_product_max(m, 2, 2, restarts=0, max_iters=50, seed=0, initial_points=starts)
        assert abs(res.value - 1.0) < 1e-12
        assert np.allclose(np.abs(res.a_vec), winner) and np.allclose(np.abs(res.b_vec), winner)


def test_seesaw_initial_points_counted_and_tried_first():
    m = np.diag([1.0, 0.0, 0.0, 1.0])
    seeded = _seesaw_product_max(m, 2, 2, restarts=3, max_iters=50, seed=4)
    # the initial point is the product maximum the first seeded start misses
    corner = np.array([0.0, 1.0]) if abs(seeded.a_vec[0]) > 0.5 else np.array([1.0, 0.0])
    res = _seesaw_product_max(m, 2, 2, restarts=3, max_iters=50, seed=4, initial_points=[(corner, corner)])
    assert res.restarts == 4
    assert np.allclose(np.abs(res.a_vec), corner) and np.allclose(np.abs(res.b_vec), corner)
    _, a, _, iterations, _ = serial_seesaw(m, 2, 2, 3, 50, 4, initial_points=[(corner, corner)])
    assert res.iterations == iterations and np.allclose(res.a_vec, a)


def test_seesaw_single_iteration_is_not_converged():
    rng = stream(12, "one-step")
    m = random_contraction(9, rng)
    res = _seesaw_product_max(m, 3, 3, restarts=5, max_iters=1, seed=0)
    assert res.iterations == 5
    assert not res.converged


@given(
    count=st.integers(1, 4),
    side=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_top_eigpairs_matches_per_matrix(count, side, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([random_hermitian(side, rng) for _ in range(count)])
    values, vecs = _top_eigpairs(stack)
    for mat, value, vec in zip(stack, values, vecs):
        ref_value, ref_vec = _top_eigpair(mat)
        assert value == ref_value
        # same eigenvectors; the phase division is vectorized, so allow a
        # few ulps of complex-division rounding
        assert np.allclose(vec, ref_vec, rtol=0.0, atol=1e-14)


@given(
    da=st.integers(1, 3),
    db=st.integers(1, 3),
    restarts=st.integers(1, 4),
    max_iters=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_seesaw_value_within_spectrum_and_recomputable(da, db, restarts, max_iters, seed):
    m = random_hermitian(da * db, np.random.default_rng(seed))
    res = _seesaw_product_max(m, da, db, restarts, max_iters, seed=seed % 1000)
    w = np.linalg.eigvalsh(m)
    assert w[0] - 1e-10 <= res.value <= w[-1] + 1e-10
    v = np.kron(res.a_vec, res.b_vec)
    assert abs(float(np.real(np.vdot(v, m @ v))) - res.value) <= 1e-12
    assert abs(np.linalg.norm(res.a_vec) - 1.0) < 1e-12 and abs(np.linalg.norm(res.b_vec) - 1.0) < 1e-12


def test_hqext_singlet_values():
    # q = 1 admits every state; beyond, known extendibility values of the
    # maximally entangled state: (1/2)(1 + 1/q)
    for q in range(1, 9):
        res = hqext(SINGLET, CUT, q)
        assert abs(res.value - (q + 1) / (2 * q)) < 1e-12, q


def test_hqext_two_extension_witness_is_feasible():
    # the twirl of the top eigenprojector is an invariant state whose AB
    # marginal is 2-extendible and achieves the same objective value
    res = hqext(SINGLET, CUT, 2)
    proj = pure_state_density(res.witness_vec, (2, 2, 2))
    invariant = b_side_twirl(proj.op, 2)
    marginal = partial_trace(invariant, [0, 1])
    achieved = float(np.real(np.trace(SINGLET.matrix @ marginal.matrix)))
    assert abs(achieved - res.value) < 1e-9
    assert min_eigenvalue(invariant) >= -1e-10


def test_hqext_monotone_and_dominates_seesaw():
    rng = stream(2, "mono")
    for i in range(20):
        m = hermitian(random_contraction(4, rng), (2, 2))
        v1 = hqext(m, CUT, 1).value
        v2 = hqext(m, CUT, 2).value
        v3 = hqext(m, CUT, 3).value
        lower = hsep_seesaw(m, CUT, restarts=16, seed=i).value
        assert v1 >= v2 - 1e-9
        assert v2 >= v3 - 1e-9
        assert v3 >= lower - 1e-9


def test_certified_interval():
    p00 = np.zeros((4, 4))
    p00[0, 0] = 1.0
    res = hsep_certified_interval(hermitian(p00, (2, 2)), CUT, q_max=3, restarts=8)
    assert abs(res.lower - 1.0) < 1e-9 and abs(res.upper - 1.0) < 1e-9
    res = hsep_certified_interval(SINGLET, CUT, q_max=4)
    assert abs(res.lower - 0.5) < 1e-6
    assert abs(res.upper - 0.625) < 1e-9  # best extendible value at q = 4
    assert res.lower <= res.upper + 1e-9
    assert abs(res.delta_certified - 0.375) < 1e-9


def test_hsep_records_interval_reuses_seesaw():
    m = hermitian(random_contraction(4, stream(13, "records")), (2, 2))
    records, res = suites.hsep_records(m, CUT, restarts=8, seed=2, q_max=3)
    interval = hsep_certified_interval(m, CUT, q_max=3, restarts=8, seed=2)
    assert records[1]["value"] == interval.lower == res.value
    assert records[1]["bound"] == interval.upper
    assert records[1]["params"]["per_q"] == {str(k): v for k, v in interval.per_q_upper.items()}


def test_max_fidelity_separable_input():
    prod = pure_state_density(np.kron([1, 0], [0, 1]), (2, 2))
    res = max_fidelity_to_sep(prod, CUT, iters=50, seed=1)
    assert res.value >= 1 - 1e-6
    mix = density(np.eye(4) / 4, (2, 2))
    res = max_fidelity_to_sep(mix, CUT, iters=50, seed=1)
    assert res.value >= 1 - 1e-6


def test_max_fidelity_singlet():
    res = max_fidelity_to_sep(SINGLET_DM, CUT, iters=200, seed=2)
    assert abs(res.value**2 - 0.5) < 1e-6


def test_max_fidelity_certificate_consistency():
    res = max_fidelity_to_sep(SINGLET_DM, CUT, iters=100, seed=3)
    mix = sum(
        w * np.outer(np.kron(a, b), np.kron(a, b).conj())
        for (a, b), w in zip(res.atoms, res.weights)
    )
    assert min_eigenvalue(hermitian(mix, (2, 2))) >= -1e-10
    assert abs(fidelity(SINGLET_DM.matrix, mix) - res.value) < 1e-9
    assert abs(res.weights.sum() - 1.0) < 1e-12


def test_hs_distance_separable_input():
    mix = density(np.eye(4) / 4, (2, 2))
    res = hs_distance_to_sep(mix, CUT, iters=30, seed=4)
    assert res.value <= 1e-6
    # I/4 is the starting mixture, so the first oracle call finds no gain
    assert res.converged and res.iterations == 1


def test_hs_distance_reports_iteration_cap():
    res = hs_distance_to_sep(SINGLET_DM, CUT, iters=1, seed=5)
    assert res.iterations == 1
    assert not res.converged


def test_hs_distance_singlet_werner_oracle():
    # Werner-line oracle: the closest separable point on the line
    # p * singlet + (1-p) I/4 sits at p = 1/3, at 2-norm distance
    # (2/3) ||singlet - I/4||_2 = 1/sqrt(3); it is the global optimum.
    line = lambda p: p * SINGLET.matrix + (1 - p) * np.eye(4) / 4
    dists = [
        np.linalg.norm(SINGLET.matrix - line(p))
        for p in np.linspace(0.0, 1.0 / 3.0, 1000)
    ]
    oracle = min(dists)
    assert abs(oracle - 1.0 / math.sqrt(3)) < 1e-6
    res = hs_distance_to_sep(SINGLET_DM, CUT, iters=200, seed=5)
    assert res.value <= oracle + 1e-6
    # exact mixture weights every round: few rounds, at the closed form
    assert res.converged and res.iterations <= 20
    assert abs(res.value - 1.0 / math.sqrt(3)) <= 1e-12


@given(
    k=st.integers(1, 20),
    dim=st.integers(1, 16),
    complex_points=st.booleans(),
    shape=st.sampled_from(["generic", "duplicates", "affine", "inside"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_min_norm_weights_simplex_and_optimal(k, dim, complex_points, shape, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((k, dim))
    if complex_points:
        pts = pts + 1j * rng.standard_normal((k, dim))
    if shape == "duplicates":
        pts = np.vstack([pts, pts[rng.integers(0, k, size=3)]])
    elif shape == "affine":
        mix = rng.random((3, k))
        pts = np.vstack([pts, (mix / mix.sum(axis=1, keepdims=True)) @ pts])
    elif shape == "inside":
        # the target (the origin) is a convex combination of the points
        c = rng.random(k)
        pts = pts - (c / c.sum()) @ pts
    w = _min_norm_weights(pts)
    assert (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-12
    # optimality certificate of the minimum-norm point x over the hull
    x = w @ pts
    scale = float(np.max(np.sum(np.abs(pts) ** 2, axis=1)))
    assert np.min(np.real(pts.conj() @ x)) >= np.vdot(x, x).real - 1e-12 * scale


def test_hs_distance_triangle_sanity():
    rng = stream(6, "tri")
    sigma = induced_mixed_state((2, 2), 6)
    res = hs_distance_to_sep(sigma, CUT, iters=60, seed=6)
    for (a, b), w in zip(res.atoms, res.weights):
        v = np.kron(a, b)
        tau = np.outer(v, v.conj())
        assert res.value <= np.linalg.norm(sigma.matrix - tau) + 1e-9


def test_measured_upper_trivial_and_separable():
    triv = Povm((np.eye(2),))
    res = measured_fidelity_to_sep_upper(SINGLET_DM, CUT, triv, triv, iters=5)
    assert abs(res.upper - 1.0) < 1e-9
    pauli = pauli_tomography_povm()
    mix = density(np.eye(4) / 4, (2, 2))
    res = measured_fidelity_to_sep_upper(mix, CUT, pauli, pauli, iters=5)
    assert abs(res.upper - 1.0) < 1e-9


def test_measured_upper_singlet_strict_gap():
    pauli = pauli_tomography_povm()
    res = measured_fidelity_to_sep_upper(SINGLET_DM, CUT, pauli, pauli, iters=150, seed=7)
    assert res.upper < 1.0 - 1e-3
    # the measured upper bound must dominate the unmeasured fidelity
    assert res.upper >= 1 / math.sqrt(2) - 1e-6


def test_product_povm_structure():
    pauli = pauli_tomography_povm()
    joint = product_povm(pauli, pauli)
    assert len(joint.elements) == 36
    assert joint.side == 4


def test_multiplicativity_floor():
    rng = stream(8, "mult")
    ops = [SINGLET] + [hermitian(random_contraction(4, rng), (2, 2)) for _ in range(5)]
    for i, m in enumerate(ops):
        single = hsep_seesaw(m, CUT, restarts=16, seed=i)
        power = tensor_power(m, 2)
        cut2 = CUT.power(2, 2)
        init = (np.kron(single.a_vec, single.a_vec), np.kron(single.b_vec, single.b_vec))
        double = hsep_seesaw(power, cut2, restarts=16, seed=i, initial_points=[init])
        assert double.value >= single.value**2 - 1e-8


def test_theorem_fsep_consequence_two_copies():
    pauli = pauli_tomography_povm()
    upper = measured_fidelity_to_sep_upper(SINGLET_DM, CUT, pauli, pauli, iters=120, seed=9)
    single = max_fidelity_to_sep(SINGLET_DM, CUT, iters=100, seed=9)
    double_rho = pure_state_density(np.kron(SINGLET_VEC, SINGLET_VEC), (2, 2, 2, 2))
    double = max_fidelity_to_sep(double_rho, CUT.power(2, 2), iters=100, seed=9)
    assert double.value <= upper.upper * single.value + 1e-6


def test_certificate_roundtrip_and_tamper():
    res = hsep_seesaw(SINGLET, CUT, restarts=8, seed=10)
    cert = certificate_to_json("hsep_seesaw", SINGLET, CUT, res)
    claimed, recomputed, ok = recheck_certificate(cert)
    assert ok and abs(claimed - recomputed) < 1e-10
    cert_bad = dict(cert)
    cert_bad["value"] = cert["value"] * (1 - 1e-3)
    _, _, ok = recheck_certificate(cert_bad)
    assert not ok
    fw = max_fidelity_to_sep(SINGLET_DM, CUT, iters=50, seed=10)
    cert = certificate_to_json("fidelity_mixture", SINGLET_DM.op, CUT, fw)
    claimed, recomputed, ok = recheck_certificate(cert)
    assert ok


def scale_first_atom(cert, factor):
    rec = cert["atoms"][0]
    rec["a_re"] = [factor * v for v in rec["a_re"]]
    rec["a_im"] = [factor * v for v in rec["a_im"]]


@pytest.mark.parametrize("kind", ["hsep_seesaw", "fidelity_mixture", "hs_distance"])
def test_recheck_rejects_non_unit_atoms(kind):
    if kind == "hsep_seesaw":
        res = hsep_seesaw(SINGLET, CUT, restarts=8, seed=10)
    elif kind == "fidelity_mixture":
        res = max_fidelity_to_sep(SINGLET_DM, CUT, iters=50, seed=10)
    else:
        res = hs_distance_to_sep(SINGLET_DM, CUT, iters=50, seed=10)
    cert = certificate_to_json(kind, SINGLET, CUT, res)
    assert recheck_certificate(cert)[2]
    scale_first_atom(cert, 2.0)
    if kind == "hsep_seesaw":
        # the scaled atom re-evaluates to 4 * hsep(singlet) = 2, above any
        # product-state value; claiming exactly that must still be refused
        cert["value"] = 4.0 * res.value
    with pytest.raises(ValueError, match="unit vector"):
        recheck_certificate(cert)


@functools.cache
def mixture_certificates():
    """One ``fidelity_mixture`` and one ``hs_distance`` certificate for a
    random state on 2 x 3 (unequal sides, so swapping the cut changes the
    atom sizes it implies)."""
    rho = induced_mixed_state((2, 3), 31)
    fw = max_fidelity_to_sep(rho, CUT, iters=20, seed=3, restarts=4)
    gilbert = hs_distance_to_sep(rho, CUT, iters=20, seed=3, restarts=4)
    return {
        "fidelity_mixture": json.dumps(certificate_to_json("fidelity_mixture", rho.op, CUT, fw)),
        "hs_distance": json.dumps(certificate_to_json("hs_distance", rho.op, CUT, gilbert)),
    }


def test_mixture_certificates_recheck():
    for blob in mixture_certificates().values():
        claimed, recomputed, ok = recheck_certificate(json.loads(blob))
        assert ok and abs(claimed - recomputed) <= 1e-12
        swapped = json.loads(blob)
        swapped["cut"] = {"a": [1], "b": [0]}
        with pytest.raises(ValueError, match="sizes 2, 3 for cut sides 3, 2"):
            recheck_certificate(swapped)


@given(
    kind=st.sampled_from(["fidelity_mixture", "hs_distance"]),
    field=st.sampled_from(["value", "weight", "atom", "cut"]),
    index=st.integers(0, 2**16),
    part=st.sampled_from(["a_re", "a_im", "b_re", "b_im"]),
    delta=st.floats(1e-3, 0.5),
    sign=st.sampled_from([-1.0, 1.0]),
    cut=st.sampled_from([{"a": [1], "b": [0]}, {"a": [0], "b": [0]}, {"a": [0, 1], "b": []}]),
)
def test_recheck_rejects_single_field_mutation(kind, field, index, part, delta, sign, cut):
    cert = json.loads(mixture_certificates()[kind])
    delta *= sign
    if field == "value":
        cert["value"] += delta
    elif field == "weight":
        cert["weights"][index % len(cert["weights"])] += delta
    elif field == "atom":
        entries = cert["atoms"][index % len(cert["atoms"])][part]
        entries[index % len(entries)] += delta
    else:
        cert["cut"] = cut
    try:
        ok = recheck_certificate(cert)[2]
    except ValueError:
        ok = False
    assert not ok


def test_cut_validation():
    with pytest.raises(ValueError):
        BipartiteCut((0,), (0,))
    with pytest.raises(ValueError):
        BipartiteCut((0,), ())
    cut = BipartiteCut((0, 2), (1, 3))
    with pytest.raises(ValueError):
        cut.validate(identity_operator((2, 2)).dims)
    assert BipartiteCut.halves(4) == BipartiteCut((0, 1), (2, 3))
    assert CUT.power(2, 2) == BipartiteCut((0, 2), (1, 3))
