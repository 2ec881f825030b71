import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from definetti import separability, suites
from definetti.measures import Povm, _sqrtm_psd, fidelity
from definetti.operators import (
    Dims,
    HermitianOperator,
    ResourceCapError,
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
    IRREP_CACHE_BYTES,
    SEESAW_STOP,
    BipartiteCut,
    _bloch_half_step,
    _bloch_ket,
    _bloch_product_max,
    _irrep_blocks,
    _level_side,
    _line_max,
    _min_norm_weights,
    _product_lmo_upper,
    _seesaw_product_max,
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
from reference import b_side_twirl, bloch_half_step, bloch_ket, fidelity_from_root, top_eigpair

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
    # one draw per call: real and imaginary planes, A's entries then B's
    g = stream(seed, "seesaw-starts").standard_normal((restarts, 2, da + db))
    starts += [(z[:da], z[da:]) for z in g[:, 0] + 1j * g[:, 1]]
    best = None
    total = 0
    for a, b in starts:
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        value, converged = -np.inf, False
        for _ in range(max_iters):
            total += 1
            _, a = top_eigpair(np.einsum("i,aibj,j->ab", b.conj(), m4, b))
            new, b = top_eigpair(np.einsum("a,aibj,b->ij", a.conj(), m4, a))
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


@given(
    starts=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_bloch_seesaw_matches_serial_reference(starts, seed):
    # a 2x2 cut runs in Bloch coordinates; the reference takes eigenvectors
    rng = np.random.default_rng(seed)
    m = random_hermitian(4, rng)
    points = [tuple(rng.standard_normal((2, 2, 2)) @ [1.0, 1j]) for _ in range(starts)]
    res = _seesaw_product_max(m, 2, 2, restarts=0, max_iters=200, seed=0, initial_points=points)
    value, _, _, iterations, converged = serial_seesaw(m, 2, 2, 0, 200, 0, initial_points=points)
    assert abs(res.value - value) <= 1e-12
    assert res.iterations == iterations and res.converged == converged


X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])


@pytest.mark.parametrize(
    "m",
    [
        np.zeros((4, 4)),
        np.eye(4),
        np.kron(X, np.eye(2)),
        np.kron(np.eye(2), Z),
        np.diag([1.0, 0.0, 0.0, 1.0]),
        np.diag([0.0, 1.0, 0.0, 0.0]),
    ],
    ids=["zero", "identity", "X(x)1", "1(x)Z", "00+11", "01"],
)
def test_bloch_seesaw_degenerate_operators(m):
    # a contraction that is a multiple of 1 keeps the start's vector
    res = _seesaw_product_max(m, 2, 2, restarts=4, max_iters=50, seed=1)
    for vec in (res.a_vec, res.b_vec):
        assert np.isfinite(vec).all() and abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    v = np.kron(res.a_vec, res.b_vec)
    assert abs(float(np.real(np.vdot(v, m @ v))) - res.value) <= 1e-15
    assert abs(res.value - np.linalg.eigvalsh(m)[-1]) <= 1e-12


@pytest.mark.parametrize("flat", [0, 1, 5, 8])
def test_fused_bloch_step_matches_the_first_one_bit_for_bit(flat):
    # the step as first written (tests/reference.py), on random rows and on
    # rows whose contraction is a multiple of 1: k's first row has no Bloch
    # part, so the row (1, 0, 0, 0) contracts to r = (k00, 0, 0, 0) exactly
    rng = np.random.default_rng(flat)
    k = rng.standard_normal((4, 4))
    k[0, 1:] = 0.0
    y, x = (np.column_stack([np.ones(8), rng.standard_normal((8, 3))]) for _ in range(2))
    y[:flat, 1:] = 0.0
    (s, value), (s_ref, value_ref) = _bloch_half_step(y, k, x), bloch_half_step(y, k, x)
    assert s.tobytes() == s_ref.tobytes() and value.tobytes() == value_ref.tobytes()
    assert np.array_equal(s[:flat, 1:], x[:flat, 1:])
    for row in np.concatenate([s, y]):
        assert _bloch_ket(row).tobytes() == bloch_ket(row).tobytes()


def test_seesaw_eigh_calls(monkeypatch):
    rng = stream(13, "eigh-count")
    qubits, qutrits = random_contraction(4, rng), random_contraction(9, rng)
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    res = hsep_seesaw(hermitian(qubits, (2, 2)), CUT, restarts=6, seed=2)
    assert res.iterations > 0 and not calls
    # other cuts: two stacked calls per lock-step iteration, here five that
    # no start leaves early
    res = _seesaw_product_max(qutrits, 3, 3, restarts=6, max_iters=5, seed=2)
    assert res.iterations == 30 and not res.converged
    assert len(calls) == 10


def test_seesaw_rejects_bad_restarts(monkeypatch):
    rho = density(np.eye(4) / 4, (2, 2))
    pauli = pauli_tomography_povm()
    calls = [
        lambda r: hsep_seesaw(SINGLET, CUT, restarts=r),
        lambda r: hsep_certified_interval(SINGLET, CUT, restarts=r),
        lambda r: max_fidelity_to_sep(rho, CUT, restarts=r),
        lambda r: hs_distance_to_sep(rho, CUT, restarts=r),
        lambda r: measured_fidelity_to_sep_upper(rho, CUT, pauli, pauli, restarts=r),
    ]
    for call in calls:
        for bad in (0, -3, 2.5, "4", True):
            with pytest.raises(ValueError, match="restarts"):
                call(bad)
    # an initial point is a start of its own, and must match the cut's sides
    e0 = np.array([1.0, 0.0])
    assert hsep_seesaw(SINGLET, CUT, restarts=0, initial_points=[(e0, e0)]).restarts == 1
    with pytest.raises(ValueError):
        hsep_seesaw(SINGLET, CUT, restarts=0, initial_points=[(np.ones(3), np.ones(1))])
    # q_max, iters and restarts must be integers >= 1 (a bool is refused),
    # checked before any seesaw runs, whether or not a round would use them
    def no_seesaw(*args, **kwargs):
        raise AssertionError("a seesaw ran before the arguments were checked")

    monkeypatch.setattr(separability, "_seesaw_product_max", no_seesaw)
    monkeypatch.setattr(separability, "_bloch_product_max", no_seesaw)
    calls = [
        lambda **kw: max_fidelity_to_sep(rho, CUT, **kw),
        lambda **kw: hs_distance_to_sep(rho, CUT, **kw),
        lambda **kw: measured_fidelity_to_sep_upper(rho, CUT, pauli, pauli, **kw),
    ]
    for call in calls:
        for bad in (0, -1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="iters must be >= 1 and an integer"):
                call(iters=bad)
            with pytest.raises(ValueError, match="restarts must be >= 1 and an integer"):
                call(iters=1, restarts=bad)
        with pytest.raises(ValueError, match="iters must be >= 1 and an integer"):
            call(iters=0, restarts=-1)
    for bad in (0, -1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="q_max must be >= 1 and an integer"):
            hsep_certified_interval(SINGLET, CUT, q_max=bad)
    with pytest.raises(ValueError, match="q_max must be >= 0 and an integer"):
        suites.hsep_records(SINGLET, CUT, q_max=-1)


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
    da=st.integers(1, 4),
    db=st.integers(1, 4),
    restarts=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_seesaw_returns_phase_fixed_vectors(da, db, restarts, seed):
    # the loop leaves eigenvector phases as eigh returns them; the returned
    # pair is rotated so each vector's largest-magnitude entry is real and
    # positive (_fix_phase)
    m = random_hermitian(da * db, np.random.default_rng(seed))
    res = _seesaw_product_max(m, da, db, restarts, 40, seed=seed % 1000)
    for vec in (res.a_vec, res.b_vec):
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        pivot = vec[np.argmax(np.abs(vec))]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-15


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
    for q in range(1, 13):
        res = hqext(SINGLET, CUT, q)
        assert abs(res.value - (q + 1) / (2 * q)) < 1e-12, q


def test_hqext_two_extension_witness_is_feasible():
    # the twirl of the top eigenprojector is an invariant state whose AB
    # marginal is 2-extendible and achieves the same objective value
    res = hqext(SINGLET, CUT, 2)
    proj = pure_state_density(res.witness(), (2, 2, 2))
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


@settings(max_examples=6)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_hqext_nonincreasing_in_q_past_the_old_cap(d, seed):
    # Ext_{q+1} lies inside Ext_q, so the support value cannot grow with q;
    # the old da * db**q cap stopped at q = 11 at 2x2 and q = 6 at 3x3
    m = hermitian(random_contraction(d * d, np.random.default_rng(seed)), (d, d))
    q_max = {2: 12, 3: 8}[d]
    values = [hqext(m, CUT, q).value for q in range(1, q_max + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values
    per_q = hsep_certified_interval(m, CUT, q_max=q_max, restarts=2, seed=seed % 1000).per_q_upper
    assert all(per_q[q + 1] <= per_q[q] + 1e-12 for q in range(1, q_max)), per_q


def _dense_twirled(m: np.ndarray, da: int, db: int, q: int) -> np.ndarray:
    """B-side twirl of ``M (x) 1^{q-1}`` as a dense matrix: the reference
    that ``hqext`` diagonalizes one irrep at a time."""
    ext = np.kron(m, np.eye(db ** (q - 1)))
    return b_side_twirl(HermitianOperator(ext, Dims((da,) + (db,) * q)), q).matrix


def test_hqext_matches_dense_twirl():
    for da, db, q_max in [(2, 2, 6), (3, 3, 4), (2, 3, 4), (3, 2, 5), (4, 2, 3)]:
        rng = stream(8, "dense-twirl", da, db)
        for _ in range(3):
            m = random_contraction(da * db, rng)
            op = hermitian(m, (da, db))
            for q in range(1, q_max + 1):
                dense = np.linalg.eigvalsh(_dense_twirled(m, da, db, q))[-1]
                assert abs(hqext(op, CUT, q).value - dense) <= 1e-12, (da, db, q)


def test_hqext_antisymmetric_projector_uses_an_antisymmetric_block():
    # the projector onto the antisymmetric subspace of C^3 (x) C^3 attains 1
    # at q = 2 on the totally antisymmetric state of A B1 B2; the symmetric
    # S_2 block alone tops out at 3/4
    swap = np.eye(9)[[3 * (i % 3) + i // 3 for i in range(9)]]
    anti = hermitian((np.eye(9) - swap) / 2, (3, 3))
    res = hqext(anti, CUT, 2)
    assert abs(res.value - 1.0) <= 1e-12
    assert res.irrep == (1, 1) and res.block_side == 3 * 3


def test_hqext_witness_is_a_top_eigenvector_of_the_dense_twirl():
    da = db = 3
    q = 4
    m = random_contraction(da * db, stream(9, "witness"))
    res = hqext(hermitian(m, (da, db)), CUT, q)
    dense = _dense_twirled(m, da, db, q)
    v = res.witness()
    assert v.shape == (da * db**q,)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert np.linalg.norm(dense @ v - res.value * v) <= 1e-12
    assert abs(res.value - np.linalg.eigvalsh(dense)[-1]) <= 1e-12
    pieces = {shape: v.shape[2] for shape, _, v, _ in _irrep_blocks(db, q)}
    assert res.block_side == da * pieces[res.irrep]


def _hook_count(shape) -> int:
    """Number of standard tableaux of ``shape`` (hook-length formula)."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = math.prod(r - j + cols[j] - i - 1 for i, r in enumerate(shape) for j in range(r))
    return math.factorial(sum(shape)) // hooks


def _chain_bases(db: int, q: int) -> dict:
    """``{shape: basis}`` for the pieces of ``_irrep_blocks(db, q)``: each
    ``db^q x k`` basis is ``(P (x) 1) v`` for its parent's basis ``P``."""
    bases = {(): np.ones((1, 1), dtype=complex)}
    for level in range(1, q + 1):
        bases = {
            shape: (bases[parent] @ v.reshape(len(v), -1)).reshape(-1, v.shape[2])
            for shape, parent, v, _ in _irrep_blocks(db, level)
        }
    return bases


@given(db=st.integers(1, 3), q=st.integers(1, 4))
def test_irrep_blocks_are_jucys_murphy_eigenspaces(db, q):
    blocks = _irrep_blocks(db, q)
    bases = _chain_bases(db, q)
    parents = _chain_bases(db, q - 1)
    shapes = [shape for shape, _, _, _ in blocks]
    assert shapes == sorted(shapes, reverse=True) and len(set(shapes)) == len(shapes)
    assert all(sum(s) == q and len(s) <= db and list(s) == sorted(s, reverse=True) for s in shapes)
    assert sum(_hook_count(shape) * bases[shape].shape[1] for shape in shapes) == db**q
    # the piece widths add up to Littlewood's count, the level side
    assert sum(bases[shape].shape[1] for shape in shapes) == _level_side(db, q)
    # the next level carries a parent piece's generators basis^dag (sum_i |b><b'|_i) basis
    units = np.eye(db * db).reshape(db * db, db, db)
    dense = [sum(np.kron(np.kron(np.eye(db**i), e), np.eye(db ** (q - 1 - i))) for i in range(q)) for e in units]
    for _, shape, _, gram in _irrep_blocks(db, q + 1):
        basis = bases[shape]
        expected = np.stack([basis.conj().T @ op @ basis for op in dense]).reshape(db * db, -1)
        assert np.abs(gram - expected).max() <= 1e-12, shape
    for shape, pshape, v, gram in blocks:
        basis = bases[shape]
        k = basis.shape[1]
        assert basis.shape[0] == db**q
        assert np.abs(basis.conj().T @ basis - np.eye(k)).max() <= 1e-12
        t = basis.reshape((db,) * q + (k,))
        # X_j = sum_{i<j} swap(i, j) acts on the piece as the integer content
        # of the box holding j; those contents grow ``shape`` box by box
        rows = []
        for j in range(1, q):
            xj = sum(np.swapaxes(t, i, j) for i in range(j)).reshape(db**q, k)
            content = round(float(np.real(np.trace(basis.conj().T @ xj))) / k)
            assert np.abs(xj - content * basis).max() <= 1e-12, (shape, j)
            rows.append(content)
        grown = [1] + [0] * (q - 1)
        for content in rows:
            r = next(r for r, n in enumerate(grown) if n - r == content)
            assert r == 0 or grown[r - 1] > grown[r]
            grown[r] += 1
        assert tuple(n for n in grown if n) == shape
        # the piece is (P (x) 1) v for the parent piece P of one box fewer, and
        # gram[(b, b'), (j, l)] = sum_{i < q-1} sum_rest conj(P[b at i, rest; j]) P[b' at i, rest; l]
        parent = parents[pshape]
        kp = parent.shape[1]
        assert v.shape == (kp, db, k)
        assert np.abs((parent @ v.reshape(kp, -1)).reshape(-1, k) - basis).max() <= 1e-12
        assert sum(pshape) == q - 1 and all(a <= b for a, b in zip(pshape, shape))
        pt = parent.reshape((db,) * (q - 1) + (kp,))
        at_front = [np.moveaxis(pt, i, 0).reshape(db, -1, kp) for i in range(q - 1)]
        expected = sum((np.einsum("brk,crl->bckl", f.conj(), f) for f in at_front), np.zeros((db, db, kp, kp)))
        assert np.abs(gram - expected.reshape(db * db, kp * kp)).max() <= 1e-12


def test_hqext_singlet_at_the_cap_stays_small():
    # q = 12 was refused while hqext held da * db**q = 8192 to the cap; it
    # now builds no array with db**q rows, except the witness lift, which
    # keeps that cap
    _irrep_blocks.cache_clear()
    tracemalloc.start()
    try:
        res = hqext(SINGLET, CUT, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(res.value - 13 / 24) <= 1e-12
    assert peak < 32 * 2**20, peak
    with pytest.raises(ResourceCapError, match="q-extension witness side 8192"):
        res.witness()
    # the level side 2 * 2025 fits the default cap of 4096 at q = 88;
    # q = 89 (2 * 2070 = 4140) is refused before any level is built
    res = hqext(SINGLET, CUT, 88)
    assert abs(res.value - 89 / 176) <= 1e-12
    assert res.irrep == (88,) and res.block_side == 2 * 89
    _irrep_blocks.cache_clear()
    with pytest.raises(ResourceCapError, match="q-extension level side 4140"):
        hqext(SINGLET, CUT, 89)
    assert _irrep_blocks.cache_info().currsize == 0
    # a cold q = 88 builds levels 1..88; the cache keeps the most recent
    # while they hold at most IRREP_CACHE_BYTES (levels 73-88 held 136 MB)
    hqext(SINGLET, CUT, 88)
    info = _irrep_blocks.cache_info()
    assert 0 < info.bytes <= IRREP_CACHE_BYTES and info.currsize < 16, info
    # the benchmark's sweeps fit together and evict nothing
    _irrep_blocks.cache_clear()
    for db, q_max in ((2, 6), (3, 5)):
        for q in range(1, q_max + 1):
            _irrep_blocks(db, q)
    assert _irrep_blocks.cache_info().currsize == 13


def test_hqext_reaches_every_q_under_the_side_cap():
    # a 2 x 11 operator at q = 3 has level side 2 * 891 = 1782, under the
    # default cap, while its (2, 1) piece has 440 columns: no array of side
    # 11 * 440 is formed.  Both the interval's q sweep and the product-oracle
    # bound (q = 3, the largest q <= 4 with 2 * 11**q under the cap) reach it.
    s = np.zeros((2, 11))
    s[0, 1], s[1, 0] = SINGLET_VEC[1], SINGLET_VEC[2]
    embedded = hermitian(np.outer(s.reshape(-1), s.reshape(-1)), (2, 11))
    iv = hsep_certified_interval(embedded, CUT)
    assert abs(iv.per_q_upper[3] - 2 / 3) <= 1e-12 and abs(iv.lower - 0.5) <= 1e-9
    assert abs(_product_lmo_upper(embedded.matrix, 2, 11) - 2 / 3) <= 1e-12


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


def test_certified_interval_rejects_empty_q_range():
    for q_max in (0, -1):
        with pytest.raises(ValueError, match="q_max must be >= 1"):
            hsep_certified_interval(SINGLET, CUT, q_max=q_max, restarts=2)


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


def golden_max(f, lo=0.0, hi=1.0, tol=1e-10):
    """The golden-section search the stacked line search replaced, kept as
    a reference."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    candidates = [(f(lo), lo), (fc, c), (fd, d), (f(hi), hi)]
    best = max(candidates, key=lambda p: p[0])
    return best[1], best[0]


def full_rank_state(rng, dim, rank):
    """A random rank-``rank`` state mixed with ``I/dim``.  On a rank-deficient
    product ``sqrt(rho) sigma sqrt(rho)`` rounding in the zero eigenvalues
    passes through the square root (about 1e-8) in any evaluation order, so
    only full-rank segments can agree to 1e-12."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    w = g @ g.conj().T
    return 0.9 * w / np.trace(w).real + 0.1 * np.eye(dim) / dim


@given(
    dim=st.integers(1, 6),
    ranks=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    peak=st.sampled_from(["interior", "at 0", "at 1"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_line_max_matches_golden_section_on_fidelity_segments(dim, ranks, peak, seed):
    rng = np.random.default_rng(seed)
    rho, sigma, atom = (full_rank_state(rng, dim, min(r, dim)) for r in ranks)
    # F(rho, .) peaks at rho itself, so a segment ending there peaks at that end
    if peak == "at 0":
        sigma = rho
    elif peak == "at 1":
        atom = rho
    root = _sqrtm_psd(rho)
    _, ref = golden_max(lambda t: fidelity_from_root(root, (1.0 - t) * sigma + t * atom))
    x0, x1 = (root @ x @ root for x in (sigma, atom))
    t, value = _line_max((x0 + x0.conj().T) / 2.0, (x1 + x1.conj().T) / 2.0)
    assert 0.0 <= t <= 1.0
    assert abs(value - ref) <= 1e-12
    assert abs(value - fidelity(rho, (1.0 - t) * sigma + t * atom)) <= 1e-12
    if peak != "interior":
        assert abs(value - 1.0) <= 1e-12


@given(
    k=st.integers(1, 40),
    peak=st.sampled_from(["interior", "at 0", "at 1"]),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_line_max_matches_golden_section_on_classical_segments(k, peak, zeros, seed):
    rng = np.random.default_rng(seed)
    p, q0, q1 = rng.random((3, k))
    if zeros:
        # outcomes of probability zero, as the measured bound's clipping makes
        for v in (p, q0, q1):
            v[rng.random(k) < 0.3] = 0.0
    if peak == "at 0":
        q0 = p
    elif peak == "at 1":
        q1 = p
    p, q0, q1 = (v / max(v.sum(), 1e-300) for v in (p, q0, q1))
    _, ref = golden_max(lambda t: float(np.sqrt(p * ((1.0 - t) * q0 + t * q1)).sum()))
    t, value = _line_max(p * q0, p * q1)
    assert abs(value - ref) <= 1e-12
    assert abs(value - float(np.sqrt(p * ((1.0 - t) * q0 + t * q1)).sum())) <= 1e-12


@given(
    dim=st.integers(2, 6),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_line_max_on_a_pure_atom(dim, rank, seed):
    # sqrt(rho) |ab><ab| sqrt(rho) has rank 1, so F'(1) = -inf, while the
    # clipped spectrum at t = 1 reads a finite slope: the top is never at 1
    rng = np.random.default_rng(seed)
    rho, sigma = (full_rank_state(rng, dim, min(rank, dim)) for _ in range(2))
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    atom = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
    root = _sqrtm_psd(rho)
    _, ref = golden_max(lambda t: fidelity_from_root(root, (1.0 - t) * sigma + t * atom))
    x0, x1 = (root @ x @ root for x in (sigma, atom))
    t, value = _line_max((x0 + x0.conj().T) / 2.0, (x1 + x1.conj().T) / 2.0)
    assert 0.0 <= t < 1.0
    assert abs(value - fidelity(rho, (1.0 - t) * sigma + t * atom)) <= 1e-12
    assert value >= ref - 1e-12


def test_line_max_eigensolver_calls(monkeypatch):
    # one stacked eigvalsh for both ends, then one eigh per Newton step; a
    # segment that peaks at an end stops after the first step and two probes
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(30)
    steps = []
    for i in range(60):
        rho, sigma, atom = (full_rank_state(rng, 4, 2) for _ in range(3))
        sigma = rho if i % 3 == 1 else sigma
        atom = rho if i % 3 == 2 else atom
        root = _sqrtm_psd(rho)
        x0, x1 = (root @ x @ root for x in (sigma, atom))
        calls.update(eigh=0, eigvalsh=0)
        _line_max((x0 + x0.conj().T) / 2.0, (x1 + x1.conj().T) / 2.0)
        assert calls["eigvalsh"] == 1
        assert calls["eigh"] <= (12 if i % 3 == 0 else 4), (i, calls)
        steps.append(calls["eigh"])
    # the 16-point grid made 12 stacked eigvalsh calls, with 16 points each
    assert np.mean(steps) <= 6.0


def test_max_fidelity_eigensolver_call_count(monkeypatch):
    # a count, not a timing: one eigh for each gradient, and per line search
    # one stacked eigvalsh and one eigh per Newton step; the 2x2 seesaw
    # runs none.  262 calls with the 16-point grid line search; 137 here.
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rho = induced_mixed_state((2, 2), 16)
    res = max_fidelity_to_sep(rho, CUT, iters=20, restarts=4, seed=1)
    assert res.iterations == 20
    assert len(calls) <= 200


def test_hs_distance_separable_input():
    mix = density(np.eye(4) / 4, (2, 2))
    res = hs_distance_to_sep(mix, CUT, iters=30, seed=4)
    assert res.value <= 1e-6
    # I/4 is the starting mixture, so the first oracle call finds no gain
    assert res.converged and res.iterations == 1


@pytest.mark.parametrize("diagonal", [(1.0, 0.0, 0.0, 0.0), (0.7, 0.1, 0.1, 0.1)])
def test_hs_distance_product_diagonal_input(diagonal):
    # separable, and the first seesaw atom is a computational-basis product
    # that the uniform start mixture already contains
    res = hs_distance_to_sep(density(np.diag(diagonal), (2, 2)), CUT, seed=0)
    assert res.value <= 1e-9
    assert res.converged


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


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_hs_distance_werner_closed_form_under_local_unitaries(p):
    # twirling by U (x) U keeps the separable set and shortens 2-norm
    # distances, so the closest separable state to the Werner state
    # p * singlet + (1-p) I/4 is the one at p = 1/3, at distance
    # (p - 1/3) ||singlet - I/4||_2 = (p - 1/3) sqrt(3) / 2.  Local unitaries
    # keep that distance and turn the oracle's landscape away from the
    # product basis that Gilbert starts from
    rng = np.random.default_rng(17)
    werner = p * SINGLET.matrix + (1 - p) * np.eye(4) / 4
    for _ in range(3):
        q = np.linalg.qr(rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))[0]
        u = np.kron(q[0], q[1])
        res = hs_distance_to_sep(density(u @ werner @ u.conj().T, (2, 2)), CUT)
        assert res.converged
        assert abs(res.value - (p - 1.0 / 3.0) * math.sqrt(3) / 2) <= 1e-12


def test_hs_distance_qubit_pair_oracle_is_seedless():
    # on a qubit pair the oracle searches B's whole Bloch sphere and draws no start
    a = hs_distance_to_sep(SINGLET_DM, CUT, seed=0, restarts=8)
    b = hs_distance_to_sep(SINGLET_DM, CUT, seed=5, restarts=1)
    assert a.value == b.value and a.iterations == b.iterations
    assert all(np.array_equal(x, y) for p, q in zip(a.atoms, b.atoms) for x, y in zip(p, q))


def test_hs_distance_seesaw_oracle_off_qubit_pairs():
    # a 2x3 cut keeps the seesaw oracle: a pure product is its first atom
    v = np.kron([0.6, 0.8j], np.array([1.0, 1j, -1.0]) / math.sqrt(3))
    res = hs_distance_to_sep(density(np.outer(v, v.conj()), (2, 3)), CUT, seed=1, restarts=4)
    assert res.converged and res.value <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), flat=st.sampled_from([0.0, 1e-3, 1e-7]))
def test_bloch_product_max_is_global(seed, flat):
    # no point of a dense grid on B's Bloch sphere, nor a 16-start seesaw,
    # beats the search; "flat" adds the singlet, whose product maximum is a
    # whole sphere of antiparallel pairs, so the seesaw barely climbs there
    h = random_hermitian(4, np.random.default_rng(seed))
    m = SINGLET.matrix + flat * h if flat else h
    a, b = _bloch_product_max(m)
    for vec in (a, b):
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert np.argmax(np.abs(vec)) == np.argmax(vec.real) and abs(vec.imag[np.argmax(vec.real)]) <= 1e-15
    v = np.kron(a, b)
    value = float(np.real(np.vdot(v, m @ v)))
    theta, phi = np.meshgrid(np.linspace(0.0, math.pi, 90), np.linspace(0.0, 2 * math.pi, 180), indexing="ij")
    grid = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], -1).reshape(-1, 2)
    # <b|M|b> on A for every grid point b; its top eigenvalue is the best over a
    local = np.einsum("aibj,ri,rj->rab", m.reshape(2, 2, 2, 2), grid.conj(), grid)
    assert np.linalg.eigvalsh(local)[:, -1].max() <= value + 1e-14
    assert _seesaw_product_max(m, 2, 2, 16, 200, seed % 1000).value <= value + 1e-14


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


@given(
    k=st.integers(2, 20),
    dim=st.integers(1, 16),
    complex_points=st.booleans(),
    shape=st.sampled_from(["generic", "duplicates", "affine", "inside"]),
    start_kind=st.sampled_from(["prefix optimum", "uniform prefix", "simplex point"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_min_norm_weights_warm_start_matches_cold(k, dim, complex_points, shape, start_kind, seed, data):
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
        c = rng.random(k)
        pts = pts - (c / c.sum()) @ pts
    m = data.draw(st.integers(1, len(pts) - 1))
    start = np.zeros(len(pts))
    if start_kind == "prefix optimum":
        # the solution on a prefix of the rows, as Gilbert's later rounds
        # start when they append an atom
        start[:m] = _min_norm_weights(pts[:m])
    elif start_kind == "uniform prefix":
        # the uniform mixture Gilbert's first round starts from
        start[:m] = 1.0 / m
    else:
        # any simplex point, zero weights included
        start = rng.random(len(pts)) * (rng.random(len(pts)) < 0.5)
        start[m] = 1.0
        start /= start.sum()
    warm = _min_norm_weights(pts, start)
    cold = _min_norm_weights(pts)
    assert (warm >= 0).all() and abs(warm.sum() - 1.0) <= 1e-12
    assert abs(np.linalg.norm(warm @ pts) - np.linalg.norm(cold @ pts)) <= 1e-12


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


def test_product_povm_matches_kron_double_loop():
    rng = stream(9, "product-povm")
    # a qutrit POVM from a random unitary's columns, scaled by 1/2 and mixed
    # with the computational basis
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    trit = Povm(
        tuple(np.outer(u[:, i], u[:, i].conj()) / 2.0 for i in range(3))
        + tuple(np.diag(np.eye(3)[i]) / 2.0 for i in range(3)),
        labels=("u0", "u1", "u2", "e0", "e1", "e2"),
    )
    pauli = pauli_tomography_povm()
    for pa, pb in ((pauli, trit), (trit, pauli), (pauli, pauli)):
        elements, labels = [], []
        for la, ea in zip(pa.labels, pa.elements):
            for lb, eb in zip(pb.labels, pb.elements):
                elements.append(np.kron(ea, eb))
                labels.append((la, lb))
        joint = product_povm(pa, pb)
        assert joint.labels == tuple(labels)
        assert len(joint.elements) == len(elements)
        for got, ref in zip(joint.elements, elements):
            assert np.array_equal(got, ref)


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
