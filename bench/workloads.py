"""The three benchmark workloads: their inputs, operations and oracles.

An operation is one user-level request: one suite call, or one library call
together with its certificate recheck.  Each op kind has three parts:

* ``prepare(rng, lib)`` builds the op's inputs from a named bench stream
  during set-up;
* ``call(lib, inp)`` is the timed request;
* ``check(inp, result)`` is the oracle.  It runs after the timer stops,
  uses plain numpy and closed forms only, raises :class:`OracleError` on a
  wrong result and returns a tuple of the values that identify the result
  (the self-test compares these between traced and untraced runs).

Oracles never compare report bytes, ``gap`` values or iteration counts, and
never count the hard-coded ``pass=True`` of ``hsep``/``qext`` records.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math

import numpy as np

SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
TOL = 1e-9


class OracleError(AssertionError):
    """An operation returned a result that fails its correctness oracle."""


def expect(cond, what: str) -> None:
    if not cond:
        raise OracleError(what)


def stream(seed: int, *labels) -> np.random.Generator:
    """Named input stream; the same construction as ``definetti.operators.stream``.

    Kept here so that benchmark inputs do not move when the program's own
    stream helper changes.
    """
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
        words.append(int.from_bytes(digest[:8], "little"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# independent numpy helpers used by input generation and oracles


def symmetric_vector(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Gaussian vector averaged over all factor permutations, normalized."""
    g = rng.standard_normal((d,) * n) + 1j * rng.standard_normal((d,) * n)
    acc = np.zeros_like(g)
    for perm in itertools.permutations(range(n)):
        acc += g.transpose(perm)
    acc = acc.reshape(-1)
    return acc / np.linalg.norm(acc)


def contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix with spectrum rescaled onto [0, 1]."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    w = (w - w[0]) / (w[-1] - w[0])
    return (v * w) @ v.conj().T


def induced_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Hilbert-Schmidt random density matrix (partial trace of a pure state)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@functools.lru_cache(maxsize=None)
def sym_projector_ref(m: int, d: int) -> np.ndarray:
    """Symmetric projector on ``m`` copies of ``C^d`` by explicit group average."""
    side = d**m
    eye = np.eye(side, dtype=complex).reshape((d,) * m + (side,))
    acc = np.zeros_like(eye)
    for perm in itertools.permutations(range(m)):
        acc += eye.transpose(perm + (m,))
    return acc.reshape(side, side) / math.factorial(m)


def moment_ref(theta: np.ndarray, n: int, d: int) -> np.ndarray:
    """Exact constrained moment ``int |<theta|psi^n>|^2 psi^n`` by its definition."""
    dn = d**n
    p4 = sym_projector_ref(2 * n, d).reshape(dn, dn, dn, dn)
    out = np.tensordot(theta.conj(), np.tensordot(theta, p4, axes=(0, 2)), axes=(0, 0))
    return out / math.comb(2 * n + d - 1, 2 * n)


def all_pass(records, what: str) -> None:
    for r in records:
        expect(r["pass"] is True, f"{what}: record {r['anchor']} did not pass")


# ---------------------------------------------------------------------------
# exact: dense large-side reductions, classical and truncated checks, hqext


class PureSuite:
    """``suites.definetti_suite`` for one ``(n, d)`` batch of seeds."""

    def __init__(self, n: int, d: int, seeds: int):
        self.n, self.d, self.seeds = n, d, seeds
        self.kind = f"pure_suite_{n}_{d}"

    def prepare(self, rng, lib):
        return {"seed": sub_seed(rng)}

    def call(self, lib, inp):
        return lib.suites.definetti_suite(self.n, self.d, seeds=self.seeds, seed=inp["seed"])

    def check(self, inp, records):
        expect(len(records) == self.seeds, "wrong record count")
        all_pass(records, self.kind)
        prefactor = math.comb(self.n + self.d - 1, self.n) ** 3
        for r in records:
            expect(r["bound"] == prefactor, "prefactor differs from binom(n+d-1, n)^3")
        return tuple(float(r["gap"]) for r in records)


class PureDirect:
    """``reductions.check_pure_reduction`` on one bench-made symmetric vector."""

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.kind = f"pure_direct_{n}_{d}"

    def prepare(self, rng, lib):
        return {"theta": symmetric_vector(rng, self.n, self.d)}

    def call(self, lib, inp):
        return lib.reductions.check_pure_reduction(inp["theta"], self.n, self.d)

    def check(self, inp, res):
        rank = math.comb(self.n + self.d - 1, self.n)
        expect(res.passed, f"{self.kind}: reduction check failed")
        expect(res.prefactor == rank**3, "prefactor differs from binom(n+d-1, n)^3")
        moment_trace = np.trace(res.rhs.matrix).real / res.prefactor
        expect(abs(moment_trace - 1.0 / rank) <= TOL, "tr constrained_moment != 1/binom(n+d-1, n)")
        theta = inp["theta"]
        expect(np.abs(res.lhs.matrix - np.outer(theta, theta.conj())).max() <= 1e-12, "lhs is not |theta><theta|")
        return (float(res.gap_min_eig), float(moment_trace))


class MixedSuite:
    """``suites.definetti_suite(..., mixed=True)`` for one seed."""

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.kind = f"mixed_suite_{n}_{d}"

    def prepare(self, rng, lib):
        return {"seed": sub_seed(rng)}

    def call(self, lib, inp):
        return lib.suites.definetti_suite(self.n, self.d, seeds=1, seed=inp["seed"], mixed=True)

    def check(self, inp, records):
        expect(len(records) == 1, "wrong record count")
        all_pass(records, self.kind)
        r = records[0]
        expect(r["bound"] == math.comb(self.n + self.d**2 - 1, self.n) ** 3, "mixed prefactor is wrong")
        expect(r["params"]["fidelity_domination_min_margin"] >= -TOL, "fidelity domination violated")
        return (float(r["gap"]), float(r["params"]["fidelity_domination_min_margin"]))


class ClassicalSuite:
    """``suites.classical_suite`` (three canonical symmetric distributions)."""

    kind = "classical_suite_2_3"
    d, n = 2, 3

    def prepare(self, rng, lib):
        return {"seed": sub_seed(rng)}

    def call(self, lib, inp):
        return lib.suites.classical_suite(d=self.d, n=self.n, seed=inp["seed"])

    def check(self, inp, records):
        expect(len(records) == 3, "wrong record count")
        all_pass(records, self.kind)
        for r in records:
            expect(r["params"]["prefactor"] == math.comb(self.n + self.d**2 - 1, self.n) ** 3, "prefactor")
            expect(r["bound"] == (self.n + 1) ** (3 * self.d**2), "printed prefactor")
        return tuple(float(r["gap"]) for r in records)


class TruncatedSuite:
    """``suites.truncated_suite`` over the default and one larger config."""

    kind = "truncated_suite"
    configs = ((2, 3, 1, 1), (2, 3, 2, 1), (2, 3, 2, 2))

    def __init__(self, seeds: int):
        self.seeds = seeds

    def prepare(self, rng, lib):
        return {"seed": sub_seed(rng)}

    def call(self, lib, inp):
        return lib.suites.truncated_suite(configs=self.configs, seeds=self.seeds, seed=inp["seed"])

    def check(self, inp, records):
        expect(len(records) == len(self.configs) * self.seeds, "wrong record count")
        all_pass(records, self.kind)
        for r in records:
            p = r["params"]
            n, k, d = p["n"], p["k"], p["d"]
            expect(r["bound"] == sum(math.comb(n + k, q) for q in range(k + 1)) * math.comb(n + d - 1, n) ** 3,
                   "truncated prefactor is wrong")
        return tuple(float(r["gap"]) for r in records)


class HqextSweep:
    """``separability.hqext`` for ``q = 1..q_max`` on one operator."""

    def __init__(self, kind: str, d: int, q_max: int, singlet: bool = False):
        self.kind, self.d, self.q_max, self.singlet = kind, d, q_max, singlet

    def prepare(self, rng, lib):
        if self.singlet:
            m = np.outer(SINGLET_VEC, SINGLET_VEC).astype(complex)
        else:
            m = contraction(rng, self.d * self.d)
        return {"m": m, "op": lib.operators.hermitian(m, (self.d, self.d))}

    def call(self, lib, inp):
        cut = lib.separability.BipartiteCut((0,), (1,))
        return [lib.separability.hqext(inp["op"], cut, q).value for q in range(1, self.q_max + 1)]

    def check(self, inp, values):
        if self.singlet:
            for q, v in enumerate(values, start=1):
                expect(abs(v - (q + 1) / (2 * q)) <= TOL, f"hqext(singlet, {q}) != (q+1)/(2q)")
        else:
            top = np.linalg.eigvalsh(inp["m"])[-1]
            expect(abs(values[0] - top) <= TOL, "hqext at q=1 is not the top eigenvalue")
            for a, b in zip(values, values[1:]):
                expect(b <= a + TOL, "hqext increased with q")
        return tuple(float(v) for v in values)


# ---------------------------------------------------------------------------
# seesaw: seesaw, Frank-Wolfe and Gilbert optimizers with certificate rechecks


def _recheck(lib, kind, op, cut, result):
    cert = lib.separability.certificate_to_json(kind, op, cut, result)
    return lib.separability.recheck_certificate(cert)


def _check_recheck(recheck, value):
    claimed, recomputed, ok = recheck
    expect(ok, "certificate failed its recheck")
    expect(claimed == value, "certificate claims another value than the result")
    return float(recomputed)


class HsepCertified:
    """``hsep_seesaw`` plus certificate recheck on a contraction, a tensor
    power of one, or a threshold operator built from one."""

    def __init__(self, kind: str, d: int, copies: int = 1, threshold: bool = False, restarts: int = 8):
        self.kind, self.d, self.copies, self.threshold, self.restarts = kind, d, copies, threshold, restarts

    def prepare(self, rng, lib):
        ops = lib.operators
        base = ops.hermitian(contraction(rng, self.d * self.d), (self.d, self.d))
        if self.threshold:
            t = int(rng.integers(1, self.copies + 1))
            op = lib.repetition.threshold_operator(base, self.copies, t).op
        else:
            op = ops.tensor_power(base, self.copies)
        cut = lib.separability.BipartiteCut((0,), (1,)).power(self.copies, 2)
        return {"op": op, "cut": cut, "seed": sub_seed(rng), "top": np.linalg.eigvalsh(op.matrix)[-1]}

    def call(self, lib, inp):
        res = lib.separability.hsep_seesaw(inp["op"], inp["cut"], restarts=self.restarts, seed=inp["seed"])
        return res, _recheck(lib, "hsep_seesaw", inp["op"], inp["cut"], res)

    def check(self, inp, out):
        res, recheck = out
        expect(-TOL <= res.value <= inp["top"] + TOL, "seesaw value outside [0, lambda_max]")
        return (float(res.value), _check_recheck(recheck, res.value))


class CertifiedInterval:
    """``hsep_certified_interval``: seesaw lower end, q-extendible upper end."""

    kind = "hsep_interval"

    def __init__(self, d: int, q_max: int, restarts: int = 8):
        self.d, self.q_max, self.restarts = d, q_max, restarts

    def prepare(self, rng, lib):
        m = contraction(rng, self.d * self.d)
        return {"m": m, "op": lib.operators.hermitian(m, (self.d, self.d)), "seed": sub_seed(rng)}

    def call(self, lib, inp):
        cut = lib.separability.BipartiteCut((0,), (1,))
        return lib.separability.hsep_certified_interval(
            inp["op"], cut, q_max=self.q_max, restarts=self.restarts, seed=inp["seed"]
        )

    def check(self, inp, res):
        expect(res.lower <= res.upper + TOL, "seesaw value above the hqext upper end")
        expect(res.upper == min(res.per_q_upper.values()), "upper end is not the smallest hqext value")
        expect(abs(res.per_q_upper[1] - np.linalg.eigvalsh(inp["m"])[-1]) <= TOL, "hqext(q=1) != lambda_max")
        return (float(res.lower), float(res.upper))


class FidelityToSep:
    """Frank-Wolfe ``max_fidelity_to_sep`` plus its mixture certificate recheck.

    On the singlet the squared fidelity to the separable set is exactly 1/2.
    The singlet runs with the program's default optimizer seed, 0.
    """

    def __init__(self, kind: str, iters: int, restarts: int, singlet: bool = False):
        self.kind, self.iters, self.restarts, self.singlet = kind, iters, restarts, singlet

    def prepare(self, rng, lib):
        if self.singlet:
            return {"rho": lib.operators.density(np.outer(SINGLET_VEC, SINGLET_VEC), (2, 2)), "seed": 0}
        return {"rho": lib.operators.density(induced_state(rng, 4), (2, 2)), "seed": sub_seed(rng)}

    def call(self, lib, inp):
        sep = lib.separability
        cut = sep.BipartiteCut((0,), (1,))
        res = sep.max_fidelity_to_sep(inp["rho"], cut, iters=self.iters, seed=inp["seed"], restarts=self.restarts)
        return res, _recheck(lib, "fidelity_mixture", inp["rho"].op, cut, res)

    def check(self, inp, out):
        res, recheck = out
        expect(0.0 < res.value <= 1.0 + TOL, "fidelity outside (0, 1]")
        expect(abs(res.weights.sum() - 1.0) <= TOL and (res.weights >= 0).all(), "mixture weights")
        if self.singlet:
            expect(abs(res.value**2 - 0.5) <= 1e-6, "singlet fidelity to the separable set is not 1/sqrt(2)")
        return (float(res.value), _check_recheck(recheck, res.value))


class DistanceToSep:
    """Gilbert ``hs_distance_to_sep`` plus its mixture certificate recheck.

    On the singlet the distance has the closed form ``1/sqrt(3)``, so the
    returned upper bound must not exceed it by more than ``1e-6``.  The
    singlet runs with the program's default optimizer seed, 0, so its cost
    (about a second) is the same in every run.
    """

    def __init__(self, kind: str, iters: int, restarts: int, singlet: bool = False):
        self.kind, self.iters, self.restarts, self.singlet = kind, iters, restarts, singlet

    def prepare(self, rng, lib):
        if self.singlet:
            return {"rho": lib.operators.density(np.outer(SINGLET_VEC, SINGLET_VEC), (2, 2)), "seed": 0}
        return {"rho": lib.operators.density(induced_state(rng, 4), (2, 2)), "seed": sub_seed(rng)}

    def call(self, lib, inp):
        sep = lib.separability
        cut = sep.BipartiteCut((0,), (1,))
        res = sep.hs_distance_to_sep(inp["rho"], cut, iters=self.iters, seed=inp["seed"], restarts=self.restarts)
        return res, _recheck(lib, "hs_distance", inp["rho"].op, cut, res)

    def check(self, inp, out):
        res, recheck = out
        expect(res.value >= 0.0, "negative distance")
        if self.singlet:
            expect(res.value <= 1.0 / math.sqrt(3.0) + 1e-6, "singlet distance above 1/sqrt(3)")
        return (float(res.value), _check_recheck(recheck, res.value))


class MeasuredUpper:
    """``measured_fidelity_to_sep_upper`` with the Pauli tomography POVM."""

    kind = "measured_fidelity_upper"

    def __init__(self, iters: int, restarts: int):
        self.iters, self.restarts = iters, restarts

    def prepare(self, rng, lib):
        return {"rho": lib.operators.density(induced_state(rng, 4), (2, 2)), "seed": sub_seed(rng)}

    def call(self, lib, inp):
        sep = lib.separability
        pauli = sep.pauli_tomography_povm()
        return sep.measured_fidelity_to_sep_upper(
            inp["rho"], sep.BipartiteCut((0,), (1,)), pauli, pauli,
            iters=self.iters, seed=inp["seed"], restarts=self.restarts,
        )

    def check(self, inp, res):
        expect(0.0 <= res.lower <= res.upper + TOL, "measured lower end above the upper end")
        expect(res.upper <= 1.0 + TOL, "measured upper bound above 1")
        return (float(res.upper), float(res.lower))


# ---------------------------------------------------------------------------
# sampled: many small objects, per-sample streams


class MixedSampled:
    """``check_mixed_reduction`` at ``n=2, d=2`` with 100 Haar fidelity samples."""

    kind = "mixed_reduction_2_2"

    def prepare(self, rng, lib):
        return {"seed": sub_seed(rng)}

    def call(self, lib, inp):
        return lib.reductions.check_mixed_reduction(2, 2, seed=inp["seed"], samples=100)

    def check(self, inp, res):
        expect(res.passed, "mixed reduction failed")
        expect(res.prefactor == math.comb(2 + 4 - 1, 2) ** 3, "mixed prefactor is wrong")
        return (float(res.gap_min_eig), float(res.extras["fidelity_domination_min_margin"]))


class MonteCarloMoment:
    """``monte_carlo_constrained_moment`` against the exact moment (5 sigma)."""

    kind = "monte_carlo_moment"

    def __init__(self, n: int, d: int, samples: int):
        self.n, self.d, self.samples = n, d, samples

    def prepare(self, rng, lib):
        theta = symmetric_vector(rng, self.n, self.d)
        return {"theta": theta, "exact": moment_ref(theta, self.n, self.d), "seed": sub_seed(rng)}

    def call(self, lib, inp):
        return lib.reductions.monte_carlo_constrained_moment(
            inp["theta"], self.n, self.d, samples=self.samples, seed=inp["seed"]
        )

    def check(self, inp, out):
        mean, stderr = out
        expect((np.abs(mean - inp["exact"]) <= 5 * stderr + 1e-12).all(), "Monte-Carlo moment outside 5 sigma")
        return (float(np.trace(mean).real), float(stderr.max()))


class FixedPoint:
    """``check_fixed_point_reduction`` for a dephasing channel on a diagonal
    symmetric two-copy state."""

    kind = "fixed_point"

    def prepare(self, rng, lib):
        ops = lib.operators
        p = rng.dirichlet([1.0, 1.0])
        rho = ops.density(np.diag(np.kron(p, p)).astype(complex), (2, 2))
        return {"rho": rho, "ch": ops.qc_dephasing_channel(2), "seed": sub_seed(rng)}

    def call(self, lib, inp):
        return lib.reductions.check_fixed_point_reduction(inp["rho"], inp["ch"], samples=100, seed=inp["seed"])

    def check(self, inp, res):
        expect(res.passed and res.min_margin >= -TOL, "fixed-point monotonicity violated")
        return (float(res.min_margin),)


class IntegrandDomination:
    """``check_integrand_domination`` for the completely depolarizing channel.

    Every sample maps to the maximally mixed target, so all sample mass lies
    inside the fidelity neighbourhood.
    """

    kind = "integrand_domination"

    def prepare(self, rng, lib):
        ops = lib.operators
        sigma = induced_state(rng, 2)
        return {
            "rho": ops.density(np.kron(sigma, sigma), (2, 2)),
            "tau0": ops.density(np.eye(2) / 2.0, (2,)),
            "ch": ops.completely_depolarizing_channel(2),
            "seed": sub_seed(rng),
        }

    def call(self, lib, inp):
        return lib.reductions.check_integrand_domination(
            inp["rho"], inp["ch"], inp["tau0"], samples=100, delta=0.2, seed=inp["seed"]
        )

    def check(self, inp, res):
        expect(res.passed, "integrand domination violated")
        expect(res.extras["mass_in_kdelta"] == 1.0, "depolarized samples left the neighbourhood")
        return (float(res.min_margin),)


class Conditioning:
    """``suites.conditioning_suite`` with one selection rule."""

    def __init__(self, selection: str, instances: int):
        self.selection, self.instances = selection, instances
        self.kind = f"conditioning_{selection}"

    def prepare(self, rng, lib):
        return {"seed": sub_seed(rng)}

    def call(self, lib, inp):
        return lib.suites.conditioning_suite(
            n=2, q=2, instances=self.instances, selection=self.selection, seed=inp["seed"]
        )

    def check(self, inp, out):
        records, _ = out
        expect(len(records) == self.instances, "wrong record count")
        all_pass(records, self.kind)
        for r in records:
            expect(r["value"] <= r["bound"] + r["tolerance"], "final pass probability above its bound")
        return tuple(float(r["value"]) for r in records)


class Pinching:
    """``suites.pinching_suite`` over a batch of random instances."""

    kind = "pinching_suite"

    def __init__(self, seeds: int):
        self.seeds = seeds

    def prepare(self, rng, lib):
        return {"seed": sub_seed(rng)}

    def call(self, lib, inp):
        return lib.suites.pinching_suite(seeds=self.seeds, seed=inp["seed"])

    def check(self, inp, records):
        expect(len(records) == self.seeds, "wrong record count")
        all_pass(records, self.kind)
        return tuple(float(r["gap"]) for r in records)


# ---------------------------------------------------------------------------
# workload definitions


class Workload:
    """A fixed cycle of op kinds, repeated; op ``i`` has kind ``cycle[i % len]``.

    ``pool_cycles`` cycles of inputs are generated during set-up; op ``i``
    uses input ``i % pool``.  ``cycle_seconds`` sizes the fixed-length
    (traced) pass, which runs ``round(seconds / cycle_seconds)`` whole
    cycles, so its op count depends on ``--seconds`` alone.
    """

    def __init__(self, name: str, cycle, pool_cycles: int, cycle_seconds: float):
        self.name, self.cycle = name, tuple(cycle)
        self.pool_cycles, self.cycle_seconds = pool_cycles, cycle_seconds

    @property
    def pool_size(self) -> int:
        return self.pool_cycles * len(self.cycle)

    def kind_of(self, i: int):
        return self.cycle[i % len(self.cycle)]

    def prepare(self, seed: int, lib) -> list:
        return [self.kind_of(i).prepare(stream(seed, "bench", self.name, i), lib) for i in range(self.pool_size)]

    def fixed_ops(self, seconds: float) -> int:
        """Op count of a fixed-length pass of about ``seconds`` (whole cycles)."""
        return len(self.cycle) * max(1, round(seconds / self.cycle_seconds))


# Each cycle is laid out so that the median and the 90th percentile of op
# times fall inside a group of ops of similar cost, not on a gap between two
# groups, where a small shift would move the percentile from one to the other.


def _exact():
    # 17 light suite batches of about 20 ms, 5 medium ops, and 4 heavy ones of
    # about a second (the side-4096 reductions, whose projector the LRU cache
    # has evicted by the next cycle, and two qutrit hqext sweeps)
    light = [
        PureSuite(2, 2, 28),
        PureSuite(3, 2, 24),
        PureSuite(4, 2, 14),
        PureSuite(2, 3, 28),
        PureSuite(2, 4, 16),
        PureSuite(3, 3, 4),
        TruncatedSuite(2),
    ]
    cycle = [
        light[0], PureDirect(6, 2), light[1], HqextSweep("hqext_singlet_q6", 2, 6, singlet=True),
        light[2], light[6], light[3], PureDirect(3, 4), MixedSuite(3, 2), ClassicalSuite(),
        light[4], HqextSweep("hqext_qubit_q6", 2, 6), light[5], PureDirect(5, 2), light[0],
        HqextSweep("hqext_qutrit_q5", 3, 5), light[6], light[1], light[3], light[2],
        light[5], light[4], HqextSweep("hqext_qutrit_q5", 3, 5), light[0], light[6], light[1],
    ]
    return Workload("exact", cycle, pool_cycles=6, cycle_seconds=6.0)


def _seesaw():
    # 36 seesaw ops of 20-60 ms and a light singlet fidelity op, then 20
    # Frank-Wolfe and Gilbert ops of 60-100 ms, then one Gilbert op on the
    # singlet of about a second
    block = [
        HsepCertified("hsep_qubits", 2),
        HsepCertified("hsep_power2", 2, copies=2),
        CertifiedInterval(2, q_max=3),
        HsepCertified("hsep_power3", 2, copies=3),
        FidelityToSep("max_fidelity_to_sep", iters=4, restarts=4),
        HsepCertified("hsep_threshold3", 2, copies=3, threshold=True),
        MeasuredUpper(iters=6, restarts=4),
        HsepCertified("hsep_qutrits", 3),
        HsepCertified("hsep_qubits", 2),
        FidelityToSep("max_fidelity_to_sep", iters=4, restarts=4),
        CertifiedInterval(3, q_max=2),
        MeasuredUpper(iters=6, restarts=4),
        HsepCertified("hsep_power2", 2, copies=2),
        DistanceToSep("hs_distance", iters=2, restarts=4),
    ]
    cycle = block * 4 + [
        FidelityToSep("max_fidelity_singlet", iters=200, restarts=8, singlet=True),
        DistanceToSep("hs_distance_singlet", iters=200, restarts=4, singlet=True),
    ]
    return Workload("seesaw", cycle, pool_cycles=8, cycle_seconds=4.0)


def _sampled():
    # 4 light suite calls, 8 mixed reductions of about 45 ms, 2 channel checks
    # of about 90 ms and 6 Monte-Carlo moments of about 150 ms
    mixed = MixedSampled()
    mc = MonteCarloMoment(2, 2, 1500)
    cycle = [
        mc, mixed, Conditioning("greedy_min_mi", 4), mixed, MonteCarloMoment(3, 2, 1000), mixed,
        FixedPoint(), mixed, mc, Pinching(50), mixed, mc, mixed, IntegrandDomination(),
        Conditioning("uniform_random", 4), mc, mixed, Pinching(50), mixed, mc,
    ]
    return Workload("sampled", cycle, pool_cycles=24, cycle_seconds=1.6)


WORKLOADS = {w.name: w for w in (_exact(), _seesaw(), _sampled())}
