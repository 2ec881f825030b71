"""Parallel-repetition bounds and the measurement-conditioning recursion.

Shows the two threshold-operator variants, evaluates the printed decay and
concentration bounds, runs the step-by-step conditioning of a product input
state through repeated binary tests, and closes with the scalar recursion
lemma and the generic constraint framework.
"""

import math

import numpy as np

from definetti.operators import (
    hermitian,
    identity_operator,
    induced_mixed_state,
    stream,
)
from definetti.repetition import (
    bound_hsep_power,
    bound_qext_power,
    bound_threshold,
    framework_decay_from_fidelity,
    projective_power_family,
    recursive_conditioning_demo,
    sample_admissible_sequence,
    scalar_recursion_corollary,
    threshold_operator,
)

vec = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
singlet = hermitian(np.outer(vec, vec), (2, 2))

print("Threshold operators: exact POVM element vs printed sum")
print("------------------------------------------------------")
eye = identity_operator((2, 2))
printed = threshold_operator(eye, 2, 1, "printed_sum").op
exact = threshold_operator(eye, 2, 1, "exact_povm").op
print(f"  at M = identity, n=2, t=1: printed variant equals 3*identity "
      f"({np.allclose(printed.matrix, 3 * np.eye(16))}), "
      f"exact variant equals identity ({np.allclose(exact.matrix, np.eye(16))})")

print()
print("Printed decay bounds")
print("--------------------")
print(f"  power bound (delta=0.5, r=1, n=10):      {bound_hsep_power(0.5, 1, 10):.12f}")
print(f"  threshold bound (alpha=0.5, r=1, n=10):  {bound_threshold(0.5, 1, 10):.12f}")
print(f"  extendibility bound (h=0.75, q=2, n=10): {bound_qext_power(0.75, 2, 10):.12f}")

print()
print("Measurement-conditioning trajectory (singlet test, greedy selection)")
print("--------------------------------------------------------------------")
alpha = induced_mixed_state((2, 2, 2), 1, "alpha")
beta = induced_mixed_state((2, 2, 2), 1, "beta")
traj = recursive_conditioning_demo(singlet, alpha, beta, q=2, selection="greedy_min_mi", seed=1)
print("   k  pair   p_k        surrogate   avg-budget  bound_k")
for s in traj.steps:
    print(f"   {s.k}   {s.index}   {s.p:.6f}   {s.surrogate:.6f}    "
          f"{s.averaged_bound:.6f}    {s.bound_k:.6f}")
print(f"  final p_n = {traj.final_p:.6f} <= decay bound {traj.final_bound:.6f}: "
      f"{traj.passed_final}")

print()
print("Scalar recursion lemma (corollary form)")
print("---------------------------------------")
rng = stream(2, "demo4")
seq = sample_admissible_sequence(12, nu=0.5, c=2.0, gamma=0.25, rng=rng)
verdict = scalar_recursion_corollary(seq, nu=0.5, c=2.0)
print(f"  admissible 12-step sequence: final p = {seq[-1]:.3e}, "
      f"corollary bound holds = {verdict.holds}")

print()
print("Generic framework: support-function decay from a fidelity modulus")
print("-----------------------------------------------------------------")
fam = projective_power_family([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
rep = framework_decay_from_fidelity(fam, None, r=1.0, delta=0.5, f=lambda e: e * e / 4.0, n=10)
print(f"  bisection root {rep.eps_decay:.12f} "
      f"(closed form {2 * (math.sqrt(1.5) - 1):.12f})")
print(f"  decay bound (1-g)^10 = {rep.bound_power:.9f}, "
      f"threshold bound exp(-10 g') = {rep.bound_threshold:.9f}")
