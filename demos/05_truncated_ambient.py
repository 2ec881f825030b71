"""Truncated-ambient reduction on a finite ambient space.

A random symmetric vector on copies of an ambient space, constrained to keep
at most k factors outside a distinguished low-dimensional subspace, is
dominated by a subset sum of exact low-subspace moment contractions.  The
k = 0 case collapses to the ordinary pure-state reduction.
"""

import numpy as np

from definetti.operators import symmetric_state_vector
from definetti.reductions import (
    _sym_isometry,
    check_pure_reduction,
    check_truncated_ambient_reduction,
    truncated_symmetric_state_vector,
)
from definetti.suites import TRUNCATED_CONFIGS

print("Truncated symmetric vectors")
print("---------------------------")
theta = truncated_symmetric_state_vector(2, 1, 2, 3, seed=0)
arr = theta.reshape(3, 3, 3)
print(f"  (n=2, k=1, d=2, D=3): weight on the all-high string = {abs(arr[2,2,2]):.1e}")
print(f"  exchange symmetry defect = {np.linalg.norm(arr - arr.transpose(1, 0, 2)):.1e}")

print()
print("Subset-sum reduction checks")
print("---------------------------")
for (d, big_d, n, k) in TRUNCATED_CONFIGS:
    res = check_truncated_ambient_reduction(n, k, d, big_d, seed=0)
    print(f"  d={d} D={big_d} n={n} k={k}: prefactor {res.prefactor:>3d}, "
          f"PSD gap {res.gap_min_eig:+.3e} -> pass = {res.passed}")

print()
print("k = 0 collapses to the pure reduction")
print("-------------------------------------")
theta2 = symmetric_state_vector(2, 2, seed=7)
embedded = np.zeros((3, 3), dtype=complex)
embedded[:2, :2] = theta2.reshape(2, 2)
trunc = check_truncated_ambient_reduction(2, 0, 2, 3, seed=0, theta=embedded.reshape(-1))
pure = check_pure_reduction(theta2, 2, 2)
print(f"  truncated prefactor {trunc.prefactor} = pure prefactor {pure.prefactor}")
# the truncated operators live on the kept classes: here the 3 classes of Sym^2(C^2)
iso = _sym_isometry(2, 2)
print(f"  bound operators agree on Sym^2(C^2) ({trunc.rhs.side} classes): "
      f"{np.linalg.norm(trunc.rhs.matrix - iso.T @ pure.rhs.matrix @ iso):.2e}")
