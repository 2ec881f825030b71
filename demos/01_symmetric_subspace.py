"""The symmetric subspace.

Builds the symmetric projector from occupation classes, checks its trace
against the rank formula, compares it with (I + SWAP)/2 on two qubits, and
shows that it fixes product powers and that symmetric vectors are invariant
under every permutation of the tensor factors.
"""

import itertools
import math

import numpy as np

from definetti.operators import (
    haar_state_vector,
    permute_factors,
    pure_state_density,
    sym_projector,
    symmetric_state_vector,
)

print("Symmetric projector and its rank")
print("--------------------------------")
for (n, d) in [(2, 2), (3, 2), (2, 3), (4, 2)]:
    p = sym_projector(n, d).matrix
    print(f"  n={n} d={d}: trace = {np.trace(p).real:.12f}, "
          f"binom(n+d-1, n) = {math.comb(n + d - 1, n)}, "
          f"|P^2 - P|_F = {np.linalg.norm(p @ p - p):.2e}")

print()
print("Two qubits")
print("----------")
swap = np.eye(4).reshape(2, 2, 2, 2).transpose(1, 0, 2, 3).reshape(4, 4)
print(f"  |P_sym - (I + SWAP)/2|_F = {np.linalg.norm(sym_projector(2, 2).matrix - (np.eye(4) + swap) / 2):.2e}")

psi = haar_state_vector(2, seed=1)
v = np.kron(np.kron(psi, psi), psi)
print(f"  projector fixes product powers: |P v - v| = "
      f"{np.linalg.norm(sym_projector(3, 2).matrix @ v - v):.2e}")

print()
print("Symmetric vectors are invariant under factor permutations")
print("---------------------------------------------------------")
theta = pure_state_density(symmetric_state_vector(3, 2, 0, "demo1"), (2, 2, 2))
worst = max(
    np.linalg.norm(permute_factors(theta.op, perm).matrix - theta.matrix)
    for perm in itertools.permutations(range(3))
)
print(f"  worst change of |theta><theta| over all six permutations: {worst:.2e}")
