#!/usr/bin/env python3
"""Solving simultaneous congruences by walking the multiplex network.

The classic puzzle: a number of objects leaves remainder 2 when grouped in
threes, 3 in fives, and 2 in sevens. In network terms, the answer is the
first common successor of the nodes 3, 5 and 7 in the layers with
remainders 2, 3 and 2.
"""

from mcn import (
    CongruenceSystem,
    solve_garner,
    solve_graphical,
    successor_set,
    validate_system,
)

system = CongruenceSystem.from_pairs([(2, 3), (3, 5), (2, 7)])
validate_system(system)
big_m = system.modulus_product
print(f"System: x = 2 (mod 3), x = 3 (mod 5), x = 2 (mod 7); M = {big_m}")

print("\nSuccessor neighbourhoods of the moduli nodes (truncated at 23):")
for c in system.items:
    s = successor_set(c.remainder, c.modulus, 23)
    print(f"  node {c.modulus} in layer r={c.remainder}: {s}")

solution = solve_graphical(system)
print(f"\nThe sets first meet at {solution.witness}; "
      f"canonical solution x0 = {solution.x0}")

check = solve_garner(system)
print(f"Garner reconstruction agrees: x0 = {check.x0}")

# --- when the answer hides below a modulus -----------------------------------

small = CongruenceSystem.from_pairs([(1, 3), (1, 5)])
sol = solve_graphical(small)
print(f"\nSystem x = 1 (mod 3), x = 1 (mod 5): x0 = {sol.x0}")
print(f"Successors always exceed their node, so the graphical witness is "
      f"{sol.witness} = x0 + M; reducing mod {sol.modulus_product} recovers {sol.x0}.")

# --- scaling note ---------------------------------------------------------------

big = CongruenceSystem.from_pairs([(2, 3), (3, 5), (2, 7), (8, 11), (12, 13)])
graphical = solve_graphical(big)
garner = solve_garner(big)
assert graphical.x0 == garner.x0
print(f"\nFive moduli, M = {big.modulus_product}: both methods give "
      f"x0 = {garner.x0}.")
print(f"The graphical search sieves one successor list at a time: at most "
      f"{3 + 5 + 7 + 11} steps here, the sum of the moduli below 13.")
print("Garner needs one modular inverse per modulus and stays the tool for "
      "large moduli.")
