#!/usr/bin/env python3
"""Tour of congruence-layer construction and the out-degree law.

Builds the small showcase layers, prints their structure, and then checks
the scale-free degree law and the logarithmic average-degree growth on a
10000-node layer.
"""

import math

from mcn import (
    LayerSpec,
    build_layer,
    degree_histogram,
    extract_chains,
    theoretical_average_degree,
    theoretical_pk,
)

# --- the multiplex at a glance ------------------------------------------------

layers = {r: build_layer(LayerSpec(r, 9)) for r in (1, 2, 3)}
print("Multiplex congruence network on labels up to 9")
for r, layer in layers.items():
    print(f"  layer r={r}: nodes {layer.nodes}")
    print(f"    edges: {list(layer.edges())}")

# Every node m links to m+r, 2m+r, ...; smaller labels have more room below
# the ceiling, so the smallest node of each layer is the biggest hub.
g = layers[1]
print(f"\nIn layer r=1, node 2 reaches {g.successors(2)}; node 8 only {g.successors(8)}")

# --- chains --------------------------------------------------------------------

print("\nChain decomposition (arithmetic progressions with difference r):")
for r in (1, 2, 3):
    chains = extract_chains(LayerSpec(r, 9))
    pretty = ", ".join("->".join(map(str, c.members)) for c in chains)
    print(f"  r={r}: {pretty}")

# --- degree law at scale ---------------------------------------------------------

print("\nOut-degree law on G(2, 10000): P(k) vs 1/(k(k+1))")
hist = degree_histogram(LayerSpec(2, 10000))
print(f"  {'k':>3} {'empirical':>12} {'theory':>12}")
for k in range(1, 9):
    print(f"  {k:>3} {hist.empirical_p(k):>12.5f} {theoretical_pk(2, k):>12.5f}")

print("\nThe divisibility layer r=0 behaves differently at small k")
hist0 = degree_histogram(LayerSpec(0, 10000))
for k in range(0, 4):
    print(f"  {k:>3} {hist0.empirical_p(k):>12.5f} {theoretical_pk(0, k):>12.5f}")

# --- sparsity ---------------------------------------------------------------------

print("\nAverage degree grows like log(n) and falls with r:")
print(f"  {'r':>3} {'exact':>9} {'theory':>9}   (n = 10000)")
for r in range(0, 6):
    spec = LayerSpec(r, 10000)
    hist = degree_histogram(spec)
    exact = hist.degree_sum / hist.total_nodes
    print(f"  {r:>3} {exact:>9.4f} {theoretical_average_degree(spec):>9.4f}")

n = 100
g = build_layer(LayerSpec(1, n))
exact = g.num_edges / g.num_nodes
print(f"\nG(1,{n}): mean degree {exact:.4f}, log({n - 1}) = {math.log(n - 1):.4f}")
