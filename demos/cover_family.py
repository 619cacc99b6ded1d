"""
Extracting a bipartite cover of all maximal independent sets
============================================================

"""

# Beyond a single optimum, the solver can report a polynomial family of
# vertex sets, each inducing a bipartite subgraph, such that EVERY maximal
# independent set of the graph lies inside some member.
from p4p4free import (
    bits,
    enumerate_maximal_is,
    gen_instance,
    mask_of,
    solve_with_cover,
)
from p4p4free.graph import components_with_certificates

# A seeded in-class instance: 14 vertices, both generation and solving are
# fully deterministic.
g = gen_instance(model="clustered", n=14, density=0.5, seed=11)
result, family = solve_with_cover(g)
print("optimum:", result.weight, result.chosen)
print("family size:", len(family.members))

# Each member is a vertex bitmask; its induced subgraph is two-colorable.
for member in family.members[:5]:
    print("member:", tuple(bits(member)))

# The covering property, checked against exhaustive enumeration.
maximal_sets = enumerate_maximal_is(g)
for chosen in maximal_sets:
    mask = mask_of(chosen)
    assert any(mask & ~member == 0 for member in family.members)
print("all", len(maximal_sets), "maximal independent sets are covered")

# Why each member is bipartite: every component of its induced subgraph
# carries a complete-bipartite certificate, its two sides, and none is
# left uncertified.
decompositions = [components_with_certificates(g, m) for m in family.members]
assert not any(uncertified for _, uncertified in decompositions)
fewest = min((certified for certified, _ in decompositions), key=len)
print("the member with the fewest components, as their sides:",
      [(tuple(bits(a)), tuple(bits(b))) for a, b in fewest])
