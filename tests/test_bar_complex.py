"""|H2| and |Z1| of group extensions with an elementary abelian kernel
against the bar complex over GF(p) (tests/oracles.bar_complex_orders),
which reads only the group tables of Q, K and the action.  The rungs of
order 16 have no other check: groups.classical_h2 stops at |Q| = 4, and
oracles.brute_cocycle_group at a product of fibers of 2^24."""

import pytest

from affext.algebras import find_isomorphism
from affext.cohomology import h1, h2
from affext.datum import extract_datum, group_extension
from affext.groups import (catalog, cyclic, direct_product, is_action,
                           quotient_group, subgroup_as_group)

from oracles import bar_complex_orders
from test_linear_cohomology import GROUPS

CAT = catalog()
Z2 = cyclic(2)

# (group, kernel, the kernel as a catalog group, |H2| where it is pinned);
# the first seven are the LADDER rungs of test_linear_cohomology whose
# kernel is elementary abelian.  r^2 of D4 is 4, so 8 in D4xZ2.
RUNGS = [
    (GROUPS["Z2xZ2xZ2"], (0, 1), "Z2", None),
    (GROUPS["Z10"], (0, 5), "Z2", None),
    (GROUPS["Z12"], (0, 6), "Z2", None),
    (GROUPS["Z12"], (0, 4, 8), "Z3", None),
    (GROUPS["Z14"], (0, 7), "Z2", None),
    (GROUPS["Z2xZ2xZ2"], (0, 1, 2, 3), "Z2xZ2", None),
    (GROUPS["D4"], (0, 1, 4, 5), "Z2xZ2", None),
    (GROUPS["Z16"], (0, 8), "Z2", 2),
    (direct_product(CAT["Z2xZ2xZ2"], Z2), (0, 1), "Z2", 1 << 6),
    (direct_product(CAT["D4"], Z2), (0, 8), "Z2", 1 << 6),
    (direct_product(CAT["D4"], Z2), (0, 1), "Z2", 1 << 3),
    (direct_product(CAT["Q8"], Z2), (0, 1), "Z2", 1 << 2),
    (CAT["S3"], (0, 3, 4), "Z3", 1),
]
IDS = ["Z2xZ2xZ2/Z2", "Z10/Z2", "Z12/Z2", "Z12/Z3", "Z14/Z2", "Z2xZ2xZ2/Z2xZ2",
       "D4/Z2xZ2", "Z16/Z2", "Z2^4/Z2", "D4xZ2/r2", "D4xZ2/Z2", "Q8xZ2/Z2", "S3/Z3"]


def module(g, kernel, k_name):
    """(Q, K, phi) of g over its normal subgroup kernel: Q = g/kernel, K the
    catalog group k_name, and phi[q] conjugation by the least element of
    the coset q, carried to K by an isomorphism."""
    q_alg, proj = quotient_group(g, list(kernel))
    k_alg = CAT[k_name]
    iso = find_isomorphism(subgroup_as_group(g, list(kernel)), k_alg)
    n, mul, inv = g.size, g.tables["mul"], g.tables["inv"]
    phi = []
    for q in range(q_alg.size):
        lift = proj.index(q)
        perm = [None] * k_alg.size
        for i, x in enumerate(kernel):
            perm[iso[i]] = iso[kernel.index(mul[mul[lift * n + x] * n + inv[lift]])]
        phi.append(tuple(perm))
    assert is_action(k_alg, q_alg, phi)
    return q_alg, k_alg, tuple(phi)


@pytest.mark.parametrize("g, kernel, k_name, pinned", RUNGS, ids=IDS)
def test_h2_and_z1_match_the_bar_complex(group_eqs, g, kernel, k_name, pinned):
    """H2 is killed by p, as K is, so its order gives its invariant
    factors; h2 names no class here, as only the order is compared."""
    z1, order1, order2 = bar_complex_orders(*module(g, kernel, k_name))
    d = extract_datum(group_extension(g, list(kernel)))[0]
    res = h2(d, group_eqs, namer=lambda alg, previous: "")
    assert res.order == order2 == (pinned or order2)
    p = int(k_name[1])
    assert set(res.invariant_factors) <= {p}
    assert p ** len(res.invariant_factors) == order2
    one = h1(d)
    assert (one["Z1_order"], one["order"]) == (z1, order1)


def test_nontrivial_actions_are_covered():
    """D4 over its Klein-four subgroup and S3 over Z3 act non-trivially."""
    for i in (6, 12):
        g, kernel, k_name, _ = RUNGS[i]
        _, k_alg, phi = module(g, kernel, k_name)
        assert any(perm != tuple(range(k_alg.size)) for perm in phi)
