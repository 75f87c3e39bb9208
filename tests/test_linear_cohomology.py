"""Z2 and Z1 as kernels of linear systems over the fibers, and B2 as a span,
against the forms they replaced (tests/oracles.py): the propagated search
for Z2, and B2 and Z1 read off delta on every fiber-respecting map.  Also
the pieces of the solver on their own (the cyclic decomposition of a fiber
and the Howell kernel over Z/p^k), the caps checked before listing, and a
Z2 search that needs no Python frame per cell.  PStab by a membership
test on each fixed-point twin, against the intersection with the listed
Stab(A_0) it replaced, and H1 of Z64/Z2, where that list is over its cap.
Every member of Z2 through a cocycle file and back."""

import inspect
import random
import sys
from itertools import product

import pytest

import affext.cohomology as cohomology
from affext.algebras import CapExceeded
from affext._linear import fiber_basis, howell, howell_kernel
from affext.cohomology import (are_equivalent, coboundary_group, cocycle_group,
                               derivations, h1, h2, principal_stabilizers,
                               stabilizers)
from affext.datum import DatumError, extract_datum, group_extension
from affext.groups import (catalog, classical_h2, cyclic, direct_product,
                           trivial_action)
from affext.serialization import cocycle_from_json, cocycle_to_json
from affext.verify import catalog_extensions

from oracles import (intersected_principal_stabilizers, search_z2, table_b2,
                     table_z1)
from test_weak_gate_oracle import datum, with_entries


def _groups():
    cat, z2, z4 = catalog(), cyclic(2), cyclic(4)
    return {"Z2xZ2xZ2": cat["Z2xZ2xZ2"], "D4": cat["D4"],
            "Z10": cyclic(10), "Z12": cyclic(12), "Z14": cyclic(14),
            "Z16": cyclic(16), "Z4xZ4": direct_product(z4, z4),
            "Z2^5": direct_product(direct_product(cat["Z2xZ2xZ2"], z2), z2),
            "Z2xZ8": direct_product(z2, cyclic(8)),
            "Z24": cyclic(24), "Z64": cyclic(64)}


GROUPS = _groups()

# the h2-wide rungs, Z4 fibers, Z4xZ4 fibers, Klein-four fibers, a fiber
# Z6 that has two primes and a fiber Z2xZ4 with two exponents of 2
LADDER = [("Z2xZ2xZ2", (0, 1)), ("Z10", (0, 5)), ("Z12", (0, 6)),
          ("Z12", (0, 4, 8)), ("Z14", (0, 7)), ("Z16", (0, 4, 8, 12)),
          ("Z4xZ4", (0, 1, 2, 3)), ("Z2xZ2xZ2", (0, 1, 2, 3)),
          ("D4", (0, 1, 4, 5)), ("Z12", (0, 2, 4, 6, 8, 10)),
          ("Z2xZ8", (0, 2, 4, 6, 8, 10, 12, 14))]


def ladder_datum(group, kernel):
    return extract_datum(group_extension(GROUPS[group], list(kernel)))[0]


def catalog_datum(name):
    return extract_datum(dict(catalog_extensions())[name])[0]


DATUMS = [("ladder", case) for case in LADDER] + \
    [("catalog", name) for name, _ in catalog_extensions()]
DATUM_IDS = ["%s/%d" % (g, len(k)) for g, k in LADDER] + \
    [name for name, _ in catalog_extensions()]


def _datum(kind, case):
    return ladder_datum(*case) if kind == "ladder" else catalog_datum(case)


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_z2_matches_the_search(group_eqs, abelian_eqs, kind, case):
    d = _datum(kind, case)
    for eqs in (group_eqs, abelian_eqs):
        assert cocycle_group(d, eqs).serialized == search_z2(d, eqs)


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_z2_is_a_subgroup_without_a_recheck(group_eqs, abelian_eqs, kind, case,
                                            monkeypatch):
    """Every constraint is linear on these datums, so cocycle_group lists
    a kernel, a subgroup holding zero, and checks nothing more; the check
    it skips holds."""
    d = _datum(kind, case)
    skipped = []
    monkeypatch.setattr(cohomology, "_check_subgroup",
                        lambda *args: skipped.append(args))
    found = [cocycle_group(d, eqs).serialized for eqs in (group_eqs, abelian_eqs)]
    monkeypatch.undo()
    assert skipped == [] and found[0]
    zero, add = cohomology._two_cochains(d)
    for serialized in filter(None, found):
        cohomology._check_subgroup(serialized, zero, add, "Z2")


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_cocycle_json_round_trip_over_z2(group_eqs, kind, case):
    """Every member of Z2 comes back from its cocycle file unchanged."""
    d = _datum(kind, case)
    z2 = cocycle_group(d, group_eqs).serialized
    assert z2
    for T in z2:
        assert cocycle_from_json(d, cocycle_to_json(d, T)) == T


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_b2_and_z1_match_the_coboundary_table(kind, case):
    d = _datum(kind, case)
    assert coboundary_group(d).serialized == table_b2(d)
    assert derivations(d) == table_z1(d)


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_principal_stabilizers_match_the_intersection(kind, case):
    d = _datum(kind, case)
    _, pstab = principal_stabilizers(d)
    assert pstab == intersected_principal_stabilizers(d)[1]


def test_z64_over_z2_h1_without_listing_stab():
    """Stab(A_0) has 2^32 candidate maps here, over the stabilizers cap;
    only the twins of the identity are tested."""
    d = ladder_datum("Z64", (0, 32))
    a0 = principal_stabilizers(d)[0]
    with pytest.raises(CapExceeded, match="stabilizers"):
        stabilizers(a0)
    res = h1(d)
    assert (res["order"], res["Z1_order"], res["PDer_order"]) == (2, 2, 1)


@pytest.mark.parametrize("group, kernel, k_alg", [
    ("Z2xZ2xZ2", (0, 1, 2, 3), catalog()["Z2xZ2"]),
    ("Z12", (0, 2, 4, 6, 8, 10), cyclic(6)),
])
def test_klein_four_and_z6_fibers_match_classical_h2(group_eqs, group, kernel,
                                                     k_alg):
    """Trivial actions of Z2 on Z2xZ2 and on Z6: the classical H2 has the
    same order, and over Z2xZ2 the same extension types (those of order 12
    have no catalog name)."""
    z2 = cyclic(2)
    res = h2(ladder_datum(group, kernel), group_eqs)
    cla = classical_h2(k_alg, z2, trivial_action(k_alg, z2))
    assert res.order == cla.order
    if group == "Z2xZ2xZ2":
        assert res.class_types() == cla.class_types()


def _frames():
    return len(inspect.stack(0))


def test_z24_over_z2_without_a_frame_per_cell(group_eqs):
    """157 cells, |Z2| = 2^12, |B2| = 2^11 and |H2| = |Z1| = 2; cocycle_group
    runs within 50 frames of its caller, which a search recursing once per
    cell cannot."""
    d = ladder_datum("Z24", (0, 12))
    assert len(d.cells()) == 157
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 50)
    try:
        z2 = cocycle_group(d, group_eqs)
    finally:
        sys.setrecursionlimit(limit)
    res = h2(d, group_eqs)
    assert (z2.order, res.z2.order, res.b2.order, res.order) == (
        1 << 12, 1 << 12, 1 << 11, 2)
    assert h1(d)["Z1_order"] == 2


def test_z2_cap_checked_before_listing(group_eqs, monkeypatch):
    """Z2^5 over Z2: |Z2| = 2^22 cocycles of 273 cells are over the cap,
    which is known from the pivots before any cocycle is listed."""
    d = ladder_datum("Z2^5", (0, 1))

    def unlisted(*args):
        raise AssertionError("listed before the cap check")

    monkeypatch.setattr(cohomology, "_span", unlisted)
    with pytest.raises(CapExceeded) as info:
        cocycle_group(d, group_eqs)
    assert (info.value.stage, info.value.size, info.value.cap) == (
        "cocycle_group", (1 << 22) * 273, 1 << 24)


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_fiber_basis_is_a_direct_decomposition(kind, case):
    """Generators of prime-power order whose coefficients add as the fiber
    does, one tuple per member."""
    d = _datum(kind, case)
    size, tables = d.dc.size, d.fiber_tables()
    for q in range(d.qsize()):
        gens, coords, members = fiber_basis(d, q)
        orders = [p ** k for _, p, k in gens]
        assert all(p > 1 and k > 0 and all(p % r for r in range(2, p))
                   for _, p, k in gens)
        assert sorted(coords) == sorted(d.fiber(q))
        assert len(members) == len(coords)
        for x, y in product(d.fiber(q), repeat=2):
            s = tables[q][x * size + y]
            assert coords[s] == tuple((a + b) % o for a, b, o in
                                      zip(coords[x], coords[y], orders))


def brute_kernel(rows, cols, mod):
    return {x for x in product(range(mod), repeat=len(cols))
            if all(sum(r.get(c, 0) * v for c, v in zip(cols, x)) % mod == 0
                   for r in rows)}


def spanned(gens, cols, mod):
    out = {(0,) * len(cols)}
    for g in gens:
        vec = tuple(g.get(c, 0) for c in cols)
        while True:
            grown = out | {tuple((a + b) % mod for a, b in zip(x, vec))
                           for x in out}
            if grown == out:
                break
            out = grown
    return out


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_howell_kernel_matches_brute_force(p, k):
    """Random rows over Z/p^k on 3 or 4 columns: the order read off the
    pivots and the span of the generators are the brute-force kernel."""
    rng, mod = random.Random(p * 10 + k), p ** k
    for _ in range(60):
        cols = list(range(rng.randint(3, 4)))
        rows = [{c: v for c in cols if (v := rng.randrange(mod))}
                for _ in range(rng.randint(0, 4))]
        order, gens = howell_kernel(howell([r for r in rows if r], p, k),
                                    cols, p, k)
        expected = brute_kernel(rows, cols, mod)
        assert order == len(expected)
        assert spanned(gens, cols, mod) == expected


def test_b2_names_a_map_that_is_not_a_homomorphism():
    """Z4 over Z2 with the action of mul at position 2 sending a non-zero
    class off its fiber: delta still sends the zero map to zero, but B2 is
    no span, and the cell is named; are_equivalent, which reads B2, raises
    the same error."""
    d = datum("Z4", (0, 2))
    key = next((q, c) for q in range(d.qsize()) for c in range(d.dc.size)
               if not d.dc.is_diagonal(c))
    q = d.dc.rho_class[d.action_apply("mul", 2, key[:1], key[1])]
    off = next(c for c in range(d.dc.size) if d.dc.rho_class[c] != q)
    bent = with_entries(d, [(("action", ("mul", 2), key), off)])
    zero = bent.trivial_cocycle()
    for call in (lambda: coboundary_group(bent), lambda: are_equivalent(bent, zero, zero)):
        with pytest.raises(DatumError, match=r"^delta is not a homomorphism of "
                                             r"fibers at mul\("):
            call()
