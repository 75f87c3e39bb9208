"""Datum with 4-element fibers (kernel Z4 under a Z2 quotient) and with
8-element fibers (kernel Z8 under a Z2 quotient): round trips and cohomology
against the classical oracle, both trivial and inversion actions."""

from affext.algebras import find_isomorphism
from affext.cocycles import reconstruct
from affext.cohomology import h1, h2
from affext.datum import extract_datum, group_extension, validate_datum
from affext.serialization import datum_from_json, datum_to_json
from affext.groups import (classical_h2, cyclic, direct_product,
                           inversion_action, trivial_action)


ROTATIONS = [0, 2, 4, 6]  # the cyclic order-4 subgroup in the a^i b^j encoding


def test_z8_over_z4(cat, group_eqs):
    ext = group_extension(cat["Z8"], ROTATIONS)
    d, T = extract_datum(ext)
    assert find_isomorphism(cat["Z8"], reconstruct(d, T).alg) is not None
    res = h2(d, group_eqs)
    cla = classical_h2(cat["Z4"], cat["Z2"], trivial_action(cat["Z4"], cat["Z2"]))
    assert res.order == cla.order == 2
    assert res.class_types() == cla.class_types() == ["Z2xZ4", "Z8"]


def test_d4_over_rotations(cat, group_eqs):
    ext = group_extension(cat["D4"], ROTATIONS)
    d, T = extract_datum(ext)
    assert find_isomorphism(cat["D4"], reconstruct(d, T).alg) is not None
    res = h2(d, group_eqs)
    cla = classical_h2(cat["Z4"], cat["Z2"], inversion_action(cat["Z4"], cat["Z2"]))
    assert res.order == cla.order == 2
    assert res.class_types() == cla.class_types() == ["D4", "Q8"]


def test_q8_realizes_the_inversion_datum(cat, group_eqs):
    """Q8 over a cyclic Z4 subgroup extracts the same datum shape as D4 over
    its rotations, so the cohomology and class types coincide."""
    ext = group_extension(cat["Q8"], ROTATIONS)
    d, T = extract_datum(ext)
    assert find_isomorphism(cat["Q8"], reconstruct(d, T).alg) is not None
    res = h2(d, group_eqs)
    assert res.order == 2
    assert res.class_types() == ["D4", "Q8"]


def test_z16_over_its_order_8_subgroup(group_eqs):
    """H^2(Z2, Z8) = Z_gcd(2,8): the two classes are Z16 and Z2xZ8."""
    z16, z8, z2 = cyclic(16), cyclic(8), cyclic(2)
    ext = group_extension(z16, list(range(0, 16, 2)))
    d, T = extract_datum(ext)
    assert all(r["holds"] for r in validate_datum(d))
    assert find_isomorphism(z16, reconstruct(d, T).alg) is not None
    res = h2(d, group_eqs)
    cla = classical_h2(z8, z2, trivial_action(z8, z2))
    assert res.order == cla.order == 2
    assert res.invariant_factors == [2]
    types = [[find_isomorphism(g, c["extension"].alg) is not None
              for g in (z16, direct_product(z2, z8))] for c in res.classes]
    assert sorted(types) == [[False, True], [True, False]]
    assert h1(d)["order"] == 2


def test_z16_over_z8_datum_file_round_trip():
    """Loading the Z16-over-Z8 datum reads Delta off Cg and the m-rule,
    without M(alpha,alpha) on <A,m>, and gives back an equal datum."""
    d, _ = extract_datum(group_extension(cyclic(16), list(range(0, 16, 2))))
    doc = datum_to_json(d)
    e = datum_from_json(doc)
    doc["q_algebra"]["name"] = "Q"  # a loaded Q is named Q
    assert datum_to_json(e) == doc
    assert (e.dc.delta_cong, e.dc.classes, e.fdelta, e.actions, e.lifting) == (
        d.dc.delta_cong, d.dc.classes, d.fdelta, d.actions, d.lifting)
