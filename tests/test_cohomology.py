from itertools import product

import pytest

from affext.algebras import AlgebraError
from affext.cohomology import (are_equivalent, CapExceeded, coboundary_group,
                               cocycle_group, compare_variety_subgroups,
                               derivations, h1, h2, stabilizers,
                               stabilizer_derivation_isomorphism,
                               trivial_action_check, twin_pairs_of_identity)
from affext.cocycles import reconstruct
from affext.datum import DatumError, extract_datum, group_extension
from affext.terms import parse_term

from oracles import brute_cocycle_group, cocycle_add
from test_cohomology_oracle import AbelianGroupPresentation


def _group_table(pairs, n):
    def add(a, b):
        return tuple((x + y) % m for (x, y), m in zip(zip(a, b), n))
    return add


def test_abelian_presentation_invariant_factors():
    # Z6 from an addition table
    elems = list(range(6))
    g = AbelianGroupPresentation(elems, lambda a, b: (a + b) % 6, 0)
    assert g.invariant_factors() == [6]
    # Z2 x Z4 as pairs
    elems = [(a, b) for a in range(2) for b in range(4)]
    g = AbelianGroupPresentation(elems,
                                 lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4),
                                 (0, 0))
    assert g.invariant_factors() == [2, 4]
    # Z2 x Z2 x Z3 ~= Z2 x Z6
    elems = [(a, b, c) for a in range(2) for b in range(2) for c in range(3)]
    g = AbelianGroupPresentation(
        elems,
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2, (x[2] + y[2]) % 3),
        (0, 0, 0))
    assert g.invariant_factors() == [2, 6]
    # trivial group
    g = AbelianGroupPresentation([0], lambda a, b: 0, 0)
    assert g.invariant_factors() == []


def test_abelian_presentation_rejects_non_group():
    with pytest.raises(AlgebraError):
        AbelianGroupPresentation([0, 1], lambda a, b: 0, 0)


def test_z2_group_examples(z4_datum, group_eqs):
    d, T = z4_datum
    res = cocycle_group(d, group_eqs)
    assert res.order == 4
    zero = d.trivial_cocycle()
    assert zero in set(res.serialized)
    assert res.invariant_factors() == [2, 2]
    # closure under addition (checked internally, assert again here)
    sols = set(res.serialized)
    for a in res.serialized:
        for b in res.serialized:
            s = cocycle_add(d, a, b)
            assert s in sols


def test_sum_of_extracted_with_itself_is_trivial_class(z4_datum):
    """The class structure has exponent 2."""
    d, T = z4_datum
    double = cocycle_add(d, T, T)
    assert are_equivalent(d, double, d.trivial_cocycle())


def test_propagated_matches_brute(z4_datum, group_eqs, abelian_eqs):
    d, _ = z4_datum
    for eqs in (group_eqs, abelian_eqs):
        fast = cocycle_group(d, eqs)
        slow = brute_cocycle_group(d, eqs)
        assert fast.serialized == slow.serialized


@pytest.mark.parametrize("group, kernel, variety", [
    ("Z2xZ2", [0, 1], "groups"), ("Z2xZ2", [0, 1], "abelian-groups"),
    ("Z8", [0, 2, 4, 6], "groups"), ("D4", [0, 2, 4, 6], "groups"),
    ("D4", [0, 2, 4, 6], "abelian-groups"), ("Q8", [0, 2, 4, 6], "groups"),
])
def test_propagated_matches_brute_on_more_datums(cat, group, kernel, variety):
    """The brute spaces are 2^7 for fibers of 2 and 4^7 for fibers of 4."""
    from affext.serialization import builtin_equations
    d, _ = extract_datum(group_extension(cat[group], kernel))
    eqs = builtin_equations(variety)
    fast = cocycle_group(d, eqs)
    slow = brute_cocycle_group(d, eqs)
    assert fast.serialized == slow.serialized


def test_cap_exceeded(z4_datum, group_eqs):
    d, _ = z4_datum
    # |Z2| = 4 cocycles of 7 cells
    with pytest.raises(CapExceeded,
                       match="^cocycle_group: listing 28 entries exceeds cap 2$"):
        cocycle_group(d, group_eqs, cap=2)
    with pytest.raises(CapExceeded, match="^cocycle_group: brute-force space 128 "):
        brute_cocycle_group(d, group_eqs, cap=2)


@pytest.mark.parametrize("n, kernel, digest", [
    (10, [0, 5], "118b5d1991f6c5debcbe80a7301c89387ea09d52b3c3a153eccddd50a07b6c79"),
    (12, [0, 4, 8], "c054aea5bb2115548920bd8a6c6cfc3c86e3e15db119d8445d4ca40642c675f7"),
])
def test_h2_json_pinned(group_eqs, n, kernel, digest):
    """The byte-identical JSON contract of h2, pinned by its sha256."""
    import hashlib
    from affext.groups import cyclic
    from affext.serialization import dump_json
    d, _ = extract_datum(group_extension(cyclic(n), kernel))
    text = dump_json(h2(d, group_eqs).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("group, kernel, labels", [
    ("Z9", [0, 3, 6], ["iso-class-0", "iso-class-1", "iso-class-1"]),
    ("Z3xZ3", [0, 1, 2], ["iso-class-0", "iso-class-1", "iso-class-1"]),
    ("Z10", [0, 5], ["iso-class-0"]),
    ("Z12", [0, 6], ["iso-class-0", "iso-class-1"]),
    ("Z2xZ6", [0, 3], ["iso-class-0", "iso-class-1"]),
    ("S3xZ2", [0, 1], ["iso-class-0", "iso-class-1"]),
    ("Z14", [0, 7], ["iso-class-0"]),
])
def test_h2_class_labels_outside_the_catalog(group_eqs, group, kernel, labels):
    """Orders 9-14 have no catalog name, so each class is named by
    find_isomorphism against the earlier ones: Z9 and Z3xZ3 over Z3 have
    two classes of Z9, which share the label of the first."""
    from affext.groups import cyclic, direct_product, symmetric3
    z2, z3 = cyclic(2), cyclic(3)
    groups = {"Z9": cyclic(9), "Z3xZ3": direct_product(z3, z3),
              "Z10": cyclic(10), "Z12": cyclic(12), "Z14": cyclic(14),
              "Z2xZ6": direct_product(z2, cyclic(6)),
              "S3xZ2": direct_product(symmetric3(), z2)}
    d, _ = extract_datum(group_extension(groups[group], kernel))
    assert [c["extension_iso_type"] for c in h2(d, group_eqs).classes] == labels


def test_coboundary_group(z4_datum, group_eqs):
    d, _ = z4_datum
    b2 = coboundary_group(d)
    zero = d.trivial_cocycle()
    # h = delta.l gives the zero coboundary
    from affext.cocycles import coboundary_of
    h0 = tuple(d.delta_l(q) for q in range(d.qsize()))
    assert coboundary_of(d, h0) == zero
    assert zero in b2.serialized
    # 4 witness maps collapse onto 2 coboundaries (kernel = derivations)
    assert b2.order == 2
    assert sorted(len(v) for v in b2.witnesses.values()) == [2, 2]
    # every coboundary is a compatible cocycle
    from affext.cocycles import check_cocycle
    for g in b2.serialized:
        assert check_cocycle(d, g, group_eqs)["holds"]


def test_h2_z4_datum(z4_datum, group_eqs):
    d, _ = z4_datum
    res = h2(d, group_eqs)
    assert res.order == 2
    assert res.invariant_factors == [2]
    assert res.class_types() == ["Z2xZ2", "Z4"]
    split = [c for c in res.classes if c["is_zero"]]
    assert len(split) == 1 and split[0]["extension_iso_type"] == "Z2xZ2"
    js = res.to_json()
    assert js["Z2_order"] == 4 and js["B2_order"] == 2


def test_h2_equality_kernel_trivial(cat, group_eqs):
    from affext.datum import ExtensionRecord
    from affext.congruences import Congruence
    ext = ExtensionRecord.from_kernel(cat["Z4"], Congruence.equality(4),
                                      "(mul x0 (mul (inv x1) x2))")
    d, _ = extract_datum(ext)
    res = h2(d, group_eqs)
    assert res.order == 1
    assert res.invariant_factors == []


def test_h2_same_datum_from_v4(cat, group_eqs):
    """The split extension of the same datum gives an identical H2."""
    ext = group_extension(cat["Z2xZ2"], [0, 1])
    d, _ = extract_datum(ext)
    res = h2(d, group_eqs)
    assert res.order == 2
    assert res.class_types() == ["Z2xZ2", "Z4"]


def test_are_equivalent_examples(z4_datum):
    d, T = z4_datum
    assert are_equivalent(d, T, T)
    assert not are_equivalent(d, T, d.trivial_cocycle())


def test_stabilizers_and_derivations(z4_extension, z4_datum):
    d, _ = z4_datum
    stabs = stabilizers(z4_extension)
    assert len(stabs) == 2
    assert tuple(range(4)) in stabs
    ders = derivations(d)
    assert len(ders) == 2
    rep = stabilizer_derivation_isomorphism(z4_extension, d)
    assert rep["holds"], rep


def test_stab_not_closed_is_reported_at_the_composition(z4_extension, z4_datum,
                                                        monkeypatch):
    """Two maps of Z4 standing in for Stab, whose composites (the identity
    among them) lie outside it, each sent to its own derivation: the claim
    fails at the first composition, with no KeyError."""
    import affext.cohomology as cohomology
    d, _ = z4_datum
    fake = [(1, 0, 3, 2), (2, 3, 0, 1)]
    ders = derivations(d)
    monkeypatch.setattr(cohomology, "stabilizers", lambda ext: fake)
    monkeypatch.setattr(cohomology, "derivation_of_stabilizer",
                        lambda ext, d, g: ders[fake.index(g)])
    rep = stabilizer_derivation_isomorphism(z4_extension, d)
    assert (rep["holds"], rep["witness"]) == (
        False, {"composition": (fake[0], fake[0])})


def _blocks_of_two(k):
    """The identity on 2k points over k kernel blocks of 2."""
    from affext.algebras import FiniteAlgebra, Signature
    from affext.datum import ExtensionRecord
    sig = Signature([("f", 1)])
    alg = FiniteAlgebra(2 * k, sig, {"f": tuple(range(2 * k))})
    quot = FiniteAlgebra(k, sig, {"f": tuple(range(k))})
    return ExtensionRecord(alg, [x // 2 for x in range(2 * k)], quot,
                           (0,) * (2 * k) ** 3)


def test_stabilizers_cap_checked_first():
    """25 kernel blocks of 2 give 2^25 candidates, over the default cap."""
    with pytest.raises(CapExceeded, match="stabilizers: 33554432 .* cap 16777216"):
        stabilizers(_blocks_of_two(25))


def test_cap_exceeded_names_stage_size_and_cap(z4_datum, group_eqs, cat):
    from affext.groups import classical_h2, trivial_action
    d, _ = z4_datum
    z2, z2_3 = cat["Z2"], cat["Z2xZ2xZ2"]
    caps = []
    for call in (lambda: stabilizers(_blocks_of_two(25)),
                 lambda: cocycle_group(d, group_eqs, cap=2),
                 lambda: brute_cocycle_group(d, group_eqs, cap=2),
                 lambda: classical_h2(z2, z2_3, trivial_action(z2, z2_3))):
        with pytest.raises(CapExceeded) as info:
            call()
        caps.append((info.value.stage, info.value.size, info.value.cap))
    assert caps == [("stabilizers", 1 << 25, 1 << 24), ("cocycle_group", 28, 2),
                    ("cocycle_group", 128, 2), ("classical_h2", 1 << 64, 1 << 22)]


def test_stabilizing_isomorphism_one_image_per_fiber():
    """Z16 over its order-8 subgroup: two fibers of 8 give 8^2 candidates,
    not (8!)^2, and the least stabilizing isomorphism is the identity."""
    from affext.cohomology import stabilizing_isomorphism
    from affext.groups import cyclic
    ext = group_extension(cyclic(16), list(range(0, 16, 2)))
    assert stabilizing_isomorphism(ext, ext) == list(range(16))


def test_stabilizing_isomorphism_cap_checked_first(monkeypatch):
    """25 fibers of 2 give 2^25 candidates, over the default cap; no image
    pool is built (m is never read) and no plan is kept."""
    from affext.cohomology import stabilizing_isomorphism
    from affext.datum import ExtensionRecord

    def unread_m(*args):
        raise AssertionError("m read before the cap check")

    ext = _blocks_of_two(25)
    monkeypatch.setattr(ExtensionRecord, "m_elem", unread_m)
    with pytest.raises(CapExceeded, match="stabilizing_isomorphism: 33554432 "
                                          "candidate maps exceed cap 16777216"):
        stabilizing_isomorphism(ext, ext)
    assert ext._gamma_plans == {}


def test_stabilizing_isomorphism_needs_ternary_operation():
    from affext.cohomology import stabilizing_isomorphism
    from affext.datum import ExtensionRecord
    ext = _blocks_of_two(2)
    bare = ExtensionRecord(ext.alg, ext.pi, ext.q_alg, None)
    with pytest.raises(DatumError, match="no ternary operation"):
        stabilizing_isomorphism(bare, bare)


def test_identity_automorphism_is_zero_derivation(z4_extension, z4_datum):
    from affext.cohomology import derivation_of_stabilizer
    d, _ = z4_datum
    ident = tuple(range(4))
    dz = derivation_of_stabilizer(z4_extension, d, ident)
    assert dz == tuple(d.delta_l(q) for q in range(2))


def test_twin_pairs_exactness(z4_datum):
    d, _ = z4_datum
    a0 = reconstruct(d, d.trivial_cocycle())
    pairs = twin_pairs_of_identity(a0.alg, a0.beta)
    ident = tuple(range(a0.alg.size))
    assert (ident, ident) in pairs


def test_h1_z4(z4_datum):
    d, _ = z4_datum
    res = h1(d)
    assert res["exact"]
    assert res["PDer_order"] == 1  # trivial action: principal twins collapse
    assert res["order"] == res["Z1_order"] == 2
    assert res["invariant_factors"] == [2]


def test_h1_s3_datum(cat):
    ext = group_extension(cat["S3"], [0, 3, 4])
    d, _ = extract_datum(ext)
    res = h1(d)
    assert res["exact"]
    # classical: Z1(Z2, Z3-inv) has order 3, all derivations principal
    assert res["Z1_order"] == 3
    assert res["PDer_order"] == 3
    assert res["order"] == 1


def test_trivial_action_examples(z4_datum, cat):
    d, _ = z4_datum
    assert trivial_action_check(d)
    ext = group_extension(cat["S3"], [0, 3, 4])
    d_s3, _ = extract_datum(ext)
    assert not trivial_action_check(d_s3)


def test_compare_variety_subgroups(z4_datum, group_eqs, abelian_eqs):
    d, _ = z4_datum
    same = compare_variety_subgroups(d, group_eqs, group_eqs)
    assert same["holds"]
    assert same["sizes"]["Z2_1"] == same["sizes"]["Z2_union"]
    rep = compare_variety_subgroups(d, group_eqs, abelian_eqs)
    assert rep["holds"], rep
    assert rep["sizes"]["H2_union"] <= rep["sizes"]["H2_1"]


def test_compare_rejects_noncontaining_set(z4_datum, group_eqs):
    d, _ = z4_datum
    inconsistent = [(parse_term("(mul x0 x1)"), parse_term("e"))]
    rep = compare_variety_subgroups(d, group_eqs, inconsistent)
    assert not rep["holds"]
    assert rep["witness"]["reason"] == "datum not contained"


def test_h2_class_count_matches_gamma_classes(z4_datum, group_eqs):
    """Independent count: partition Z2 by the gamma-search equivalence."""
    from affext.cohomology import stabilizing_isomorphism
    d, _ = z4_datum
    z2 = cocycle_group(d, group_eqs)
    exts = {s: reconstruct(d, s) for s in z2.serialized}
    reps = []
    for s in z2.serialized:
        if not any(stabilizing_isomorphism(exts[s], exts[r]) is not None
                   for r in reps):
            reps.append(s)
    assert len(reps) == h2(d, group_eqs).order


def test_fiber_sum_order_independence(z4_datum):
    """Left-associated sums over a fiber do not depend on the order."""
    import itertools
    d, _ = z4_datum
    for q in range(d.qsize()):
        fib = d.fiber(q)
        for values in itertools.product(fib, repeat=3):
            sums = {d.sum_at(q, list(perm))
                    for perm in itertools.permutations(values)}
            assert len(sums) == 1


def test_nontrivial_action_fails_commutativity(cat):
    """Conjugation on the S3 kernel is incompatible with commutativity even
    though the quotient satisfies it, in both compatibility semantics."""
    from affext.datum import check_action_compatible, extract_datum, group_extension
    ext = group_extension(cat["S3"], [0, 3, 4])
    d, _ = extract_datum(ext)
    comm = [(parse_term("(mul x0 x1)"), parse_term("(mul x1 x0)"))]
    weak = check_action_compatible(d, comm, mode="weak")
    assert not weak["holds"] and weak["witness"]
    full = check_action_compatible(d, comm, mode="full")
    assert not full["holds"] and full["witness"]


def test_variety_comparison_proper_containment(cat, group_eqs, abelian_eqs):
    """Over the Z2-by-Z2xZ2 datum the abelian classes form a proper
    subgroup of H2: 4 of 8 classes, exactly the abelian extensions."""
    from affext.groups import trivial_action
    from affext.verify import datum_for_oracle_case
    d, _ = datum_for_oracle_case(cat, "Z2", "Z2xZ2", trivial_action)
    rep = compare_variety_subgroups(d, group_eqs, abelian_eqs)
    assert rep["holds"], rep
    assert rep["sizes"] == {"Z2_1": 32, "Z2_2": 16, "Z2_union": 16,
                            "H2_1": 8, "H2_2": 4, "H2_union": 4}
    res = h2(d, abelian_eqs)
    assert res.class_types() == ["Z2xZ2xZ2", "Z2xZ4", "Z2xZ4", "Z2xZ4"]


def test_no_cyclic_garbage(z4_datum, group_eqs, cat):
    """h2, h1 and find_isomorphism leave no reference cycles behind, so
    what they allocate is freed on return, not at the next full collection."""
    import gc
    from affext.algebras import find_isomorphism
    d, _ = z4_datum
    gc.collect()
    gc.disable()
    try:
        h2(d, group_eqs)
        h1(d)
        find_isomorphism(cat["Z4"], cat["Z4"])
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("call", ["algebra json", "datum json", "linearize"])
def test_serialization_and_linearize_leave_no_cycles(z4_datum, cat, call):
    import gc
    from affext.serialization import (algebra_from_json, algebra_to_json,
                                      datum_to_json)
    from affext.terms import linearize_term, parse_term
    d, _ = z4_datum
    run = {"algebra json": lambda: algebra_from_json(algebra_to_json(cat["D4"])),
           "datum json": lambda: datum_to_json(d),
           "linearize": lambda: linearize_term(
               parse_term("(mul x0 (mul (inv x1) x0))"))}[call]
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
