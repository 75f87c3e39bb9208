import random
from itertools import product

import pytest

from affext.algebras import (AlgebraError, FiniteAlgebra, Signature,
                             find_isomorphism, is_homomorphism, power_algebra,
                             quotient_algebra, subalgebra_generate,
                             tuple_decode)
from affext.congruences import Congruence, cg

from oracles import backtracking_isomorphism, tuple_encode


def test_subalgebra_examples(cat):
    z4 = cat["Z4"]
    assert subalgebra_generate(z4, [0]) == [0]
    assert subalgebra_generate(z4, [1]) == [0, 1, 2, 3]
    assert subalgebra_generate(z4, [2]) == [0, 2]


def test_subalgebra_empty_gens_returns_constants(cat):
    assert subalgebra_generate(cat["Z4"], []) == [0]


def test_subalgebra_closure_laws(cat):
    """Monotone, idempotent, extensive on random generator sets."""
    rng = random.Random(0)
    for name in ("Z4", "D4", "S3", "Z2xZ4"):
        alg = cat[name]
        for _ in range(20):
            gens = rng.sample(range(alg.size), rng.randrange(1, 3))
            more = gens + rng.sample(range(alg.size), 1)
            s1 = set(subalgebra_generate(alg, gens))
            s2 = set(subalgebra_generate(alg, more))
            assert set(gens) <= s1
            assert s1 <= s2
            assert set(subalgebra_generate(alg, sorted(s1))) == s1


def test_power_identity(cat):
    z4 = cat["Z4"]
    p1 = power_algebra(z4, 1)
    assert p1.size == 4
    assert p1.tables["mul"] == z4.tables["mul"]


def test_power_z2_squared(cat):
    p = power_algebra(cat["Z2"], 2)
    # (0,1)*(1,1) = (1,0) under the leftmost-most-significant encoding
    a = tuple_encode((0, 1), 2)
    b = tuple_encode((1, 1), 2)
    assert tuple_decode(p.op("mul", a, b), 2, 2) == (1, 0)


def test_power_z4_fourth_spot_checks(cat):
    z4 = cat["Z4"]
    p = power_algebra(z4, 4)
    assert p.size == 256
    rng = random.Random(1)
    for _ in range(30):
        xs = tuple(rng.randrange(4) for _ in range(4))
        ys = tuple(rng.randrange(4) for _ in range(4))
        expect = tuple(z4.op("mul", x, y) for x, y in zip(xs, ys))
        got = p.op("mul", tuple_encode(xs, 4), tuple_encode(ys, 4))
        assert tuple_decode(got, 4, 4) == expect


def test_quotient_by_equality(cat):
    z4 = cat["Z4"]
    q, bm = quotient_algebra(z4, Congruence.equality(4))
    assert q.size == 4 and bm == [0, 1, 2, 3]
    assert find_isomorphism(q, z4) is not None


def test_quotient_z4_mod2(cat):
    q, bm = quotient_algebra(cat["Z4"], Congruence.from_blocks(4, [[0, 2], [1, 3]]))
    assert q.size == 2
    assert find_isomorphism(q, cat["Z2"]) is not None


def test_quotient_all(cat):
    q, _ = quotient_algebra(cat["Z4"], Congruence.all(4))
    assert q.size == 1


def test_quotient_incompatible_partition(cat):
    bad = Congruence.from_blocks(4, [[0, 1], [2], [3]])
    with pytest.raises(AlgebraError):
        quotient_algebra(cat["Z4"], bad)


def test_quotient_composition(cat):
    """(A/theta)/(phi/theta) ~= A/phi for theta <= phi."""
    for name in ("Z4", "Z2xZ4", "D4"):
        alg = cat[name]
        theta = cg(alg, [(0, alg.size - 1)])
        phi = theta.join(cg(alg, [(0, 1)]))
        q1, bm1 = quotient_algebra(alg, phi)
        mid, bm_mid = quotient_algebra(alg, theta)
        # phi/theta as a partition of the middle quotient
        blocks = {}
        for x in range(alg.size):
            blocks.setdefault(phi.rep[x], set()).add(bm_mid[x])
        phi_over = Congruence.from_blocks(mid.size, [sorted(b) for b in blocks.values()])
        q2, _ = quotient_algebra(mid, phi_over)
        assert find_isomorphism(q1, q2) is not None


def test_iso_identity(cat):
    z4 = cat["Z4"]
    assert find_isomorphism(z4, z4) is not None


def test_iso_z4_v4_none(cat):
    assert find_isomorphism(cat["Z4"], cat["Z2xZ2"]) is None


def test_iso_relabeled(cat):
    z4 = cat["Z4"]
    perm = [0, 3, 2, 1]
    inv = [perm.index(i) for i in range(4)]
    tables = {
        "mul": tuple(perm[z4.op("mul", inv[a], inv[b])]
                     for a in range(4) for b in range(4)),
        "inv": tuple(perm[z4.op("inv", inv[a])] for a in range(4)),
        "e": (perm[0],),
    }
    relabeled = FiniteAlgebra(4, z4.signature, tables, name="Z4'")
    iso = find_isomorphism(z4, relabeled)
    assert iso is not None
    assert is_homomorphism(iso, z4, relabeled)


def test_profile_invariant_is_memoized_and_iso_invariant(cat):
    """The invariant the h2 namer buckets by: computed once per algebra,
    equal on a relabelled copy, and the pruning find_isomorphism applies."""
    from affext.algebras import _invariant, _profiles
    rng = random.Random(7)
    for g in cat.values():
        perm = list(range(g.size))
        rng.shuffle(perm)
        inv = [perm.index(i) for i in range(g.size)]
        tables = {sym: tuple(perm[g.tables[sym][tuple_encode([inv[x] for x in args], g.size)]]
                             for args in product(range(g.size), repeat=ar))
                  for sym, ar in g.signature.symbols}
        copy = FiniteAlgebra(g.size, g.signature, tables)
        assert _profiles(g) is _profiles(g)
        assert _invariant(g) == tuple(sorted(_profiles(g))) == _invariant(copy)
    for a in cat.values():
        for b in cat.values():
            if a.size == b.size and _invariant(a) != _invariant(b):
                assert find_isomorphism(a, b) is None


def test_iso_checks_entries_whose_value_is_assigned_last():
    """XNOR and AND on {0, 1} have equal invariants, and the identity agrees
    on every entry whose value has its image before its arguments, but no
    bijection is a homomorphism."""
    sig = Signature([("f", 2)])
    xnor = FiniteAlgebra(2, sig, {"f": (1, 0, 0, 1)})
    conj = FiniteAlgebra(2, sig, {"f": (0, 0, 0, 1)})
    assert find_isomorphism(xnor, conj) is None
    assert backtracking_isomorphism(xnor, conj) is None


def test_iso_matches_the_backtracking_on_the_catalog(cat):
    """The first isomorphism on every catalog pair of one order, and onto a
    relabelled copy of each group."""
    rng = random.Random(3)
    for a in cat.values():
        perm = list(range(a.size))
        rng.shuffle(perm)
        inv = [perm.index(i) for i in range(a.size)]
        copy = FiniteAlgebra(a.size, a.signature, {
            sym: tuple(perm[a.tables[sym][tuple_encode([inv[x] for x in args], a.size)]]
                       for args in product(range(a.size), repeat=ar))
            for sym, ar in a.signature.symbols})
        for b in [copy] + [b for b in cat.values() if b.size == a.size]:
            iso = find_isomorphism(a, b)
            assert iso == backtracking_isomorphism(a, b)
            assert (iso is not None) == (b is copy or b is a)


def test_iso_size_mismatch(cat):
    assert find_isomorphism(cat["Z4"], cat["Z2"]) is None


def test_iso_all_order8_catalog_types_distinct(cat):
    names = ["Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8"]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert find_isomorphism(cat[a], cat[b]) is None, (a, b)


def loop_is_homomorphism(mapping, a, b):
    """The reference: one apply per argument tuple of every operation."""
    if a.signature != b.signature:
        return False
    for sym, ar in a.signature.symbols:
        for args in product(range(a.size), repeat=ar):
            if mapping[a.apply(sym, args)] != b.apply(sym, tuple(mapping[x] for x in args)):
                return False
    return True


def test_is_homomorphism_matches_the_loop(cat):
    """Random maps between catalog groups, and maps that are homomorphisms:
    identities, isomorphisms onto relabelled copies and trivial maps."""
    rng = random.Random(7)
    groups = list(cat.values())
    cases = []
    for _ in range(300):
        a, b = rng.choice(groups), rng.choice(groups)
        cases.append(([rng.randrange(b.size) for _ in range(a.size)], a, b))
    for g in groups:
        e = g.tables["e"][0]
        cases.append((list(range(g.size)), g, g))
        cases.append(([e] * g.size, g, g))
        cases.append(([e], cat["Z1"], g))
        cases.append(([0] * g.size, g, cat["Z1"]))
        perm = rng.sample(range(g.size), g.size)
        inv = [0] * g.size
        for x, y in enumerate(perm):
            inv[y] = x
        tables = {sym: tuple(perm[g.apply(sym, tuple(inv[y] for y in args))]
                             for args in product(range(g.size), repeat=ar))
                  for sym, ar in g.signature.symbols}
        relabelled = FiniteAlgebra(g.size, g.signature, tables)
        cases.append((perm, g, relabelled))
        cases.append((rng.sample(range(g.size), g.size), g, relabelled))
    # every map keeps a left-zero mul, so the constant alone decides
    left_zero = Signature([("mul", 2), ("c", 0)])
    a, b = (FiniteAlgebra(2, left_zero, {"mul": (0, 0, 1, 1), "c": (c,)}) for c in (0, 1))
    cases += [([1, 0], a, b), ([0, 1], a, b), ([0, 1], cat["Z2"], a)]
    verdicts = [is_homomorphism(*case) for case in cases]
    assert verdicts == [loop_is_homomorphism(*case) for case in cases]
    assert sum(verdicts) >= 5 * len(groups) and verdicts[-3:] == [True, False, False]
