"""The subpower-closure kernel against a naive round-by-round fixpoint,
and the twin pairs and PDer against the tables they used to be built on."""

import hashlib
import random
from itertools import product

import pytest

import affext.algebras as algebras
from affext.algebras import (FiniteAlgebra, Signature, closure, power_algebra,
                             subalgebra_generate)
from affext.cocycles import reconstruct
from affext.cohomology import principal_derivations, twin_pairs_of_identity
from affext.congruences import Congruence, pair_algebra
from affext.datum import extract_datum, group_extension
from affext.groups import catalog, cyclic


def naive_rounds(alg, k, gens):
    """The naive fixpoint a round at a time.  The constants join the
    generators, and the seeds come first, sorted; then each round applies
    every operation coordinatewise to every argument tuple over the current
    set and yields its new elements sorted, until a round adds nothing.
    The empty set adds nothing without a round."""
    current = set(seeds_of(alg, k, gens))
    yield sorted(current)
    while current:
        step = set(current)
        for sym, ar in alg.signature.symbols:
            for args in product(current, repeat=ar):
                step.add(tuple(alg.apply(sym, [a[j] for a in args])
                               for j in range(k)))
        yield sorted(step - current)
        if step == current:
            return
        current = step


def naive_closure(alg, k, gens, max_rounds=None):
    """At most max_rounds naive rounds: the elements in the order found, and
    exact, which means a round added nothing."""
    rounds = naive_rounds(alg, k, gens)
    elems = next(rounds)
    if not elems:
        return elems, True
    done = 0
    while max_rounds is None or done < max_rounds:
        new = next(rounds)
        done += 1
        if not new:
            return elems, True
        elems = elems + new
    return elems, False


def naive_by_depth(alg, k, gens, depths):
    """naive_closure for each max_rounds in depths, from one run."""
    history = list(naive_rounds(alg, k, gens))
    return {r: (sum(history[:r + 1], []),
                not history[0] or r >= len(history) - 1) for r in depths}


def seeds_of(alg, k, gens):
    return sorted(set(gens) | {(alg.tables[s][0],) * k
                               for s, ar in alg.signature.symbols if ar == 0})


def random_algebra(rng):
    n = rng.randint(1, 4)
    symbols = [("f%d" % i, rng.randint(0, 3)) for i in range(rng.randint(1, 2))]
    tables = {s: tuple(rng.randrange(n) for _ in range(n ** ar)) for s, ar in symbols}
    return FiniteAlgebra(n, Signature(symbols), tables)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closure_matches_naive_fixpoint(k):
    rng = random.Random(k)
    for _ in range(40):
        alg = random_algebra(rng)
        gens = [tuple(rng.randrange(alg.size) for _ in range(k))
                for _ in range(rng.randint(0, 2))]
        for max_rounds in (None, 1, 2):
            elems, exact = closure(alg, k, gens, max_rounds=max_rounds)
            assert len(elems) == len(set(elems))
            naive, naive_exact = naive_closure(alg, k, gens, max_rounds)
            assert (set(elems), exact) == (set(naive), naive_exact)
            seeds = seeds_of(alg, k, gens)
            assert elems[:len(seeds)] == seeds
        if k == 1:
            assert subalgebra_generate(alg, [g[0] for g in gens]) == sorted(
                t[0] for t in naive_closure(alg, 1, gens)[0])


def associative_tables(n):
    """Every associative binary table on {0..n-1}, by the triple loop."""
    return [tab for tab in product(range(n), repeat=n * n)
            if all(tab[tab[x * n + y] * n + z] == tab[x * n + tab[y * n + z]]
                   for x in range(n) for y in range(n) for z in range(n))]


ASSOCIATIVE = {n: associative_tables(n) for n in (1, 2, 3)}


@pytest.fixture
def semigroup_calls(monkeypatch):
    """The algebras closure sent down the semigroup path, in call order."""
    calls = []
    real = algebras._semigroup_closure

    def spy(alg, seeds, mul):
        calls.append(alg)
        return real(alg, seeds, mul)

    monkeypatch.setattr(algebras, "_semigroup_closure", spy)
    return calls


def check_against_naive(alg, k, gens):
    elems, exact = closure(alg, k, gens)
    assert exact and len(elems) == len(set(elems))
    assert set(elems) == set(naive_closure(alg, k, gens)[0])
    seeds = seeds_of(alg, k, gens)
    assert elems[:len(seeds)] == seeds


def test_associative_tables_counted():
    # 1, 8 and 113 associative tables on 1, 2 and 3 elements
    assert [len(ASSOCIATIVE[n]) for n in (1, 2, 3)] == [1, 8, 113]
    for n, tables in ASSOCIATIVE.items():
        everything = product(range(n), repeat=n * n)
        assert [t for t in everything if algebras._is_associative(t, n)] == tables


@pytest.mark.parametrize("k", [1, 2, 3])
def test_semigroup_path_matches_naive_fixpoint(k, semigroup_calls):
    """Every associative table on at most 3 elements, with 0-2 random extra
    operations of arity 0-3 and 0-2 random generators."""
    rng = random.Random(100 + k)
    runs = 0
    for n, tables in ASSOCIATIVE.items():
        for tab in tables:
            extra = [("f%d" % i, rng.randint(0, 3)) for i in range(rng.randint(0, 2))]
            ops = {sym: tuple(rng.randrange(n) for _ in range(n ** ar))
                   for sym, ar in extra}
            alg = FiniteAlgebra(n, Signature([("mul", 2)] + extra), dict(ops, mul=tab))
            gens = [tuple(rng.randrange(n) for _ in range(k))
                    for _ in range(rng.randint(0, 2))]
            check_against_naive(alg, k, gens)
            runs += 1
    assert len(semigroup_calls) == runs == 122


@pytest.mark.parametrize("k", [1, 2])
def test_semigroup_path_on_catalog_groups(k, semigroup_calls):
    rng = random.Random(k)
    groups = [g for g in catalog().values() if g.size <= 6]
    for g in groups:
        for _ in range(6):
            gens = [tuple(rng.randrange(g.size) for _ in range(k))
                    for _ in range(rng.randint(0, 3))]
            check_against_naive(g, k, gens)
    assert len(semigroup_calls) == 6 * len(groups)


def test_pair_algebra_reads_associativity_off_its_base(monkeypatch, semigroup_calls):
    tested = []
    real = algebras._is_associative
    monkeypatch.setattr(algebras, "_is_associative",
                        lambda tab, n: tested.append(n) or real(tab, n))
    s3 = catalog()["S3"]
    g = FiniteAlgebra(s3.size, s3.signature, s3.tables)  # nothing tested yet
    pa = pair_algebra(g, Congruence.from_blocks(6, [[0, 3, 4], [1, 2, 5]]))
    gens = [(0, 5), (7, 7)]
    check_against_naive(pa, 2, gens)
    check_against_naive(pa, 1, [(3,)])
    assert semigroup_calls == [pa, pa]
    assert tested == [g.size]  # the base's mul, once
    square = power_algebra(g, 2)
    poly, _ = polynomial_algebra(g)
    assert square.associative_ops() == poly.associative_ops() == ("mul",)
    assert tested == [g.size]


def test_pder_builds_no_table_and_bases_are_tested_once(monkeypatch,
                                                       semigroup_calls):
    """PDer spans its generators in the fiber groups and the twin pairs
    close 2n-tuples in A_0 itself: the one closure is A_0's, and the one
    table tested for associativity is A_0's mul, once."""
    tested = []
    real = algebras._is_associative
    monkeypatch.setattr(algebras, "_is_associative",
                        lambda tab, n: tested.append(tab) or real(tab, n))
    d, _ = extract_datum(group_extension(catalog()["S3"], [0, 3, 4]))
    del semigroup_calls[:], tested[:]
    principal_derivations(d)
    a0, = semigroup_calls
    assert (a0.name, a0.size) == ("A_0", 6)
    assert tested == [a0.tables["mul"]]


def test_bounded_closure_on_a_non_associative_algebra_keeps_the_round_path(
        semigroup_calls):
    sums = FiniteAlgebra(3, Signature([("add", 2)]),
                         {"add": (0, 0, 0, 1, 1, 1, 2, 2, 0)})
    assert sums.associative_ops() == ()
    for r in range(6):
        assert closure(sums, 2, [(1, 2)], max_rounds=r) == naive_closure(
            sums, 2, [(1, 2)], r)
    assert semigroup_calls == []


def check_bounded_against_naive(alg, k, gens, depths=range(6)):
    """closure with max_rounds r against naive_closure, in element order
    and in exact, for every r in depths."""
    for r, naive in naive_by_depth(alg, k, gens, depths).items():
        assert closure(alg, k, gens, max_rounds=r) == naive, r


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bounded_closure_matches_naive_rounds_on_associative_tables(
        k, semigroup_calls):
    rng = random.Random(200 + k)
    runs = 0
    for n, tables in ASSOCIATIVE.items():
        for tab in tables:
            extra = [("f%d" % i, rng.randint(0, 3)) for i in range(rng.randint(0, 2))]
            ops = {sym: tuple(rng.randrange(n) for _ in range(n ** ar))
                   for sym, ar in extra}
            alg = FiniteAlgebra(n, Signature([("mul", 2)] + extra), dict(ops, mul=tab))
            gens = [tuple(rng.randrange(n) for _ in range(k))
                    for _ in range(rng.randint(0, 2))]
            check_bounded_against_naive(alg, k, gens)
            runs += 1
    # max_rounds 1..5 size the subuniverse by the semigroup path; 0 does not
    assert len(semigroup_calls) == 5 * runs


@pytest.mark.parametrize("k", [1, 2])
def test_bounded_closure_matches_naive_rounds_on_catalog_groups(k):
    rng = random.Random(300 + k)
    for g in catalog().values():
        for _ in range(3):
            gens = [tuple(rng.randrange(g.size) for _ in range(k))
                    for _ in range(rng.randint(0, 3))]
            check_bounded_against_naive(g, k, gens)


def polynomial_algebra(alg):
    """The unary polynomial maps of alg (the closure of the identity and the
    constants in alg**n) as an algebra under pointwise operations, with the
    list of maps its elements stand for: the table the twin pairs were once
    closed in."""
    n = alg.size
    maps, _ = closure(alg, n, [tuple(range(n))] + [(c,) * n for c in range(n)])
    return FiniteAlgebra.subpower(alg, maps), maps


def twin_pair_closure(alg, theta):
    """The polynomial algebra and the seeds the twin pairs close in its
    square: (id, id) and (c, e) for c, e in one theta block."""
    n = alg.size
    poly, maps = polynomial_algebra(alg)
    index = {g: i for i, g in enumerate(maps)}
    seeds = [(index[tuple(range(n))],) * 2]
    seeds += [(index[(c,) * n], index[(e,) * n])
              for block in theta.blocks() for c in block for e in block]
    return poly, maps, seeds


def polynomial_twin_pairs(alg, theta, depth_cap):
    """twin_pairs_of_identity as the closure in the square of the
    polynomial algebra."""
    poly, maps, seeds = twin_pair_closure(alg, theta)
    pairs, exact = closure(poly, 2, seeds, max_rounds=depth_cap)
    return {(maps[g], maps[h]) for g, h in pairs}, exact


@pytest.mark.parametrize("group, kernel, size, covered", [
    ("D4", [0, 2, 4, 6], 1024, 3),   # rotations: the subuniverse after round 3
    ("Q8", [0, 2, 4, 6], 1024, 3),
    ("Z12", [0, 4, 8], 432, 4),      # exactly at the default depth cap
])
def test_bounded_twin_pair_closure_matches_naive_rounds(group, kernel, size, covered):
    g = cyclic(12) if group == "Z12" else catalog()[group]
    alg, theta = semidirect(g, kernel)
    poly, _, seeds = twin_pair_closure(alg, theta)
    naive = naive_by_depth(poly, 2, seeds, range(6))
    for r in range(6):
        assert closure(poly, 2, seeds, max_rounds=r) == naive[r], r
    assert [len(naive[r][0]) == size for r in range(6)].index(True) == covered
    assert [naive[r][1] for r in range(6)] == [r > covered for r in range(6)]


def naive_twin_pairs(alg, theta, depth_caps):
    """Twin pairs of the identity from the naive fixpoint alone, for each
    depth cap: the unary polynomials in alg**n, their pointwise algebra,
    then the pairs."""
    n = alg.size
    maps, _ = naive_closure(alg, n, [tuple(range(n))] + [(c,) * n for c in range(n)])
    maps = sorted(maps)
    index = {g: i for i, g in enumerate(maps)}
    tables = {sym: tuple(index[tuple(alg.apply(sym, [g[x] for g in args])
                                     for x in range(n))]
                         for args in product(maps, repeat=ar))
              for sym, ar in alg.signature.symbols}
    poly = FiniteAlgebra(len(maps), alg.signature, tables)
    seeds = [(index[tuple(range(n))],) * 2]
    seeds += [(index[(c,) * n], index[(e,) * n])
              for block in theta.blocks() for c in block for e in block]
    out = {}
    for depth_cap in depth_caps:
        pairs, exact = naive_closure(poly, 2, seeds, depth_cap)
        out[depth_cap] = {(maps[g], maps[h]) for g, h in pairs}, exact
    return out


def semidirect(alg, kernel):
    d, _ = extract_datum(group_extension(alg, kernel))
    a0 = reconstruct(d, d.trivial_cocycle())
    return a0.alg, a0.beta


def digest(pairs):
    return hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()


def test_twin_pairs_z12_z3_match_naive_fixpoint():
    alg, theta = semidirect(cyclic(12), [0, 4, 8])
    for depth_cap, naive in naive_twin_pairs(alg, theta, (1, 2, 4)).items():
        assert twin_pairs_of_identity(alg, theta, depth_cap=depth_cap) == naive
    pairs, exact = twin_pairs_of_identity(alg, theta)
    assert (len(pairs), exact) == (432, False)
    assert digest(pairs) == (
        "7eb8b252ccf6a133a024bea4695424cbce33531947f747ad3807aee92773415f")


def test_twin_pairs_s3_z3_match_naive_fixpoint():
    alg, theta = semidirect(catalog()["S3"], [0, 3, 4])
    for depth_cap, naive in naive_twin_pairs(alg, theta, (1, 2)).items():
        assert twin_pairs_of_identity(alg, theta, depth_cap=depth_cap) == naive
    # naive_twin_pairs at the default depth 4 takes ~25 s; its result:
    pairs, exact = twin_pairs_of_identity(alg, theta)
    assert (len(pairs), exact) == (2916, True)
    assert digest(pairs) == (
        "2f39feaf17119de56b6a0c1f3ef1665208ef9d5c96b0bd5cc968188e09923778")


@pytest.mark.parametrize("group, kernel", [
    ("D4", [0, 2, 4, 6]),   # rotations
    ("Q8", [0, 2, 4, 6]),   # Z4
    ("Z12", [0, 4, 8]),
    ("Z14", [0, 7]),
])
def test_twin_pairs_match_the_polynomial_square(group, kernel):
    """The 2n-tuple closure in A_0 gives the pairs and exact of the closure
    in the square of the polynomial algebra, at every depth cap 0-5."""
    g = cyclic(int(group[1:])) if group[0] == "Z" else catalog()[group]
    alg, theta = semidirect(g, kernel)
    for depth_cap in range(6):
        assert twin_pairs_of_identity(alg, theta, depth_cap=depth_cap) == \
            polynomial_twin_pairs(alg, theta, depth_cap), depth_cap


def test_pder_matches_the_closure_of_its_sums_table(cat):
    """principal_derivations spans its generators; the closure of the
    generators in the cross-fiber sums algebra it once built gives the
    same subgroup."""
    from affext.cohomology import principal_stabilizers
    for name, kernel in [("S3", [0, 3, 4]), ("D4", [0, 2, 4, 6]),
                         ("Q8", [0, 2, 4, 6]), ("Z2xZ2xZ2", [0, 1])]:
        d, _ = extract_datum(group_extension(cat[name], kernel))
        nq = d.qsize()
        _, pstab, _ = principal_stabilizers(d)
        gens = [tuple(gamma[d.delta_l(q)] for q in range(nq)) for gamma in pstab]
        fiber, size = d.dc.rho_class, d.dc.size
        add = tuple(d.plus_at(fiber[x], x, y) if fiber[x] == fiber[y] else x
                    for x in range(size) for y in range(size))
        sums = FiniteAlgebra(size, Signature([("add", 2)]), {"add": add})
        sub, _ = closure(sums, nq, [tuple(d.delta_l(q) for q in range(nq))] + gens)
        assert principal_derivations(d)[0] == sorted(sub), name
