"""The subpower-closure kernel against a naive round-by-round fixpoint,
and the twin pairs and PDer against the tables they used to be built on."""

import copy
import hashlib
import random
from itertools import islice, product

import pytest

import affext.algebras as algebras
from affext.algebras import (GROUP_SIGNATURE, CapExceeded, FiniteAlgebra,
                             Signature, closure, power_algebra,
                             subalgebra_generate)
from affext.cocycles import reconstruct
from affext.cohomology import principal_derivations, twin_pairs_of_identity
from affext.congruences import Congruence, all_congruences, pair_algebra
from affext.datum import extract_datum, group_extension
from affext.groups import catalog, cyclic, is_group


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


def naive_closure(alg, k, gens):
    """The naive fixpoint: the elements in the order the rounds found them."""
    return sum(naive_rounds(alg, k, gens), [])


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
        elems = closure(alg, k, gens)
        assert len(elems) == len(set(elems))
        assert set(elems) == set(naive_closure(alg, k, gens))
        seeds = seeds_of(alg, k, gens)
        assert elems[:len(seeds)] == seeds
        if k == 1:
            assert subalgebra_generate(alg, [g[0] for g in gens]) == sorted(
                t[0] for t in naive_closure(alg, 1, gens))


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
    elems = closure(alg, k, gens)
    assert len(elems) == len(set(elems))
    assert set(elems) == set(naive_closure(alg, k, gens))
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


def test_is_group_op_picks_the_groups_among_associative_tables(cat):
    """1, 2 and 3 of the 1, 8 and 113 associative tables on 1-3 elements
    are groups: those that is_group accepts with some identity and
    inverse; and every catalog group's mul."""
    picked = []
    for n, tables in ASSOCIATIVE.items():
        for tab in tables:
            alg = FiniteAlgebra(n, Signature([("mul", 2)]), {"mul": tab})
            grouplike = any(
                is_group(FiniteAlgebra(n, GROUP_SIGNATURE,
                                       {"mul": tab, "inv": inv, "e": (e,)}))
                for e in range(n) for inv in product(range(n), repeat=n))
            assert alg.is_group_op("mul") == grouplike
            picked.append((n, grouplike))
    assert [picked.count((n, True)) for n in (1, 2, 3)] == [1, 2, 3]
    for g in cat.values():
        assert g.is_group_op("mul") == is_group(g)
        assert not g.is_group_op("inv")


def batch_loop(alg):
    """A copy of alg that closure takes for a plain semigroup: the batch
    loop, with no coset step, is the oracle for the coset step."""
    batch = copy.copy(alg)
    batch._latin = dict(alg._latin, mul=False)
    return batch


def check_coset_step(alg, k, gens, naive=True):
    """The closure in a group against the batch loop and, where naive,
    against naive_closure, as sets, with the seeds first."""
    assert alg.is_group_op("mul")
    elems = closure(alg, k, gens)
    assert len(elems) == len(set(elems))
    seeds = seeds_of(alg, k, gens)
    assert elems[:len(seeds)] == seeds
    assert set(elems) == set(closure(batch_loop(alg), k, gens))
    if naive:
        assert set(elems) == set(naive_closure(alg, k, gens))
    return elems


@pytest.mark.parametrize("k", [1, 2, 3])
def test_coset_step_on_catalog_groups(k, cat, semigroup_calls):
    """Random generators and 0-2 random extra operations of arity 0-2;
    naive_closure where the group's k-th power has at most 64 elements."""
    rng = random.Random(400 + k)
    runs = 0
    for g in cat.values():
        n = g.size
        for _ in range(4):
            extra = [("f%d" % i, rng.randint(0, 2)) for i in range(rng.randint(0, 2))]
            tables = dict(g.tables, **{sym: tuple(rng.randrange(n) for _ in range(n ** ar))
                                       for sym, ar in extra})
            alg = FiniteAlgebra(n, Signature(list(g.signature.symbols) + extra), tables)
            gens = [tuple(rng.randrange(n) for _ in range(k))
                    for _ in range(rng.randint(0, 3))]
            check_coset_step(alg, k, gens, naive=n ** k <= 64)
            runs += 2
    assert len(semigroup_calls) == runs


def test_coset_step_on_pair_algebras(cat):
    """A(alpha) of every catalog group and alpha, in its square; it reads
    its group operation off its base."""
    rng = random.Random(5)
    for g in cat.values():
        for alpha in all_congruences(g):
            pa = pair_algebra(g, alpha)
            gens = [tuple(rng.randrange(pa.size) for _ in range(2))
                    for _ in range(rng.randint(1, 3))]
            check_coset_step(pa, 2, gens, naive=pa.size <= 8)


@pytest.fixture
def images_calls(monkeypatch):
    """The operation tables each semi-naive step of closure ran, per call."""
    calls = []
    real = algebras._images

    def spy(ops, *args):
        calls.append([tab for tab, _ in ops])
        return real(ops, *args)

    monkeypatch.setattr(algebras, "_images", spy)
    return calls


def checked_images(alg, k, gens, images_calls, naive):
    """The tables closure(alg, k, gens) ran semi-naively, once
    check_coset_step has compared that closure with its oracles (whose
    batch loop runs every operation)."""
    del images_calls[:]
    closure(alg, k, gens)
    ran = list(images_calls)
    check_coset_step(alg, k, gens, naive=naive)
    return ran


@pytest.mark.parametrize("k", [1, 2])
def test_group_inverse_is_skipped(k, cat, images_calls):
    """In a catalog group {mul, inv, e} the span closed under mul is a
    subgroup, so inv is never run, and the closure is still naive_closure's."""
    rng = random.Random(600 + k)
    for g in cat.values():
        assert g.group_inverses("mul") == {"inv"}
        for _ in range(3):
            gens = [tuple(rng.randrange(g.size) for _ in range(k))
                    for _ in range(rng.randint(0, 3))]
            assert checked_images(g, k, gens, images_calls, g.size ** k <= 64) == []


@pytest.mark.parametrize("k", [1, 2])
def test_other_permutations_are_still_applied(k, cat, images_calls):
    """A unary permutation that is not the inverse (the inverse followed
    by a right shift, or a random permutation unless it happens to be the
    inverse) is not skipped: it runs alone, with inv skipped."""
    rng = random.Random(700 + k)
    for g in cat.values():
        n = g.size
        if n == 1:
            continue
        shifted = tuple(g.tables["mul"][x * n + 1] for x in g.tables["inv"])
        for extra in (shifted, tuple(rng.sample(range(n), n))):
            sig = Signature(list(g.signature.symbols) + [("p", 1)])
            alg = FiniteAlgebra(n, sig, dict(g.tables, p=extra))
            inverse = extra == g.tables["inv"]
            assert alg.group_inverses("mul") == ({"inv", "p"} if inverse else {"inv"})
            gens = [tuple(rng.randrange(n) for _ in range(k))]
            ran = checked_images(alg, k, gens, images_calls, n ** k <= 64)
            assert ran == [] if inverse else ran and all(t == [extra] for t in ran)
    # x -> x + 1 takes the identity to 1, so {e} alone is not closed
    z4 = cat["Z4"]
    plus1 = FiniteAlgebra(4, Signature(list(z4.signature.symbols) + [("p", 1)]),
                          dict(z4.tables, p=(1, 2, 3, 0)))
    assert sorted(closure(plus1, 1, [])) == [(0,), (1,), (2,), (3,)]


def test_pair_algebras_inherit_the_group_inverses(cat, images_calls):
    """A(alpha) copies its base's inverses when it is built, testing no
    table of its own, and skips them; its closures match naive_closure."""
    rng = random.Random(8)
    for g in cat.values():
        for alpha in all_congruences(g):
            pa = pair_algebra(g, alpha)
            assert pa._inverses == {"mul": {"inv"}}
            gens = [tuple(rng.randrange(pa.size) for _ in range(2))
                    for _ in range(rng.randint(1, 2))]
            assert checked_images(pa, 2, gens, images_calls, pa.size <= 8) == []
            assert checked_images(pa, 1, [t[:1] for t in gens], images_calls, True) == []


@pytest.mark.parametrize("group", ["Z8", "D4", "Q8"])
def test_coset_step_on_twin_pairs(group, cat):
    """The twin-pair closures of the order-4 kernels, 2n-tuples in A_0."""
    alg, theta = semidirect(cat[group], [0, 2, 4, 6])
    n = alg.size
    seeds = [tuple(range(n)) * 2] + [(c,) * n + (e,) * n for block in theta.blocks()
                                     for c in block for e in block]
    pairs = check_coset_step(alg, 2 * n, seeds, naive=False)
    assert {(t[:n], t[n:]) for t in pairs} == twin_pairs_of_identity(alg, theta)[0]


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
        semigroup_calls, monkeypatch):
    """The round path runs to the fixpoint, in the naive rounds' order,
    and holds the elements seen to the cap before each round."""
    sums = FiniteAlgebra(3, Signature([("add", 2)]),
                         {"add": (0, 0, 0, 1, 1, 1, 2, 2, 0)})
    assert sums.associative_ops() == ()
    assert closure(sums, 2, [(1, 2)]) == naive_closure(sums, 2, [(1, 2)])
    assert semigroup_calls == []
    monkeypatch.setattr(algebras, "DEFAULT_CAP", 1)
    with pytest.raises(CapExceeded, match="^closure: 2 elements exceed cap 1$"):
        closure(sums, 2, [(1, 2)])


def check_rounds_against_naive(alg, k, gens):
    """The round path, which closure takes on an algebra without an
    associative operation, against naive_closure in element order: alg is
    made to report no associative operation."""
    alg._associative = ()
    assert closure(alg, k, gens) == naive_closure(alg, k, gens)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bounded_closure_matches_naive_rounds_on_associative_tables(
        k, semigroup_calls):
    rng = random.Random(200 + k)
    for n, tables in ASSOCIATIVE.items():
        for tab in tables:
            extra = [("f%d" % i, rng.randint(0, 3)) for i in range(rng.randint(0, 2))]
            ops = {sym: tuple(rng.randrange(n) for _ in range(n ** ar))
                   for sym, ar in extra}
            alg = FiniteAlgebra(n, Signature([("mul", 2)] + extra), dict(ops, mul=tab))
            gens = [tuple(rng.randrange(n) for _ in range(k))
                    for _ in range(rng.randint(0, 2))]
            check_rounds_against_naive(alg, k, gens)
    assert semigroup_calls == []


@pytest.mark.parametrize("k", [1, 2])
def test_bounded_closure_matches_naive_rounds_on_catalog_groups(k):
    rng = random.Random(300 + k)
    for g in catalog().values():
        for _ in range(3):
            gens = [tuple(rng.randrange(g.size) for _ in range(k))
                    for _ in range(rng.randint(0, 3))]
            alg = FiniteAlgebra(g.size, g.signature, g.tables)
            check_rounds_against_naive(alg, k, gens)


def polynomial_algebra(alg):
    """The unary polynomial maps of alg (the closure of the identity and the
    constants in alg**n) as an algebra under pointwise operations, with the
    list of maps its elements stand for: the table the twin pairs were once
    closed in."""
    n = alg.size
    maps = closure(alg, n, [tuple(range(n))] + [(c,) * n for c in range(n)])
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


def polynomial_twin_pairs(alg, theta):
    """twin_pairs_of_identity as the closure in the square of the
    polynomial algebra."""
    poly, maps, seeds = twin_pair_closure(alg, theta)
    return {(maps[g], maps[h]) for g, h in closure(poly, 2, seeds)}, True


@pytest.mark.parametrize("group, kernel, size, covered", [
    ("D4", [0, 2, 4, 6], 1024, 3),   # rotations: the subuniverse after round 3
    ("Q8", [0, 2, 4, 6], 1024, 3),
    ("Z12", [0, 4, 8], 432, 4),      # round 4, where a depth cap of 4 stopped
])
def test_bounded_twin_pair_closure_matches_naive_rounds(group, kernel, size, covered):
    """The closure in the polynomial square holds the naive fixpoint, which
    the naive rounds reach at round covered: the next round is empty."""
    g = cyclic(12) if group == "Z12" else catalog()[group]
    alg, theta = semidirect(g, kernel)
    poly, _, seeds = twin_pair_closure(alg, theta)
    history = list(naive_rounds(poly, 2, seeds))
    pairs = closure(poly, 2, seeds)
    assert len(pairs) == size and set(pairs) == set(sum(history, []))
    assert len(history) == covered + 2 and history[-1] == []


def naive_twin_pairs(alg, theta, rounds=None):
    """Twin pairs of the identity from the naive fixpoint alone: the unary
    polynomials in alg**n, their pointwise algebra, then the pairs, from
    the seeds and at most rounds naive rounds (all of them for None)."""
    n = alg.size
    maps = sorted(naive_closure(alg, n, [tuple(range(n))] + [(c,) * n for c in range(n)]))
    index = {g: i for i, g in enumerate(maps)}
    tables = {sym: tuple(index[tuple(alg.apply(sym, [g[x] for g in args])
                                     for x in range(n))]
                         for args in product(maps, repeat=ar))
              for sym, ar in alg.signature.symbols}
    poly = FiniteAlgebra(len(maps), alg.signature, tables)
    seeds = [(index[tuple(range(n))],) * 2]
    seeds += [(index[(c,) * n], index[(e,) * n])
              for block in theta.blocks() for c in block for e in block]
    history = islice(naive_rounds(poly, 2, seeds), None if rounds is None else rounds + 1)
    return {(maps[g], maps[h]) for g, h in sum(history, [])}


def semidirect(alg, kernel):
    d, _ = extract_datum(group_extension(alg, kernel))
    a0 = reconstruct(d, d.trivial_cocycle())
    return a0.alg, a0.beta


def digest(pairs):
    return hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()


def test_twin_pairs_z12_z3_match_naive_fixpoint():
    """The covering round is round 4, the old default depth cap, where
    exact used to read False; the unbounded closure is exact."""
    alg, theta = semidirect(cyclic(12), [0, 4, 8])
    pairs, exact = twin_pairs_of_identity(alg, theta)
    assert pairs == naive_twin_pairs(alg, theta)
    assert (len(pairs), exact) == (432, True)
    assert digest(pairs) == (
        "7eb8b252ccf6a133a024bea4695424cbce33531947f747ad3807aee92773415f")


def test_twin_pairs_s3_z3_match_naive_fixpoint():
    """The naive fixpoint takes ~25 s here, so its first two rounds are
    checked to lie in the pairs, and the pairs against the closure in the
    polynomial square."""
    alg, theta = semidirect(catalog()["S3"], [0, 3, 4])
    pairs, exact = twin_pairs_of_identity(alg, theta)
    assert naive_twin_pairs(alg, theta, rounds=2) <= pairs
    assert (pairs, exact) == polynomial_twin_pairs(alg, theta)
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
    """The 2n-tuple closure in A_0 gives the pairs of the closure in the
    square of the polynomial algebra."""
    g = cyclic(int(group[1:])) if group[0] == "Z" else catalog()[group]
    alg, theta = semidirect(g, kernel)
    assert twin_pairs_of_identity(alg, theta) == polynomial_twin_pairs(alg, theta)


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
        sub = closure(sums, nq, [tuple(d.delta_l(q) for q in range(nq))] + gens)
        assert principal_derivations(d)[0] == sorted(sub), name
