"""The subpower-closure kernel against a naive round-by-round fixpoint."""

import hashlib
import random
from itertools import product

import pytest

import affext.cohomology as cohomology
from affext.algebras import (CapExceeded, FiniteAlgebra, Signature, closure,
                             subalgebra_generate)
from affext.cocycles import reconstruct
from affext.cohomology import twin_pairs_of_identity
from affext.datum import extract_datum, group_extension
from affext.groups import catalog, cyclic


def naive_closure(alg, k, gens, max_rounds=None):
    """The constants join the generators; then each round applies every
    operation coordinatewise to every argument tuple over the current set.
    exact means a round added nothing."""
    current = {tuple(g) for g in gens}
    current |= {(alg.apply(sym, ()),) * k for sym, ar in alg.signature.symbols if ar == 0}
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        rounds += 1
        step = set(current)
        for sym, ar in alg.signature.symbols:
            for args in product(current, repeat=ar):
                step.add(tuple(alg.apply(sym, [a[j] for a in args])
                               for j in range(k)))
        if step == current:
            return current, True
        current = step
    return current, False


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
            assert (set(elems), exact) == naive_closure(alg, k, gens, max_rounds)
            seeds = sorted(set(gens) | {(alg.tables[s][0],) * k
                                        for s, ar in alg.signature.symbols if ar == 0})
            assert elems[:len(seeds)] == seeds
        if k == 1:
            assert subalgebra_generate(alg, [g[0] for g in gens]) == sorted(
                t[0] for t in naive_closure(alg, 1, gens)[0])


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


def test_polynomial_tables_check_cap_first(monkeypatch, z4_datum):
    d, _ = z4_datum
    a0 = reconstruct(d, d.trivial_cocycle())
    monkeypatch.setattr(cohomology, "DEFAULT_CAP", 10)
    with pytest.raises(CapExceeded):
        twin_pairs_of_identity(a0.alg, a0.beta)
