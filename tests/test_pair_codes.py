"""Subpower tables on base-n codes and the Tr M half of Delta read by pair
codes, against the tuple-keyed tables and the union-find loop they
replaced (tests/oracles.py), and the n - 1 generators of the Cg half of
Delta against all beta-pairs."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from affext.algebras import AlgebraError, FiniteAlgebra, closure, subpower_tables
from affext.cohomology import twin_pairs_of_identity
from affext.congruences import (Congruence, all_congruences, cg, delta,
                                delta_by_cg, m_matrices, pair_algebra)

from oracles import tuple_subpower_tables, union_find_tr_m
from test_closure import semidirect
from test_random_algebras import algebras, malcev_reduct


def assert_tables(alg, elements):
    """The code-keyed tables equal the tuple-keyed ones, and the subpower
    built on them passes the constructor's own scan when rebuilt."""
    tables = subpower_tables(alg, elements)
    assert tables == tuple_subpower_tables(alg, elements)
    sub = FiniteAlgebra.subpower(alg, elements)
    assert sub.tables == tables
    assert FiniteAlgebra(sub.size, sub.signature, sub.tables).tables == tables


def test_pair_algebra_tables_of_every_catalog_congruence(cat):
    """A(alpha) for every congruence of every catalog group and of its
    Mal'cev reduct, whose one operation is ternary."""
    count = 0
    for g in cat.values():
        for alg in (g, malcev_reduct(g)):
            for alpha in all_congruences(alg):
                assert_tables(alg, alpha.pairs())
                assert pair_algebra(alg, alpha).tables == tuple_subpower_tables(
                    alg, alpha.pairs())
                count += 1
    assert count == 128


def test_power_algebra_tables(cat):
    """alg**k in base-n order for k = 1..3 and n**k <= 600, and the same
    tuples shuffled; the Mal'cev reducts while their ternary table holds
    at most 64**3 entries."""
    rng = random.Random(5)
    for g in cat.values():
        for alg, bound in ((g, 600), (malcev_reduct(g), 64)):
            for k in (1, 2, 3):
                if g.size ** k <= bound:
                    elements = list(product(range(g.size), repeat=k))
                    assert_tables(alg, elements)
                    rng.shuffle(elements)
                    assert_tables(alg, elements)


@pytest.mark.parametrize("group", ["Z8", "D4", "Q8"])
def test_twin_pair_algebra_tables(cat, group):
    """The twin pairs of the order-4 kernels of the datum-deep ladder, as a
    subpower of A_0 on 2n-tuples: k = 16."""
    alg, theta = semidirect(cat[group], [0, 2, 4, 6])
    assert_tables(alg, sorted(g + h for g, h in twin_pairs_of_identity(alg, theta)[0]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subpower_tables_on_random_algebras(data):
    """Subuniverses of alg**k closed from random generators, arities 0-3."""
    arities = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    alg = data.draw(algebras(4, arities))
    k = data.draw(st.integers(1, 3 if alg.size <= 3 else 2))
    elem = st.tuples(*[st.integers(0, alg.size - 1)] * k)
    elements = closure(alg, k, data.draw(st.lists(elem, max_size=3)))
    if not elements:
        with pytest.raises(AlgebraError, match="size must be positive"):
            FiniteAlgebra.subpower(alg, elements)
        return
    assert_tables(alg, data.draw(st.permutations(elements)))


def test_a_list_that_is_not_closed_raises(cat):
    """(1,1)*(1,1) = (2,2) is outside the list."""
    with pytest.raises(KeyError):
        FiniteAlgebra.subpower(cat["Z4"], [(0, 0), (1, 1)])
    with pytest.raises(KeyError):
        subpower_tables(cat["Z4"], [(0, 0), (1, 1)])


def all_pair_generators(pairalg, beta):
    index = pairalg.pair_index
    return [(index[(u, u)], index[(v, v)]) for u, v in beta.pairs()]


def test_delta_on_every_catalog_pair(cat):
    """Delta both ways (delta raises unless its halves agree) equals the
    union-find Tr M, and the Cg half from n - 1 generators equals the Cg
    of every ((u,u),(v,v)), u beta v."""
    count = 0
    for g in cat.values():
        lattice = all_congruences(g)
        for alpha in lattice:
            pa = pair_algebra(g, alpha)
            for beta in lattice:
                matrices = m_matrices(g, alpha, beta, pairalg=pa)
                d = delta(g, alpha, beta, pairalg=pa, matrices=matrices)
                assert d == union_find_tr_m(pa, matrices)
                assert d == delta_by_cg(pa, beta) == cg(pa, all_pair_generators(pa, beta))
                count += 1
    assert count == 484


def test_delta_by_cg_on_malcev_reducts(cat):
    for g in cat.values():
        alg = malcev_reduct(g)
        lattice = all_congruences(alg)
        for alpha in lattice:
            pa = pair_algebra(alg, alpha)
            for beta in lattice:
                assert delta_by_cg(pa, beta) == cg(pa, all_pair_generators(pa, beta))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_delta_on_random_algebras(data):
    arities = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    alg = data.draw(algebras(4, arities))
    elem = st.integers(0, alg.size - 1)
    alpha, beta = (cg(alg, data.draw(st.lists(st.tuples(elem, elem), max_size=2)))
                   for _ in range(2))
    pa = pair_algebra(alg, alpha)
    matrices = m_matrices(alg, alpha, beta, pairalg=pa)
    d = delta(alg, alpha, beta, pairalg=pa, matrices=matrices)
    assert d == union_find_tr_m(pa, matrices)
    assert d == cg(pa, all_pair_generators(pa, beta))


def test_delta_still_compares_its_halves(cat):
    """With every matrix whose columns differ removed, Tr M is the
    equality and no longer the Cg half."""
    g = cat["D4"]
    alpha = beta = Congruence.all(g.size)
    matrices = {q for q in m_matrices(g, alpha, beta) if q[0] == q[1] and q[2] == q[3]}
    with pytest.raises(AlgebraError, match="Delta computed by Cg and by Tr M disagree"):
        delta(g, alpha, beta, matrices=matrices)
    with pytest.raises(AlgebraError, match="disagree"):
        delta(g, alpha, beta, matrices=set())
