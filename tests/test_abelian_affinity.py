"""is_abelian read off the algebra's own translations, against the Cg on
A(alpha) it replaced (oracles.cg_is_abelian) and, where M(alpha,alpha) is
small, against the term-condition commutator: every 2-element algebra with
one ternary operation, with and without a unary one; the <A,m> of three
datums of order 8; the Mal'cev reducts of five groups of order 8; the
cap and the congruence check."""

from itertools import product

import pytest

from affext.algebras import AlgebraError, CapExceeded, FiniteAlgebra, Signature
from affext.commutator import is_abelian, tc_commutator
from affext.congruences import Congruence, all_congruences
from affext.datum import _M_SIGNATURE, extract_datum, group_extension

from oracles import cg_is_abelian
from test_random_algebras import malcev_reduct


def agree(alg, alpha):
    """is_abelian, asserted equal to the Cg route and, when alpha has at
    most 16 pairs, to [alpha,alpha] = 0 by the matrix fixpoint."""
    value = is_abelian(alg, alpha)
    assert value == cg_is_abelian(alg, alpha)
    if len(alpha.pairs()) <= 16:
        assert value == tc_commutator(alg, alpha, alpha).is_equality()
    return value


def test_every_two_element_ternary_algebra():
    """256 ternary tables, each alone and with each of the 4 unary tables,
    on every congruence."""
    verdicts = {True: 0, False: 0}
    unaries = [None] + list(product(range(2), repeat=2))
    for tab, u in product(product(range(2), repeat=8), unaries):
        symbols, tables = [("m", 3)], {"m": tab}
        if u is not None:
            symbols.append(("u", 1))
            tables["u"] = u
        alg = FiniteAlgebra(2, Signature(symbols), tables)
        for alpha in all_congruences(alg):
            verdicts[agree(alg, alpha)] += 1
    assert verdicts[True] and verdicts[False]


def datum_m_algebra(group, kernel):
    d = extract_datum(group_extension(group, kernel))[0]
    return FiniteAlgebra(d.asize, _M_SIGNATURE, {"m": d.m_flat}), d.alpha


@pytest.mark.parametrize("name", ["Z8", "D4", "Q8"])
def test_datum_m_algebras(cat, name):
    """The <A,m> that validate_datum checks on the order-4 kernels."""
    alg, alpha = datum_m_algebra(cat[name], [0, 2, 4, 6])
    assert agree(alg, alpha)


@pytest.mark.parametrize("name", ["D4", "Q8", "Z8", "Z2xZ4", "Z2xZ2xZ2"])
def test_group_malcev_reducts(cat, name):
    """Every congruence: <G, x y^-1 z> is affine for abelian G, and not
    abelian over its top congruence for D4 and Q8."""
    alg = malcev_reduct(cat[name])
    verdicts = {alpha: agree(alg, alpha) for alpha in all_congruences(alg)}
    abelian = name not in ("D4", "Q8")
    assert verdicts[Congruence.all(8)] == abelian
    assert all(verdicts.values()) == abelian


def test_cap_counts_the_entries_before_reading(cat):
    """3 positions x 8^2 contexts x 24 off-diagonal alpha-pairs."""
    alg, alpha = datum_m_algebra(cat["D4"], [0, 2, 4, 6])
    assert is_abelian(alg, alpha, cap=4608)
    with pytest.raises(CapExceeded) as info:
        is_abelian(alg, alpha, cap=4607)
    assert (info.value.stage, info.value.size, info.value.cap) == ("is_abelian", 4608, 4607)


def test_alpha_must_be_a_congruence(cat):
    alg = malcev_reduct(cat["Z4"])
    with pytest.raises(AlgebraError, match="alpha is not a congruence"):
        is_abelian(alg, Congruence.from_blocks(4, [[0, 1], [2], [3]]))
