"""M(alpha,beta) generated in alg**4 against the A(alpha)**2 route it
replaced, and the caps and errors m_matrices and tc_commutator report."""

import pytest
from hypothesis import given, settings, strategies as st

from affext.algebras import AlgebraError, CapExceeded
from affext.commutator import tc_commutator
from affext.congruences import (Congruence, all_congruences, m_matrices,
                                pair_algebra)

from oracles import pair_algebra_m_matrices
from test_random_algebras import algebras, malcev_reduct


def cap_failure(call):
    with pytest.raises(CapExceeded) as info:
        call()
    return info.value.stage, info.value.size, info.value.cap, str(info.value)


@pytest.mark.parametrize("ternary", [False, True], ids=["binary", "ternary"])
def test_caps_keep_their_stage_size_and_message(cat, ternary):
    """Z4 with alpha = beta = 1 has 16 alpha-pairs.  Without a pair algebra
    the pair_algebra cap (16**arity entries) is checked first, then the
    m_matrices cap (16 * 16 matrices); a pair algebra passed in skips the
    first.  tc_commutator reports what m_matrices does."""
    alg = malcev_reduct(cat["Z4"]) if ternary else cat["Z4"]
    one = Congruence.all(4)
    entries = 16 ** 3 if ternary else 16 ** 2
    pa = pair_algebra(alg, one)
    pair_msg = "pair algebra of size 16 exceeds cap %d"
    m_msg = "M(alpha,beta) universe 256 exceeds cap %d"
    for cap in (255, entries - 1):
        expected = ("pair_algebra", 16, cap, pair_msg % cap)
        assert cap_failure(lambda: m_matrices(alg, one, one, cap=cap)) == expected
        assert cap_failure(lambda: tc_commutator(alg, one, one, cap=cap)) == expected
    assert cap_failure(lambda: m_matrices(alg, one, one, cap=255, pairalg=pa)) == (
        "m_matrices", 256, 255, m_msg % 255)
    assert len(m_matrices(alg, one, one, cap=256, pairalg=pa)) == 64
    assert len(m_matrices(alg, one, one, cap=entries)) == 64
    assert tc_commutator(alg, one, one, cap=entries).is_equality()


def test_non_congruence_alpha_is_rejected_before_any_cap(cat):
    z4 = cat["Z4"]
    bad = Congruence.from_blocks(4, [[0, 1], [2], [3]])
    for call in (lambda: m_matrices(z4, bad, bad, cap=1),
                 lambda: tc_commutator(z4, bad, bad, cap=1)):
        with pytest.raises(AlgebraError) as info:
            call()
        assert not isinstance(info.value, CapExceeded)
        assert str(info.value) == ("alpha is not a congruence: "
                                   "('mul', 0, (0, 1), (1,))")


def test_m_matrices_match_the_pair_algebra_route_on_catalog_groups(cat):
    """Every catalog group and every pair of its congruences, with and
    without the pair algebra passed in."""
    checked = 0
    for g in cat.values():
        cons = all_congruences(g)
        for alpha in cons:
            pa = pair_algebra(g, alpha)
            for beta in cons:
                expected = pair_algebra_m_matrices(g, alpha, beta)
                assert m_matrices(g, alpha, beta) == expected, (g.name, alpha, beta)
                assert m_matrices(g, alpha, beta, pairalg=pa) == expected
                checked += 1
    assert checked == 484


def test_m_matrices_match_the_pair_algebra_route_on_malcev_reducts(cat):
    """<G, x y^-1 z> of every catalog group, whose closures take the
    rounds path: every pair of congruences whose alpha- and beta-pairs
    multiply to at most 32 |G|, so that M(alpha,beta) stays near 32
    quadruples (the top pair of S3 alone takes about 30 s)."""
    checked = 0
    for g in cat.values():
        alg = malcev_reduct(g)
        cons = all_congruences(alg)
        for alpha in cons:
            for beta in cons:
                if len(alpha.pairs()) * len(beta.pairs()) <= 32 * g.size:
                    assert m_matrices(alg, alpha, beta) == \
                        pair_algebra_m_matrices(alg, alpha, beta), (g.name, alpha, beta)
                    checked += 1
    assert checked == 180


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_m_matrices_match_the_pair_algebra_route_on_random_algebras(data):
    """Arities 0-3, up to 4 elements (3 with a ternary operation), and any
    two congruences."""
    arities = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    alg = data.draw(algebras(3 if 3 in arities else 4, arities))
    cons = all_congruences(alg)
    alpha, beta = data.draw(st.sampled_from(cons)), data.draw(st.sampled_from(cons))
    assert m_matrices(alg, alpha, beta) == pair_algebra_m_matrices(alg, alpha, beta)
