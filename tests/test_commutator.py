import pytest

from affext.algebras import AlgebraError, FiniteAlgebra, Signature
from affext.commutator import (is_abelian, is_left_central, is_right_central,
                               tc_commutator, verify_difference_term,
                               verify_ternary_abelian_group_on_blocks)
from affext.congruences import Congruence
from affext.groups import (center, commutator_subgroup,
                           congruence_of_subgroup, subgroup_generated)
from affext.terms import GROUP_DIFFERENCE_TERM, parse_term


def test_abelian_group_commutator_trivial(cat):
    z4 = cat["Z4"]
    one = Congruence.all(4)
    assert tc_commutator(z4, one, one).is_equality()


def test_d4_commutator_matches_group_oracle(cat):
    d4 = cat["D4"]
    one = Congruence.all(8)
    comm = tc_commutator(d4, one, one)
    derived = commutator_subgroup(d4, list(range(8)), list(range(8)))
    expected = congruence_of_subgroup(d4, derived)
    assert comm == expected
    assert sorted(len(b) for b in comm.blocks()) == [2, 2, 2, 2]


def test_commutator_with_equality_is_equality(cat):
    for name in ("Z4", "D4", "S3"):
        alg = cat[name]
        eq = Congruence.equality(alg.size)
        one = Congruence.all(alg.size)
        assert tc_commutator(alg, eq, one).is_equality()
        assert tc_commutator(alg, one, eq).is_equality()


def test_commutator_below_meet(cat):
    for name in ("D4", "S3", "Q8"):
        alg = cat[name]
        from affext.congruences import all_congruences
        cons = all_congruences(alg)
        for a in cons:
            for b in cons:
                assert tc_commutator(alg, a, b).le(a.meet(b))


def test_commutator_monotone(cat):
    s3 = cat["S3"]
    from affext.congruences import all_congruences
    cons = all_congruences(s3)
    for a in cons:
        for b in cons:
            for a2 in cons:
                if not a.le(a2):
                    continue
                assert tc_commutator(s3, a, b).le(tc_commutator(s3, a2, b))


def test_is_abelian_examples(cat):
    z4, d4 = cat["Z4"], cat["D4"]
    assert is_abelian(z4, Congruence.from_blocks(4, [[0, 2], [1, 3]]))
    assert not is_abelian(d4, Congruence.all(8))
    assert is_abelian(d4, Congruence.equality(8))


def test_centrality_examples(cat):
    z4, d4 = cat["Z4"], cat["D4"]
    alpha = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    assert is_right_central(z4, alpha) and is_left_central(z4, alpha)
    zc = congruence_of_subgroup(d4, subgroup_generated(d4, center(d4)))
    assert is_right_central(d4, zc) and is_left_central(d4, zc)
    one = Congruence.all(8)
    assert not is_right_central(d4, one) and not is_left_central(d4, one)


def test_difference_term_groups(cat):
    rep = verify_difference_term([cat["Z4"], cat["D4"], cat["S3"]],
                                 GROUP_DIFFERENCE_TERM)
    assert rep["holds"], rep["witness"]


def test_difference_term_arity_guard(cat):
    with pytest.raises(AlgebraError):
        verify_difference_term([cat["Z4"]], parse_term("(mul x0 x1)"))


def test_semilattice_has_no_weak_difference_term():
    sig = Signature([("meet", 2)])
    meet = FiniteAlgebra(2, sig, {"meet": [[0, 0], [0, 1]]}, name="SL2")
    rep = verify_difference_term([meet], parse_term("x0"), weak=True,
                                 congruences=[[Congruence.all(2)]])
    assert not rep["holds"]


def test_ternary_abelian_on_blocks(cat):
    z4 = cat["Z4"]
    m = lambda a, b, c: (a - b + c) % 4
    assert verify_ternary_abelian_group_on_blocks(m, [[0, 2], [1, 3]])
    proj = lambda a, b, c: a
    assert not verify_ternary_abelian_group_on_blocks(proj, [[0, 2], [1, 3]])
    assert verify_ternary_abelian_group_on_blocks(proj, [[0], [1], [2], [3]])


def test_ternary_block_preservation_guard():
    m = lambda a, b, c: (a + 1) % 4
    with pytest.raises(AlgebraError):
        verify_ternary_abelian_group_on_blocks(m, [[0, 2], [1, 3]])


def test_s3_commutator_matches_group_oracle(cat):
    s3 = cat["S3"]
    one = Congruence.all(6)
    comm = tc_commutator(s3, one, one)
    derived = commutator_subgroup(s3, list(range(6)), list(range(6)))
    assert comm == congruence_of_subgroup(s3, derived)
    assert sorted(len(b) for b in comm.blocks()) == [3, 3]


def test_q8_commutator_matches_group_oracle(cat):
    q8 = cat["Q8"]
    one = Congruence.all(8)
    comm = tc_commutator(q8, one, one)
    derived = commutator_subgroup(q8, list(range(8)), list(range(8)))
    assert comm == congruence_of_subgroup(q8, derived)
    assert comm.block_count() == 4
