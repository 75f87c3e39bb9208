from itertools import product

import pytest

from affext.algebras import AlgebraError
from affext.congruences import (Congruence, all_congruences, cg, delta,
                                delta_with_pair_algebra, hat_alpha,
                                m_matrices, pair_algebra)
from affext.terms import eval_term, GROUP_DIFFERENCE_TERM

from oracles import enumerated_congruences
from test_random_algebras import malcev_reduct


def set_partitions(universe):
    """All partitions of a list (brute-force oracle)."""
    if not universe:
        yield []
        return
    head, rest = universe[0], universe[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def test_cg_empty(cat):
    assert cg(cat["Z4"], []).is_equality()


def test_cg_z4_02_against_partition_oracle(cat):
    """Brute-force all 15 partitions of a 4-set for compatibility and
    minimality; freeze the answer."""
    z4 = cat["Z4"]
    result = cg(z4, [(0, 2)])
    candidates = []
    for part in set_partitions([0, 1, 2, 3]):
        congr = Congruence.from_blocks(4, part)
        if not congr.related(0, 2):
            continue
        ok = True
        for sym, ar in z4.signature.symbols:
            for args_a in product(range(4), repeat=ar):
                for pos in range(ar):
                    for b in range(4):
                        if not congr.related(args_a[pos], b):
                            continue
                        args_b = args_a[:pos] + (b,) + args_a[pos + 1:]
                        if not congr.related(z4.apply(sym, args_a),
                                             z4.apply(sym, args_b)):
                            ok = False
        if ok:
            candidates.append(congr)
    least = min(candidates, key=lambda c: c.block_count() * -1)
    # minimality: result must be below every compatible candidate
    for c in candidates:
        assert result.le(c)
    assert result in candidates
    assert result.blocks() == [[0, 2], [1, 3]]


def test_cg_z4_01_is_all(cat):
    assert cg(cat["Z4"], [(0, 1)]).is_all()


def test_all_congruences_z4(cat):
    cons = all_congruences(cat["Z4"])
    assert len(cons) == 3  # equality, mod-2, all


def test_all_congruences_match_the_enumeration(cat):
    """Joins of principal congruences against one Cg per congruence and
    pair, on every catalog group and on its Mal'cev reduct."""
    for g in cat.values():
        for alg in (g, malcev_reduct(g)):
            assert all_congruences(alg) == enumerated_congruences(alg), g.name


def test_pair_algebra_sizes(cat):
    z4 = cat["Z4"]
    assert pair_algebra(z4, Congruence.equality(4)).size == 4
    assert pair_algebra(z4, Congruence.from_blocks(4, [[0, 2], [1, 3]])).size == 8
    assert pair_algebra(z4, Congruence.all(4)).size == 16


def test_pair_algebra_projections_are_homomorphisms(cat):
    z4 = cat["Z4"]
    pa = pair_algebra(z4, Congruence.from_blocks(4, [[0, 2], [1, 3]]))
    from affext.algebras import is_homomorphism
    assert is_homomorphism([p[0] for p in pa.pairs], pa, z4)
    assert is_homomorphism([p[1] for p in pa.pairs], pa, z4)


def test_m_matrices_equality_diagonal(cat):
    z4 = cat["Z4"]
    eq = Congruence.equality(4)
    quads = m_matrices(z4, eq, eq)
    assert quads == {(a, a, a, a) for a in range(4)}


def test_m_matrices_z2_xor(cat):
    z2 = cat["Z2"]
    one = Congruence.all(2)
    quads = m_matrices(z2, one, one)
    assert len(quads) == 8
    assert quads == {(q1, q2, q3, q4) for q1, q2, q3, q4 in product(range(2), repeat=4)
                     if (q1 ^ q2) == (q3 ^ q4)}


def test_m_matrices_z4_generators_present(cat):
    alpha = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    quads = m_matrices(cat["Z4"], alpha, alpha)
    assert (0, 0, 2, 2) in quads
    assert (0, 2, 0, 2) in quads


def test_m_matrices_rows_beta_columns_alpha(cat):
    z4 = cat["Z4"]
    alpha = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    one = Congruence.all(4)
    for q1, q2, q3, q4 in m_matrices(z4, alpha, one):
        assert alpha.related(q1, q3) and alpha.related(q2, q4)


def test_delta_equality(cat):
    z4 = cat["Z4"]
    eq = Congruence.equality(4)
    pa, d = delta_with_pair_algebra(z4, eq, eq)
    assert d.is_equality()


def test_delta_z4_alpha_alpha_formula(cat):
    """Oracle: the affine rule (a,b) ~ (c,d) iff d = b - a + c within blocks."""
    z4 = cat["Z4"]
    alpha = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    pa, d = delta_with_pair_algebra(z4, alpha, alpha)
    assert d.block_count() == 4
    m = lambda a, b, c: eval_term(z4, GROUP_DIFFERENCE_TERM,
                                  {"x0": a, "x1": b, "x2": c})
    for i, (a, b) in enumerate(pa.pairs):
        for j, (c, dd) in enumerate(pa.pairs):
            rule = alpha.related(a, c) and dd == m(b, a, c)
            assert rule == d.related(i, j)


def test_delta_alpha_one_diagonal_single_class(cat):
    z4 = cat["Z4"]
    alpha = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    pa, d = delta_with_pair_algebra(z4, alpha, Congruence.all(4))
    diag_classes = {d.rep[pa.pair_index[(u, u)]] for u in range(4)}
    assert len(diag_classes) == 1


def test_hat_alpha(cat):
    z4 = cat["Z4"]
    pa = pair_algebra(z4, Congruence.from_blocks(4, [[0, 2], [1, 3]]))
    hat = hat_alpha(pa)
    assert sorted(len(b) for b in hat.blocks()) == [4, 4]
    pa_eq = pair_algebra(z4, Congruence.equality(4))
    assert hat_alpha(pa_eq).is_equality()
    pa_all = pair_algebra(z4, Congruence.all(4))
    assert hat_alpha(pa_all).is_all()


def test_delta_join_laws(cat):
    """Delta_{ab} v eta_i = p_i^{-1}(beta) on small instances."""
    for name, kernel_blocks in (("Z4", [[0, 2], [1, 3]]),
                                ("S3", [[0, 3, 4], [1, 2, 5]])):
        alg = cat[name]
        alpha = Congruence.from_blocks(alg.size, kernel_blocks)
        for beta in (alpha, Congruence.all(alg.size)):
            pa, d = delta_with_pair_algebra(alg, alpha, beta)
            eta0 = pa.projection_kernel(0)
            eta1 = pa.projection_kernel(1)
            assert d.join(eta0) == pa.preimage(beta, 0)
            assert d.join(eta1) == pa.preimage(beta, 1)


def test_congruence_canonical_forms():
    c1 = Congruence.from_blocks(4, [[0, 2], [1, 3]])
    c2 = Congruence.from_blocks(4, [[2, 0], [3, 1]])
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1.blocks() == [[0, 2], [1, 3]]


def test_pair_not_in_universe_rejected(cat):
    with pytest.raises(AlgebraError):
        cg(cat["Z4"], [(0, 9)])
