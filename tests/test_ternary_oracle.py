"""The O(|block|^3) affine-form check of (AD1) against the |block|^9
enumeration of the Mal'cev and 3x3 self-commuting identities it replaced."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from affext.algebras import AlgebraError
from affext.commutator import (is_malcev_on_blocks,
                               verify_ternary_abelian_group_on_blocks)


def oracle(m_table_or_func, blocks, size=None):
    """Mal'cev identities plus the 3x3 self-commuting identity on each block."""
    if callable(m_table_or_func):
        m = m_table_or_func
    else:
        tab = m_table_or_func
        n = size
        m = lambda a, b, c: tab[(a * n + b) * n + c]
    block_of = {}
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    for block in blocks:
        for x, y, z in product(block, repeat=3):
            if block_of[m(x, y, z)] != block_of[x]:
                raise AlgebraError("m is not block-preserving at (%d,%d,%d)" % (x, y, z))
    if not is_malcev_on_blocks(m, blocks):
        return False
    for block in blocks:
        if len(block) == 1:
            continue
        for xs in product(block, repeat=3):
            for ys in product(block, repeat=3):
                for zs in product(block, repeat=3):
                    lhs = m(m(*xs), m(*ys), m(*zs))
                    rhs = m(m(xs[0], ys[0], zs[0]),
                            m(xs[1], ys[1], zs[1]),
                            m(xs[2], ys[2], zs[2]))
                    if lhs != rhs:
                        return False
    return True


def affine_table(groups, perm):
    """Flat ternary table on the disjoint union of the groups Z_a x Z_b,
    each block carrying x - y + z, relabelled by perm; returns (table, blocks).
    Cells mixing blocks are 0: the check never reads them."""
    n = len(perm)
    tab = [0] * n ** 3
    blocks, start = [], 0
    for a, b in groups:
        elems = [(i, j) for i in range(a) for j in range(b)]
        label = {g: perm[start + k] for k, g in enumerate(elems)}
        start += len(elems)
        for x, y, z in product(elems, repeat=3):
            w = ((x[0] - y[0] + z[0]) % a, (x[1] - y[1] + z[1]) % b)
            tab[(label[x] * n + label[y]) * n + label[z]] = label[w]
        blocks.append(sorted(label.values()))
    return tab, blocks


def assert_agree(tab, blocks, n):
    """Both checks give the same verdict, or raise the same AlgebraError,
    on the flat table and on the callable alike; returns the verdict, or
    None after an error."""
    func = lambda a, b, c: tab[(a * n + b) * n + c]
    for args in ((tab, blocks, n), (func, blocks)):
        try:
            want = oracle(*args)
        except AlgebraError as exc:
            with pytest.raises(AlgebraError) as got:
                verify_ternary_abelian_group_on_blocks(*args)
            assert str(got.value) == str(exc)
            want = None
        else:
            assert verify_ternary_abelian_group_on_blocks(*args) == want
    return want


# Z_a x Z_b with a * b <= 3: blocks of size 1, 2 and 3
group_shapes = st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)])


@settings(max_examples=60, deadline=None)
@given(st.lists(group_shapes, min_size=1, max_size=2), st.data())
def test_agrees_with_oracle_on_perturbed_affine_tables(groups, data):
    n = sum(a * b for a, b in groups)
    perm = data.draw(st.permutations(range(n)))
    tab, blocks = affine_table(groups, perm)
    for _ in range(data.draw(st.integers(0, 2))):
        block = data.draw(st.sampled_from(blocks))
        x, y, z = (data.draw(st.sampled_from(block)) for _ in range(3))
        tab[(x * n + y) * n + z] = data.draw(st.sampled_from(block))
    assert_agree(tab, blocks, n)


@settings(max_examples=20, deadline=None)
@given(st.lists(group_shapes, min_size=2, max_size=2), st.data())
def test_same_error_when_m_leaves_a_block(groups, data):
    n = sum(a * b for a, b in groups)
    perm = data.draw(st.permutations(range(n)))
    tab, blocks = affine_table(groups, perm)
    x, y, z = (data.draw(st.sampled_from(blocks[0])) for _ in range(3))
    tab[(x * n + y) * n + z] = data.draw(st.sampled_from(blocks[1]))
    assert assert_agree(tab, blocks, n) is None


def test_agrees_with_oracle_on_blocks_of_four():
    z4, blocks = affine_table([(1, 4)], [2, 0, 3, 1])
    assert assert_agree(z4, blocks, 4)
    z2z2, blocks = affine_table([(2, 2)], [3, 1, 0, 2])
    assert assert_agree(z2z2, blocks, 4)
    perturbed = list(z4)
    perturbed[(0 * 4 + 1) * 4 + 2] = next(
        v for v in range(4) if v != z4[(0 * 4 + 1) * 4 + 2])
    assert not assert_agree(perturbed, blocks, 4)
    projection = [x for x in range(4) for _ in range(16)]
    assert not assert_agree(projection, blocks, 4)
