"""The group-structure paths of affext.cohomology against their slow
references: the Cayley-table presentation with min-over-subgroup cosets,
the stabilizer search over every block-preserving map, and the
stabilizing-isomorphism search over every product of fiber bijections and
over every product of image pools with a full homomorphism test."""

from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from affext.algebras import (DEFAULT_CAP, AlgebraError, CapExceeded,
                             is_homomorphism)
from affext.cocycles import is_semidirect, reconstruct
from affext.cohomology import (_check_subgroup, _two_cochains,
                               coboundary_group, cocycle_group, derivations,
                               h1, h2, invariant_factors,
                               principal_derivations, stabilizers,
                               stabilizing_isomorphism)
from affext.datum import (DatumError, ExtensionRecord, extract_datum,
                          group_extension)
from affext.groups import cyclic
from affext.verify import (catalog_extensions, datum_for_oracle_case,
                           oracle_cases)

from oracles import cocycle_add, product_retraction

# (group, kernel): Z2^3/Z2, order-4 kernels of order-8 groups, Z4/Z2 and
# cyclic groups over Z2 or Z3
CASES = [("Z2xZ2xZ2", [0, 1]), ("Z8", [0, 2, 4, 6]), ("D4", [0, 2, 4, 6]),
         ("Q8", [0, 2, 4, 6]), ("Z4", [0, 2]), ("Z10", [0, 5]), ("Z12", [0, 6]),
         ("Z12", [0, 4, 8]), ("Z14", [0, 7])]


class AbelianGroupPresentation:
    """Finite abelian group given by elements and an addition table.

    The library works with the fiber groups directly (see _check_subgroup
    and _quotient); this Cayley-table version is the reference the tests
    compare them with.
    """

    def __init__(self, elements, add_func, zero):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        k = len(self.elements)
        self.zero = self.index[zero]
        self.add = [[self.index[add_func(a, b)] for b in self.elements]
                    for a in self.elements]
        self.neg = [0] * k
        for i in range(k):
            hit = [j for j in range(k) if self.add[i][j] == self.zero]
            if len(hit) != 1:
                raise AlgebraError("no unique inverse; not a group table")
            self.neg[i] = hit[0]
        self._verify()

    def _verify(self):
        k = self.order
        add = self.add
        z = self.zero
        for a in range(k):
            if add[a][z] != a:
                raise AlgebraError("zero fails")
            for b in range(k):
                if add[a][b] != add[b][a]:
                    raise AlgebraError("addition not commutative")
                for c in range(k):
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise AlgebraError("addition not associative")

    @property
    def order(self):
        return len(self.elements)

    def element_order(self, i):
        j, k = i, 1
        while j != self.zero:
            j = self.add[j][i]
            k += 1
        return k

    def invariant_factors(self):
        return invariant_factors([self.element_order(i) for i in range(self.order)])


def _group(cat, name):
    return cat[name] if name in cat else cyclic(int(name[1:]))


@pytest.fixture(scope="module")
def datums(cat):
    return {(name, tuple(kernel)):
            extract_datum(group_extension(_group(cat, name), kernel))[0]
            for name, kernel in CASES}


def _old_h2(d, eqs):
    """Representatives and invariant factors of H2, Z2 and B2 through
    dict-table sums, min-over-B2 cosets and Cayley tables."""
    z2, b2 = cocycle_group(d, eqs), coboundary_group(d)

    def plus(a, b):
        return cocycle_add(d, a, b)

    def coset_of(s):
        return min(plus(s, g) for g in b2.serialized)

    zero = d.trivial_cocycle()
    reps = sorted({coset_of(s) for s in z2.serialized})
    quotient = AbelianGroupPresentation(reps, lambda a, b: coset_of(plus(a, b)),
                                        coset_of(zero))
    return (reps, quotient.invariant_factors(),
            AbelianGroupPresentation(z2.serialized, plus, zero).invariant_factors(),
            AbelianGroupPresentation(b2.serialized, plus, zero).invariant_factors())


@pytest.mark.parametrize("name,kernel", CASES)
def test_h2_matches_cayley_oracle(datums, group_eqs, name, kernel):
    d = datums[(name, tuple(kernel))]
    res = h2(d, group_eqs)
    got = ([c["representative"] for c in res.classes], res.invariant_factors,
           res.z2.invariant_factors(), res.b2.invariant_factors())
    assert got == _old_h2(d, group_eqs)
    assert [c["is_zero"] for c in res.classes] == \
        [c["representative"] == min(res.b2.serialized) for c in res.classes]


@pytest.mark.parametrize("name,kernel", CASES)
def test_h1_matches_cayley_oracle(datums, name, kernel):
    d = datums[(name, tuple(kernel))]
    nq = d.qsize()
    ders = derivations(d)
    pder = principal_derivations(d)

    def plus(a, b):
        return tuple(d.plus_at(q, a[q], b[q]) for q in range(nq))

    def coset_of(h):
        return min(plus(h, g) for g in pder)

    reps = sorted({coset_of(h) for h in ders})
    zero = coset_of(tuple(d.delta_l(q) for q in range(nq)))
    quotient = AbelianGroupPresentation(reps, lambda a, b: coset_of(plus(a, b)), zero)
    res = h1(d)
    assert (res["order"], res["invariant_factors"]) == \
        (len(reps), quotient.invariant_factors())


def _old_stabilizers(ext):
    """Every map sending each kernel block into itself, filtered."""
    alg, n = ext.alg, ext.alg.size
    blocks = ext.beta.blocks()
    order = [x for block in blocks for x in block]
    pools = [block for block in blocks for _ in block]
    out = []
    for choice in product(*pools):
        gamma = [0] * n
        for x, y in zip(order, choice):
            gamma[x] = y
        if sorted(gamma) != list(range(n)):
            continue
        if all(gamma[x] == ext.m_elem(gamma[a], a, x)
               for block in blocks for a in block for x in block):
            if is_homomorphism(gamma, alg, alg):
                out.append(tuple(gamma))
    return sorted(out)


def _product_stabilizers(ext):
    """One image y per block, every product of the pools, each candidate
    filtered by bijectivity, the m-condition and is_homomorphism."""
    n, blocks = ext.alg.size, ext.beta.blocks()
    pools = [[im for im in ([ext.m_elem(y, block[0], x) for x in block]
                            for y in block) if set(block).issuperset(im)]
             for block in blocks]
    out = []
    for choice in product(*pools):
        gamma = [0] * n
        for block, images in zip(blocks, choice):
            for x, y in zip(block, images):
                gamma[x] = y
        if sorted(gamma) == list(range(n)) and all(
                gamma[x] == ext.m_elem(gamma[a], a, x)
                for block in blocks for a in block for x in block) \
                and is_homomorphism(gamma, ext.alg, ext.alg):
            out.append(tuple(gamma))
    return sorted(out)


@pytest.mark.parametrize("name,kernel", CASES[1:5])
def test_stabilizers_match_full_search(cat, name, kernel):
    ext = group_extension(cat[name], kernel)
    assert stabilizers(ext) == _product_stabilizers(ext) == _old_stabilizers(ext)


@pytest.mark.parametrize("name,kernel", CASES)
def test_stabilizers_match_the_product_search(cat, name, kernel):
    """The compiled gamma search against the product of one-image pools it
    replaced, on every case, and on A_0 of each case's datum."""
    ext = group_extension(_group(cat, name), kernel)
    assert stabilizers(ext) == _product_stabilizers(ext)
    d, _ = extract_datum(ext)
    a0 = reconstruct(d, d.trivial_cocycle())
    assert stabilizers(a0) == _product_stabilizers(a0)


def test_is_semidirect_matches_the_product_loop(cat):
    """The least retraction on the catalog extensions and on every case,
    and on A_0 of each case's datum, which always splits."""
    exts = [ext for _, ext in catalog_extensions(cat)]
    for name, kernel in CASES:
        ext = group_extension(_group(cat, name), kernel)
        d, _ = extract_datum(ext)
        exts += [ext, reconstruct(d, d.trivial_cocycle())]
    splits = 0
    for ext in exts:
        r = is_semidirect(ext)
        assert r == product_retraction(ext)
        splits += r is not None
    assert (len(exts), splits) == (25, 17)


def _old_stabilizing_isomorphism(ext_a, ext_b):
    """Every product of fiber bijections, in lexicographic order, filtered
    by the m-condition on the kernel blocks and by the homomorphism test."""
    a, b, n = ext_a.alg, ext_b.alg, ext_a.alg.size
    if a.size != b.size:
        return None
    fibers_a, fibers_b = {}, {}
    for x in range(n):
        fibers_a.setdefault(ext_a.pi[x], []).append(x)
        fibers_b.setdefault(ext_b.pi[x], []).append(x)
    keys = sorted(fibers_a)
    if any(len(fibers_a[q]) != len(fibers_b[q]) for q in keys):
        return None
    pools = [[dict(zip(fibers_a[q], perm)) for perm in permutations(fibers_b[q])]
             for q in keys]
    blocks = ext_a.beta.blocks()
    for parts in product(*pools):
        gamma = [0] * n
        for part in parts:
            for x, y in part.items():
                gamma[x] = y
        if all(gamma[x] == ext_a.m_elem(gamma[r], r, x)
               for block in blocks for r in block for x in block) \
                and is_homomorphism(gamma, a, b):
            return gamma
    return None


def test_stabilizing_isomorphism_matches_bijection_search(cat, group_eqs):
    """The first gamma found on every cocycle pair of the oracle cases."""
    pairs = 0
    for k_name, q_name, _, act in oracle_cases(cat):
        d, _ = datum_for_oracle_case(cat, k_name, q_name, act)
        exts = [reconstruct(d, s) for s in cocycle_group(d, group_eqs).serialized]
        for ext_a in exts:
            for ext_b in exts:
                assert stabilizing_isomorphism(ext_a, ext_b) == \
                    _old_stabilizing_isomorphism(ext_a, ext_b)
                pairs += 1
    assert pairs == 1113


def _product_stabilizing_isomorphism(ext_a, ext_b):
    """One image per fiber: every product of the pools, in lexicographic
    order, each candidate put through a full homomorphism test."""
    if ext_a.m_flat is None:
        raise DatumError("extension carries no ternary operation")
    a, b = ext_a.alg, ext_b.alg
    if a.size != b.size or ext_a.q_alg is not ext_b.q_alg and \
            ext_a.q_alg.size != ext_b.q_alg.size:
        return None
    n = a.size
    fibers_a = {}
    fibers_b = {}
    for x in range(n):
        fibers_a.setdefault(ext_a.pi[x], []).append(x)
        fibers_b.setdefault(ext_b.pi[x], []).append(x)
    keys = sorted(fibers_a)
    if any(len(fibers_a[q]) != len(fibers_b[q]) for q in keys):
        return None
    space = prod(len(fibers_a[q]) for q in keys)
    if space > DEFAULT_CAP:
        raise CapExceeded("stabilizing_isomorphism", space, DEFAULT_CAP,
                          "{stage}: {size} candidate maps exceed cap {cap}")
    m = ext_a.m_elem
    pools = []
    for q in keys:
        block, targets = fibers_a[q], fibers_b[q]
        pool = []
        for y in targets:
            im = [m(y, block[0], x) for x in block]
            if im[0] == y and sorted(im) == targets and all(
                    im[j] == m(im[i], r, x)
                    for i, r in enumerate(block) for j, x in enumerate(block)):
                pool.append(im)
        pools.append(pool)
    for parts in product(*pools):
        gamma = [0] * n
        for q, images in zip(keys, parts):
            for x, y in zip(fibers_a[q], images):
                gamma[x] = y
        if is_homomorphism(gamma, a, b):
            return gamma
    return None


def _oracle_case_extensions(cat, group_eqs):
    """Per oracle case, the reconstruction of every cocycle."""
    out = []
    for k_name, q_name, _, act in oracle_cases(cat):
        d, _ = datum_for_oracle_case(cat, k_name, q_name, act)
        out.append([reconstruct(d, s) for s in cocycle_group(d, group_eqs).serialized])
    return out


def test_stabilizing_isomorphism_matches_product_search(cat, group_eqs):
    """The compiled search returns the product search's gamma on every
    cocycle pair of the oracle cases."""
    pairs = found = 0
    for exts in _oracle_case_extensions(cat, group_eqs):
        for ext_a in exts:
            for ext_b in exts:
                gamma = stabilizing_isomorphism(ext_a, ext_b)
                assert gamma == _product_stabilizing_isomorphism(ext_a, ext_b)
                pairs += 1
                found += gamma is not None
    assert (pairs, found) == (1113, 209)


def _relabelled_quotients(ext):
    """ext with pi followed by each non-identity automorphism of its
    quotient: the same fibers under other keys."""
    q = ext.q_alg
    for sigma in permutations(range(q.size)):
        if list(sigma) != list(range(q.size)) and is_homomorphism(list(sigma), q, q):
            yield ExtensionRecord(ext.alg, [sigma[x] for x in ext.pi], q, ext.m_flat)


def test_stabilizing_isomorphism_across_fiber_partitions(cat, group_eqs):
    """Extensions of one order from different datums and with relabelled
    quotients, so that one ext_a meets targets whose fiber partitions
    differ: a plan is keyed on the target partition, not built for the
    first target and reused."""
    exts = [ext for _, ext in catalog_extensions(cat)]
    for case in _oracle_case_extensions(cat, group_eqs):
        exts += case[:2]
    exts += [e for ext in exts for e in _relabelled_quotients(ext)]
    pairs = found = 0
    for ext_a in exts:
        for ext_b in exts:
            if ext_a.alg.size == ext_b.alg.size and ext_a.pi != ext_b.pi:
                gamma = stabilizing_isomorphism(ext_a, ext_b)
                assert gamma == _product_stabilizing_isomorphism(ext_a, ext_b)
                pairs += 1
                found += gamma is not None
    assert (pairs, found) == (1002, 88)


def test_one_gamma_plan_per_target_partition(cat, group_eqs, monkeypatch):
    from affext import cohomology
    built = []
    plan = cohomology._gamma_plan

    def counting_plan(ext_a, target_pi):
        built.append((id(ext_a), target_pi))
        return plan(ext_a, target_pi)

    monkeypatch.setattr(cohomology, "_gamma_plan", counting_plan)
    exts = dict(catalog_extensions(cat))
    targets = [exts[k] for k in ("D4/center", "Q8/center", "Z2xZ4/K1", "Z2xZ4/K2")]
    for ext_a in targets:
        for _ in range(3):
            for ext_b in targets:
                stabilizing_isomorphism(ext_a, ext_b)
    assert len(built) == len(set(built)) == 4 * len({t.pi for t in targets})


def test_non_closed_b2_raises():
    """A coboundary set that misses a sum is reported, not a KeyError: the
    table oracle of B2 on a subset of the fiber-respecting maps."""
    from affext.cocycles import coboundary_of, fiber_respecting_maps
    from oracles import table_b2
    d = extract_datum(group_extension(cyclic(12), [0, 6]))[0]
    zero, add = _two_cochains(d)
    image = {h: coboundary_of(d, h) for h in fiber_respecting_maps(d)}
    g1, g2 = sorted(set(image.values()) - {zero})[:2]
    assert add(g1, g2) not in (zero, g1, g2)
    keep = [h for h, g in image.items() if g in (zero, g1, g2)]
    with pytest.raises(DatumError, match="B2 is not closed"):
        table_b2(d, keep)


def test_fiber_tables_reject_non_group(datums):
    """A fresh datum: a copy could share the fiber tables already built."""
    from affext.datum import AffineDatum
    s = datums[("Z4", (0, 2))]
    s.fiber_tables()
    d = AffineDatum(s.q_alg, s.mq_flat, s.asize, s.m_flat, s.alpha, s.dc,
                    s.lifting, s.fdelta, s.actions)
    d.plus_at = lambda q, x, y: x  # every class sums with the zero to the zero
    with pytest.raises(DatumError, match="no unique inverse"):
        d.fiber_tables()


# --- random finite abelian groups Z_a x Z_b x Z_c ----------------------------

moduli = st.lists(st.integers(1, 6), min_size=3, max_size=3)


def _zmod(ms):
    elements = list(product(*(range(m) for m in ms)))
    zero = (0,) * len(ms)

    def add(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, ms))

    return elements, zero, add


def _element_order(x, zero, add):
    acc, k = x, 1
    while acc != zero:
        acc, k = add(acc, x), k + 1
    return k


def _diagonal_factors(ms):
    """Invariant factors of Z_m1 x ... from the prime powers of the m_i."""
    powers = {}
    for m in ms:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m, e = m // p, e + 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    for qs in powers.values():
        qs.sort(reverse=True)
    factors = []
    for i in range(max(map(len, powers.values()), default=0)):
        f = 1
        for qs in powers.values():
            f *= qs[i] if i < len(qs) else 1
        factors.append(f)
    return sorted(factors)


@settings(max_examples=25, deadline=None)
@given(moduli)
def test_invariant_factors_from_orders(ms):
    elements, zero, add = _zmod(ms)
    got = invariant_factors([_element_order(x, zero, add) for x in elements])
    assert got == _diagonal_factors(ms)
    assert got == AbelianGroupPresentation(elements, add, zero).invariant_factors()


@settings(max_examples=60, deadline=None)
@given(moduli, st.data())
def test_subgroup_check(ms, data):
    elements, zero, add = _zmod(ms)
    gens = data.draw(st.lists(st.sampled_from(elements), max_size=3))
    sub, frontier = {zero}, {zero}
    while frontier:
        frontier = {add(x, g) for x in frontier for g in gens} - sub
        sub.update(frontier)
    _check_subgroup(sorted(sub), zero, add, "S")
    subset = data.draw(st.sets(st.sampled_from(elements), min_size=1))
    closed = all(add(x, y) in subset for x in subset for y in subset)
    if closed:
        _check_subgroup(sorted(subset), zero, add, "S")
    else:
        with pytest.raises(DatumError):
            _check_subgroup(sorted(subset), zero, add, "S")
