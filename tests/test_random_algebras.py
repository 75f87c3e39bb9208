"""Random small algebras: the labelled Cg against the union-find sliced Cg
and the displacement loop they replaced, the sliced congruence_violation
against its apply loop, is_abelian against the Cg on A(alpha) it replaced
and the term-condition commutator, satisfies against its eval_term loop,
the lattice laws of Con A and of the commutator, and find_isomorphism
against a search over every permutation and the backtracking it
replaced."""

import random
from itertools import permutations, product

from hypothesis import given, settings, strategies as st

from affext.algebras import (AlgebraError, FiniteAlgebra, Signature,
                             congruence_violation, find_isomorphism,
                             is_homomorphism, satisfies)
from affext.commutator import is_abelian, tc_commutator
from affext.congruences import (Congruence, all_congruences, cg,
                                kernel_of_map, pair_algebra)

from oracles import (UnionFind, backtracking_isomorphism, cg_is_abelian,
                     enumerated_congruences, eval_satisfies)


def oracle_cg(alg, pairs):
    """Cg by the single-displacement loop: one union per context."""
    n = alg.size
    uf = UnionFind(n)
    queue = []
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise AlgebraError("pair (%d,%d) outside universe" % (a, b))
        if uf.union(a, b):
            queue.append((a, b))
    ops = [(sym, ar) for sym, ar in alg.signature.symbols if ar >= 1]
    while queue:
        a, b = queue.pop()
        for sym, ar in ops:
            tab = alg.tables[sym]
            if ar == 1:
                if uf.union(tab[a], tab[b]):
                    queue.append((tab[a], tab[b]))
                continue
            for i in range(ar):
                for ctx in product(range(n), repeat=ar - 1):
                    idx_a = 0
                    idx_b = 0
                    for j in range(ar):
                        if j < i:
                            va = vb = ctx[j]
                        elif j == i:
                            va, vb = a, b
                        else:
                            va = vb = ctx[j - 1]
                        idx_a = idx_a * n + va
                        idx_b = idx_b * n + vb
                    ra, rb = tab[idx_a], tab[idx_b]
                    if uf.union(ra, rb):
                        queue.append((ra, rb))
    return Congruence(n, uf.rep_array())


def sliced_cg(alg, pairs):
    """Cg by union-find: every slice of a merged pair's translations is
    walked, its distinct result pairs collected and then joined."""
    n = alg.size
    uf = UnionFind(n)
    queue = []
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise AlgebraError("pair (%d,%d) outside universe" % (a, b))
        if uf.union(a, b):
            queue.append((a, b))
    tabs = [(alg.tables[sym], ar) for sym, ar in alg.signature.symbols if ar >= 1]
    while queue:
        a, b = queue.pop()
        images = set()
        for tab, ar in tabs:
            images.update(zip(tab[a::n], tab[b::n]))
            for i in range(ar - 1):
                s = n ** (ar - 1 - i)
                sa, sb = a * s, b * s
                for p in range(0, len(tab), n * s):
                    images.update(zip(tab[p + sa:p + sa + s], tab[p + sb:p + sb + s]))
        for x, y in images:
            if x != y and uf.union(x, y):
                queue.append((x, y))
    return Congruence(n, uf.rep_array())


@st.composite
def algebras(draw, max_size, arities):
    """A random algebra: one table per arity in arities, entries uniform."""
    n = draw(st.integers(1, max_size))
    elem = st.integers(0, n - 1)
    tables = {"f%d" % k: tuple(draw(st.lists(elem, min_size=n ** ar, max_size=n ** ar)))
              for k, ar in enumerate(arities)}
    sig = Signature([("f%d" % k, ar) for k, ar in enumerate(arities)])
    return FiniteAlgebra(n, sig, tables)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cg_matches_the_displacement_loop(data):
    arities = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    alg = data.draw(algebras(5, arities))
    elem = st.integers(0, alg.size - 1)
    pairs = data.draw(st.lists(st.tuples(elem, elem), max_size=3))
    assert cg(alg, pairs) == sliced_cg(alg, pairs) == oracle_cg(alg, pairs)


def test_cg_matches_sliced_cg_on_delta_inputs(cat):
    """The Cg half of Delta_{alpha beta} for every pair of non-trivial
    congruences of eight groups of order <= 8."""
    inputs = 0
    for name in ("Z4", "Z2xZ2", "S3", "Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8"):
        g = cat[name]
        proper = [c for c in all_congruences(g) if not c.is_equality()]
        for alpha in proper:
            pairalg = pair_algebra(g, alpha)
            index = pairalg.pair_index
            for beta in proper:
                gens = [(index[(u, u)], index[(v, v)]) for u, v in beta.pairs()]
                assert cg(pairalg, gens) == sliced_cg(pairalg, gens)
                inputs += 1
    assert inputs == 357


def oracle_congruence_violation(alg, cong):
    """The first witness by one apply per argument tuple, in the order
    symbol, pair a < b in one block, position, context."""
    rep = cong.rep
    n = alg.size
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rep[a] == rep[b]]
    for sym, ar in alg.signature.symbols:
        if ar == 0:
            continue
        for a, b in pairs:
            for i in range(ar):
                for ctx in product(range(n), repeat=ar - 1):
                    args_a = ctx[:i] + (a,) + ctx[i:]
                    args_b = ctx[:i] + (b,) + ctx[i:]
                    if rep[alg.apply(sym, args_a)] != rep[alg.apply(sym, args_b)]:
                        return (sym, i, (a, b), ctx)
    return None


@st.composite
def near_congruences(draw):
    """An algebra on at most 4 elements whose tables respect a random
    partition, then up to two table cells and up to one element of the
    partition moved: a violation, when there is one, can sit at any
    symbol, pair, position and context."""
    n = draw(st.integers(1, 4))
    elem = st.integers(0, n - 1)
    arities = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    labels = draw(st.lists(elem, min_size=n, max_size=n))
    blocks = {x: [y for y in range(n) if labels[y] == labels[x]] for x in range(n)}
    tables = {}
    for k, ar in enumerate(arities):
        image = {}  # block labels of the arguments -> a member of the value's block
        tab = [rng.choice(blocks[image.setdefault(tuple(labels[x] for x in args),
                                                  rng.randrange(n))])
               for args in product(range(n), repeat=ar)]
        for _ in range(draw(st.integers(0, 2))):
            tab[rng.randrange(len(tab))] = rng.randrange(n)
        tables["f%d" % k] = tuple(tab)
    alg = FiniteAlgebra(n, Signature([("f%d" % k, ar) for k, ar in enumerate(arities)]),
                        tables)
    if draw(st.booleans()):
        labels[draw(elem)] = draw(elem)
    return alg, kernel_of_map(labels, n)


@settings(max_examples=400, deadline=None)
@given(near_congruences())
def test_congruence_violation_matches_the_apply_loop(case):
    alg, cong = case
    assert congruence_violation(alg, cong) == oracle_congruence_violation(alg, cong)


@st.composite
def ternary_algebras(draw):
    """<A, m> with an optional unary u and an optional binary b, on at most
    3 elements.  m starts from x - y + z on Z_n or from a random table, may
    have a few cells changed, and may be made Mal'cev on the blocks of a
    random partition."""
    n = draw(st.integers(1, 3))
    elem = st.integers(0, n - 1)
    if draw(st.booleans()):
        tab = [(x - y + z) % n for x, y, z in product(range(n), repeat=3)]
    else:
        tab = draw(st.lists(elem, min_size=n ** 3, max_size=n ** 3))
    for _ in range(draw(st.integers(0, 2))):
        tab[draw(st.integers(0, n ** 3 - 1))] = draw(elem)
    if draw(st.booleans()):
        labels = draw(st.lists(elem, min_size=n, max_size=n))
        for x, y in product(range(n), repeat=2):
            if labels[x] == labels[y]:
                tab[(x * n + y) * n + y] = x
                tab[(y * n + y) * n + x] = x
    symbols = [("m", 3)]
    tables = {"m": tuple(tab)}
    if draw(st.booleans()):
        symbols.append(("u", 1))
        tables["u"] = tuple(draw(st.lists(elem, min_size=n, max_size=n)))
    if draw(st.booleans()):
        symbols.append(("b", 2))
        tables["b"] = tuple(draw(st.lists(elem, min_size=n * n, max_size=n * n)))
    return FiniteAlgebra(n, Signature(symbols), tables)


@settings(max_examples=120, deadline=None)
@given(ternary_algebras(), st.data())
def test_is_abelian_matches_the_commutator(alg, data):
    # alpha = 0 is abelian on either route, so draw it only when it is alone
    cons = all_congruences(alg)
    alpha = data.draw(st.sampled_from([c for c in cons if not c.is_equality()] or cons))
    value = is_abelian(alg, alpha)
    assert value == cg_is_abelian(alg, alpha)
    assert value == tc_commutator(alg, alpha, alpha).is_equality()


@st.composite
def terms(draw, symbols, depth=3):
    """A term in x0, x1, x2 over (symbol, arity) pairs, at most depth
    deep."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(["x0", "x1", "x2"]))
    sym, ar = draw(st.sampled_from(symbols))
    return (sym,) + tuple(draw(terms(symbols, depth - 1)) for _ in range(ar))


def outcome(fn, alg, equations):
    """fn's result, or the type of what it raised."""
    try:
        return fn(alg, equations)
    except Exception as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_satisfies_matches_the_eval_term_loop(data):
    """The first failing equation and assignment, or the same exception:
    a symbol outside the signature may be drawn, and some equations are
    t = t, which hold."""
    arities = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    alg = data.draw(algebras(3, arities))
    symbols = list(alg.signature.symbols)
    if data.draw(st.booleans()):
        symbols.append(("nosuch", 1))
    equations = []
    for _ in range(data.draw(st.integers(1, 3))):
        lhs = data.draw(terms(symbols))
        equations.append((lhs, lhs if data.draw(st.booleans()) else data.draw(terms(symbols))))
    assert outcome(satisfies, alg, equations) == outcome(eval_satisfies, alg, equations)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lattice_laws(data):
    arities = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    alg = data.draw(algebras(4, arities))
    cons = all_congruences(alg)
    found = set(cons)
    for a, b in product(cons, repeat=2):
        assert a.meet(b) in found and a.join(b) in found
    comm = {(a, b): tc_commutator(alg, a, b) for a, b in product(cons, repeat=2)}
    for (a, b), c in comm.items():
        assert c.le(a.meet(b))
    for (a, b), (a2, b2) in product(comm, repeat=2):
        if a.le(a2) and b.le(b2):
            assert comm[a, b].le(comm[a2, b2])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_all_congruences_match_the_enumeration(data):
    arities = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    alg = data.draw(algebras(5, arities))
    assert all_congruences(alg) == enumerated_congruences(alg)


def malcev_reduct(g):
    """<G, x y^-1 z> of a group in the catalog signature."""
    n = g.size
    tab = tuple(g.op("mul", g.op("mul", x, g.op("inv", y)), z)
                for x, y, z in product(range(n), repeat=3))
    return FiniteAlgebra(n, Signature([("m", 3)]), {"m": tab})


def test_is_abelian_on_group_malcev_reducts(cat):
    """Against tc_commutator on every congruence, except the top one of S3,
    whose M(1,1) closure alone takes about 30 s; there the known answer
    stands in: <G, x y^-1 z> is affine only when G is abelian."""
    for name in ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3"):
        alg = malcev_reduct(cat[name])
        for alpha in all_congruences(alg):
            if name == "S3" and alpha.is_all():
                assert not is_abelian(alg, alpha)
                continue
            assert is_abelian(alg, alpha) == tc_commutator(alg, alpha, alpha).is_equality()


def permuted(alg, perm):
    """alg relabelled along the bijection perm."""
    n = alg.size
    inv = [perm.index(y) for y in range(n)]
    return FiniteAlgebra(n, alg.signature, {
        sym: tuple(perm[alg.apply(sym, tuple(inv[x] for x in args))]
                   for args in product(range(n), repeat=ar))
        for sym, ar in alg.signature.symbols})


def is_isomorphism_by_apply(perm, a, b):
    return all(perm[a.apply(sym, args)] == b.apply(sym, tuple(perm[x] for x in args))
               for sym, ar in a.signature.symbols
               for args in product(range(a.size), repeat=ar))


@st.composite
def algebra_pairs(draw):
    """Two algebras of one size and signature, one symbol of each arity
    0..3 or fewer: b is a relabelled copy of a, that copy with one entry
    changed, or a second random algebra."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    a = draw(algebras(5, arities))
    n = a.size
    kind = draw(st.sampled_from(["copy", "edited copy", "fresh"]))
    if kind == "fresh":
        elem = st.integers(0, n - 1)
        return a, FiniteAlgebra(n, a.signature, {
            sym: tuple(draw(st.lists(elem, min_size=n ** ar, max_size=n ** ar)))
            for sym, ar in a.signature.symbols})
    b = permuted(a, draw(st.permutations(range(n))))
    if kind == "edited copy":
        sym, ar = draw(st.sampled_from(a.signature.symbols))
        tab = list(b.tables[sym])
        tab[draw(st.integers(0, len(tab) - 1))] = draw(st.integers(0, n - 1))
        b = FiniteAlgebra(n, a.signature, {**b.tables, sym: tuple(tab)})
    return a, b


@settings(max_examples=400, deadline=None)
@given(algebra_pairs())
def test_find_isomorphism_is_exact(pair):
    """find_isomorphism answers as a search over every permutation does,
    returns the backtracking's map, and that map is an isomorphism."""
    a, b = pair
    iso = find_isomorphism(a, b)
    assert iso == backtracking_isomorphism(a, b)
    assert (iso is not None) == any(is_isomorphism_by_apply(p, a, b)
                                    for p in permutations(range(a.size)))
    if iso is not None:
        assert sorted(iso) == list(range(a.size)) and is_homomorphism(iso, a, b)
