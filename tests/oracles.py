"""Slow references kept as oracles: the forms the library once computed
with, now compared with what replaced them.

- weak_sum: the transfer-free sum of a term by structural recursion, as
  the weak gate's columns compute it a whole product of fibers at a time.
- partial_derivative_recursive: t^{d,T} node by node.
- cocycle_add, cocycle_sub: 2-cochain sums on TwoCocycle tables.
- tuple_encode: base-n codes of tuples.
- search_z2: the propagated backtracking search for Z2, one frame per cell
  in a constraint-driven cell order.
- table_b2, table_z1: B2 and Z1 read off delta on every fiber-respecting
  map.
- cg_is_abelian: [alpha,alpha] = 0 by one Cg on the pair algebra A(alpha).
- eval_satisfies: the first failing assignment of an equation set by one
  eval_term per assignment and side.
- intersected_principal_stabilizers: PStab as the fixed-point twins of
  the identity intersected with the listed Stab(A_0).
- enumerated_congruences: Con A by one Cg per congruence found and pair
  it does not relate.
- pair_algebra_m_matrices: M(alpha,beta) closed in A(alpha)**2 and read
  back as quadruples.
- entrywise_reconstruct: the extension of a datum and cocycle with every
  entry summed on its own, the cocycle included.
- tuple_subpower_tables: subpower tables with every entry built as a
  k-tuple and looked up by hashing it.
- UnionFind, union_find_tr_m: path-halving union-find, and the Tr M half
  of Delta by one union per matrix with tuple-keyed pair lookups.
"""

from functools import partial
from heapq import heapify, heappop, heappush
from itertools import chain, product

from affext.algebras import (CapExceeded, FiniteAlgebra, _apply_rows,
                             _row_getters, closure)
from affext.cocycles import (TwoCocycle, _serialized_sub, coboundary_of,
                             fiber_respecting_maps, reconstruct)
from affext.cohomology import (_check_subgroup, _cochain_group,
                               _constraints_for, _two_cochains, stabilizers,
                               twin_pairs_of_identity)
from affext.commutator import is_malcev_on_blocks, tc_commutator
from affext.congruences import Congruence, cg, pair_algebra
from affext.datum import (ClassMaps, DatumError, ExtensionRecord,
                          check_action_compatible)
from affext.terms import eval_term, is_var, term_vars


def weak_sum(d, term, env):
    """The transfer-free part of a term's interpretation: the sum over
    consistent evaluations, computed by structural recursion.

    env assigns Delta-classes to variables.  At each node the class argument
    in position 1 goes through f-delta and positions >= 2 through the
    action, exactly the expansion used by the reconstruction.
    """
    if is_var(term):
        return env[term]
    sym = term[0]
    subs = term[1:]
    ar = len(subs)
    qenv = {v: d.dc.rho_class[env[v]] for v in env}
    if ar == 0:
        return d.delta_l(d.q_alg.tables[sym][0])
    qs = tuple(d.eval_q(s, qenv) for s in subs)
    uq = d.q_alg.apply(sym, qs)
    val = d.fdelta_apply(sym, weak_sum(d, subs[0], env), qs[1:])
    for k in range(2, ar + 1):
        arm = d.action_apply(sym, k, qs[:k - 1] + qs[k:], weak_sum(d, subs[k - 1], env))
        val = d.plus_at(uq, val, arm)
    return val


def partial_derivative_recursive(d, T, term, qenv):
    """Same value as partial_derivative, computed by distributing the
    homomorphism property node by node."""
    if is_var(term):
        return d.delta_l(qenv[term])
    sym = term[0]
    subs = term[1:]
    qs = tuple(d.eval_q(s, qenv) for s in subs)
    base = d.q_alg.apply(sym, qs)
    if not subs:
        return T.value(sym, ())
    val = d.fdelta_apply(sym, partial_derivative_recursive(d, T, subs[0], qenv),
                         qs[1:])
    for k in range(2, len(subs) + 1):
        inner = partial_derivative_recursive(d, T, subs[k - 1], qenv)
        val = d.plus_at(base, val,
                        d.action_apply(sym, k, qs[:k - 1] + qs[k:], inner))
    return d.plus_at(base, val, T.value(sym, qs))


def cocycle_add(d, T1, T2):
    """(T + T')_f(x) = T_f(x) +_{l(f(x))} T'_f(x)."""
    tables = {}
    for sym, ar in d.signature.symbols:
        tab = {}
        for qs in product(range(d.qsize()), repeat=ar):
            base = d.q_alg.apply(sym, qs)
            tab[qs] = d.plus_at(base, T1.value(sym, qs), T2.value(sym, qs))
        tables[sym] = tab
    return TwoCocycle(tables)


def cocycle_sub(d, T1, T2):
    """T1 - T2: at each cell over u = l(f^Q(qs)), T1 +_u (-_u T2) with
    -_u y = m(delta(u), y, delta(u)), computed by _serialized_sub."""
    return TwoCocycle.from_serialized(
        d, _serialized_sub(d, T1.serialize(d), T2.serialize(d)))


def tuple_encode(coords, n):
    idx = 0
    for c in coords:
        idx = idx * n + c
    return idx


def _cell_order(constraints, cells):
    """Cells ordered so constraints trigger early: repeatedly place the
    unplaced cells of a constraint with the fewest of them (lowest index
    first), then any cell no constraint mentions."""
    left = [len(c[2]) for c in constraints]
    users = {}
    for i, c in enumerate(constraints):
        for cell in c[2]:
            users.setdefault(cell, []).append(i)
    heap = [(k, i) for i, k in enumerate(left)]
    heapify(heap)
    pos = {}
    while heap:
        k, i = heappop(heap)
        if k != left[i] or k == 0:
            continue  # a stale count, or every cell already placed
        for cell in sorted(constraints[i][2]):
            if cell not in pos:
                pos[cell] = len(pos)
                for j in users[cell]:
                    left[j] -= 1
                    if left[j]:
                        heappush(heap, (left[j], j))
    for cell in cells:
        pos.setdefault(cell, len(pos))
    return sorted(pos, key=pos.get), pos


def search_z2(d, equations, cap=1 << 24):
    """cocycle_group's serialized Z2 by the propagated search it once ran:
    the compiled (C2) constraints, each checked as soon as its last cell is
    assigned, in _cell_order; the gate and the subgroup checks are
    cocycle_group's, and cap bounds the nodes visited.  The search recurses
    once per cell."""
    if not check_action_compatible(d, equations, mode="weak")["holds"]:
        return []
    cells = d.cells()
    domains = {cell: list(d.fiber(d.cell_fiber(*cell))) for cell in cells}
    cm = ClassMaps(d)
    constraints = [(lhs, rhs, {cells[i] for i, _ in lhs[1] + rhs[1]})
                   for lhs, rhs in _constraints_for(cm, equations, domains)]
    order, pos = _cell_order(constraints, cells)
    size, memo, m = cm.size, d.dc._m_memo(), d.dc.m_class
    square = size * size

    def at_depths(side):
        zero = d.delta_l(side[0])
        return zero, zero * size, [(pos[cells[i]], img) for i, img in side[1]]

    triggers = [[] for _ in order]
    for lhs, rhs, con_cells in constraints:
        triggers[max(pos[cell] for cell in con_cells)].append(
            (at_depths(lhs), at_depths(rhs)))
    order_domains = [domains[cell] for cell in order]
    serial = [pos[cell] for cell in cells]
    vals = [None] * len(order)
    visited = [0]
    solutions = []

    def value(side):
        zero, off, terms = side
        acc = zero
        for p, img in terms:
            y = img[vals[p]]
            s = memo[acc * square + off + y]
            acc = s if s is not None else m(acc, zero, y)
        return acc

    def search(depth):
        if depth == len(order):
            solutions.append(tuple([vals[p] for p in serial]))
            return
        checks = triggers[depth]
        for v in order_domains[depth]:
            visited[0] += 1
            if visited[0] > cap:
                raise CapExceeded("cocycle_group", visited[0], cap,
                                  "{stage}: search visited more than {cap} nodes")
            vals[depth] = v
            for lhs, rhs in checks:
                if value(lhs) != value(rhs):
                    break
            else:
                search(depth + 1)

    try:
        search(0)
    finally:
        del search  # the recursive closure refers to itself
    solutions.sort()
    if solutions:
        zero, add = _two_cochains(d)
        if zero not in set(solutions):
            raise DatumError("trivial cocycle is not compatible; gate failed")
        _check_subgroup(solutions, zero, add, "Z2")
    return solutions


def table_b2(d, maps=None):
    """Sorted B2 as the images of delta on every fiber-respecting map (or
    on maps), checked to be a subgroup."""
    images = {coboundary_of(d, h).serialize(d)
              for h in (fiber_respecting_maps(d) if maps is None else maps)}
    serialized = sorted(images)
    zero, add = _two_cochains(d)
    _check_subgroup(serialized, zero, add, "B2")
    return serialized


def table_z1(d):
    """Sorted Z1 as the fiber-respecting maps delta sends to zero, checked
    to be a subgroup."""
    zero = d.trivial_cocycle().serialize(d)
    out = sorted(h for h in fiber_respecting_maps(d)
                 if coboundary_of(d, h).serialize(d) == zero)
    if out:
        zero, add = _cochain_group(d, range(d.qsize()))
        _check_subgroup(out, zero, add, "Z1")
    return out


def cg_is_abelian(alg, alpha, cap=1 << 24):
    """[alpha,alpha] = 0, when some basic ternary m of alg is Mal'cev on
    every alpha-block, by one Cg on A(alpha); otherwise tc_commutator.

    Let R, a relation on A(alpha), join the two columns of each matrix of
    M(alpha,alpha).  R is reflexive and compatible, and the four entries of
    a matrix share one alpha-block.  For (u,v) in R, applying m to (v,v),
    (u,v), (u,u) in R gives (m(v,u,u), m(v,v,u)) = (v,u), so R is
    symmetric; for (u,v), (v,w) in R, applying m to (u,v), (v,v), (v,w)
    gives (u,w), so R is transitive.  So R is a congruence, and R = Tr M =
    Delta_{alpha,alpha}, the Cg on A(alpha) of {((u,u),(v,v)) : u alpha
    v}.  [alpha,alpha] = 0 says that no Delta-class holds two pairs (x,y)
    and (x,y') with y != y'.
    """
    blocks = alpha.blocks()
    if not any(ar == 3 and is_malcev_on_blocks(partial(alg.op, sym), blocks)
               for sym, ar in alg.signature.symbols):
        return tc_commutator(alg, alpha, alpha, cap=cap).is_equality()
    pairalg = pair_algebra(alg, alpha, cap=cap)
    index = pairalg.pair_index
    delta_c = cg(pairalg, [(index[(u, u)], index[(v, v)]) for u, v in alpha.pairs()])
    first = {}
    for i, (x, _) in enumerate(pairalg.pairs):
        if first.setdefault((delta_c.rep[i], x), i) != i:
            return False
    return True


def eval_satisfies(alg, equations):
    """First failing (lhs, rhs, env) for the equation set, or None: one
    eval_term per assignment and side, in product order."""
    for lhs, rhs in equations:
        varnames = term_vars(lhs, rhs)
        for vals in product(range(alg.size), repeat=len(varnames)):
            env = dict(zip(varnames, vals))
            if eval_term(alg, lhs, env) != eval_term(alg, rhs, env):
                return (lhs, rhs, env)
    return None


def intersected_principal_stabilizers(d):
    """principal_stabilizers(d) as (A_0, PStab, exact), with PStab the
    sorted twins of the identity that have a fixed point and lie in
    stabilizers(A_0), which is listed under its own cap."""
    a0 = reconstruct(d, d.trivial_cocycle(), name="A_0")
    pairs, exact = twin_pairs_of_identity(a0.alg, a0.beta)
    ident = tuple(range(a0.alg.size))
    twins = sorted({g for g, h in pairs
                    if h == ident and any(g[x] == x for x in range(a0.alg.size))})
    stabs = set(stabilizers(a0))
    return a0, [g for g in twins if g in stabs], exact


def enumerated_congruences(alg):
    """Every congruence of alg, sorted by rep: from Cg of no pairs, the
    Cg of each congruence found together with each pair it does not
    relate, until no new congruence appears."""
    n = alg.size
    found = {cg(alg, [])}
    frontier = list(found)
    while frontier:
        new = []
        for c in frontier:
            for a in range(n):
                for b in range(a + 1, n):
                    if c.related(a, b):
                        continue
                    d = cg(alg, [(a, b)] + [(x, c.rep[x]) for x in range(n)])
                    if d not in found:
                        found.add(d)
                        new.append(d)
        frontier = new
    return sorted(found, key=lambda c: c.rep)


def pair_algebra_m_matrices(alg, alpha, beta):
    """M(alpha,beta) as m_matrices once built it: a matrix is the pair
    (index of column 1, index of column 2) in A(alpha)**2, closed there
    from [x x // y y], x alpha y, and [u v // u v], u beta v, and each
    (i, j) read back as the quadruple (q1, q2, q3, q4)."""
    pairalg = pair_algebra(alg, alpha)
    index, pairs = pairalg.pair_index, pairalg.pairs
    gens = [(i, i) for i in range(pairalg.size)]
    gens += [(index[(u, u)], index[(v, v)]) for u, v in beta.pairs()]
    return {(pairs[i][0], pairs[j][0], pairs[i][1], pairs[j][1])
            for i, j in closure(pairalg, 2, gens)}


def entrywise_reconstruct(d, T, name=None, verify=True):
    """reconstruct with each entry summed on its own: the f-delta term, the
    action terms for positions 2..n and T_f, left-associated at base
    l(f^Q(q)), after (C1) is checked cell by cell."""
    U = d.dc.size
    nq = d.qsize()
    if verify:
        for sym, ar in d.signature.symbols:
            for qs in product(range(nq), repeat=ar):
                if d.dc.rho_class[T.value(sym, qs)] != d.cell_fiber(sym, qs):
                    raise DatumError("cocycle violates (C1) at %s%r" % (sym, qs))
    tables = {}
    for sym, ar in d.signature.symbols:
        if ar == 0:
            tables[sym] = (T.value(sym, ()),)
            continue
        flat = []
        for cs in product(range(U), repeat=ar):
            qs = tuple(d.dc.rho_class[c] for c in cs)
            base = d.q_alg.apply(sym, qs)
            val = d.fdelta_apply(sym, cs[0], qs[1:])
            for i in range(2, ar + 1):
                val = d.plus_at(base, val,
                                d.action_apply(sym, i, qs[:i - 1] + qs[i:], cs[i - 1]))
            val = d.plus_at(base, val, T.value(sym, qs))
            flat.append(val)
        tables[sym] = tuple(flat)
    alg = FiniteAlgebra(U, d.signature, tables, name=name or "A_T")
    m_flat = tuple(d.dc.m_class(x, y, z)
                   for x in range(U) for y in range(U) for z in range(U))
    lifting = tuple(d.delta_l(q) for q in range(nq))
    return ExtensionRecord(alg, d.dc.rho_class, d.q_alg, m_flat,
                           lifting=lifting, name=alg.name, datum=d)


def tuple_subpower_tables(alg, elements):
    """Flat tables of the subalgebra of alg**k on the list elements, each
    entry's value built as a k-tuple a row of the pool at a time and
    looked up in a tuple-keyed index."""
    n = alg.size
    index = {t: i for i, t in enumerate(elements)}
    rows = _row_getters(elements)
    tables = {}
    for sym, ar in alg.signature.symbols:
        tab = alg.tables[sym]
        if ar == 0:
            tables[sym] = (index[(tab[0],) * len(rows)],)
            continue
        tables[sym] = tuple(map(index.__getitem__, chain.from_iterable(
            _apply_rows(tab, n, prefix, rows)
            for prefix in product(elements, repeat=ar - 1))))
    return tables


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            x, p[x] = p[x], p[p[x]]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra  # keep least element as root
        return True

    def rep_array(self):
        return [self.find(x) for x in range(len(self.parent))]


def union_find_tr_m(pairalg, matrices):
    """The transitive closure of M(alpha,beta) on A(alpha): one union per
    matrix of its columns (q1,q3) and (q2,q4), looked up as tuples."""
    index = pairalg.pair_index
    uf = UnionFind(pairalg.size)
    for (q1, q2, q3, q4) in matrices:
        uf.union(index[(q1, q3)], index[(q2, q4)])
    return Congruence(pairalg.size, uf.rep_array())
