"""Slow references kept as oracles: the forms the library once computed
with, now compared with what replaced them.

- weak_sum: the transfer-free sum of a term by structural recursion, as
  the weak gate's columns compute it a whole product of fibers at a time.
- partial_derivative_recursive: t^{d,T} node by node.
- tables_of, cochain_of: a 2-cochain as per-symbol dict tables and back.
- cocycle_add: 2-cochain sums on dict tables.
- tuple_encode: base-n codes of tuples.
- image_list_constraints, image_list_kernel, image_list_z2,
  image_list_delta_kernel: the (C2) instances compiled as sides of
  (cell, image list) pairs per Q assignment, and the kernel that turned
  each side into Howell rows, for Z2 and for delta; the image lists are
  built entry by entry (entrywise_wrap), not sliced off the flat tables.
- entrywise_datum_tables, triplewise_m_table, entrywise_coboundary:
  extract_datum's f-delta and action tables swept entry by entry over
  every representative, the class-level m table filled one triple at a
  time, and coboundary_of summed cell by cell.
- search_z2: the propagated backtracking search for Z2, one frame per cell
  in a constraint-driven cell order, over image_list_constraints.
- first_index_namer: H2's class names with each class compared to every
  earlier reconstruction.
- bar_complex_orders: |Z1|, |H1| and |H2| of a group acting on an
  elementary abelian group, from GF(p) ranks of the bar complex, with no
  datum, cocycle or linear-algebra code of the library.
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
- backtracking_isomorphism: find_isomorphism's element-by-element
  backtracking, with is_homomorphism tested at each leaf (its partial
  check missed entries whose value gets its image after its arguments).
- product_retraction: is_semidirect's loop over the product of the kernel
  blocks, each representative choice tested with is_homomorphism.
- plus_u, entrywise_validate_datum: m(x, delta(u), y) at an explicit base
  element u, and validate_datum with every axiom checked per
  class, pair or triple through fdelta_apply, action_apply, plus_at and
  m_class, and ker rho, the canonical map and the Delta rule by scans over
  every pair of pairs.
"""

from functools import partial, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, product
from operator import mul

from affext._linear import fiber_basis, howell, howell_kernel
from affext.algebras import (DEFAULT_CAP, GROUP_SIGNATURE, AlgebraError,
                             CapExceeded, FiniteAlgebra, _apply_rows, _invariant,
                             _profiles, _row_getters, closure, congruence_violation,
                             find_isomorphism, is_homomorphism)
from affext.cocycles import (coboundary_of, e_paths, fiber_respecting_maps,
                             reconstruct)
from affext.cohomology import (_check_subgroup, _cochain_group, _side_value,
                               _solutions, _two_cochains, stabilizers,
                               twin_pairs_of_identity)
from affext.commutator import (is_abelian, is_malcev_on_blocks, tc_commutator,
                               verify_ternary_abelian_group_on_blocks)
from affext.congruences import Congruence, cg, pair_algebra
from affext.datum import (_M_SIGNATURE, DatumError, ExtensionRecord,
                          check_action_compatible)
from affext.groups import iso_type
from affext.terms import eval_term, is_var, term_table, term_vars


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


def tables_of(d, T):
    """{symbol: {qs: class}} of a 2-cochain, one value per cell of cells()."""
    tables = {sym: {} for sym, _ in d.signature.symbols}
    for (sym, qs), v in zip(d.cells(), T):
        tables[sym][qs] = v
    return tables


def cochain_of(d, tables):
    """The 2-cochain of per-symbol dict tables, in cells() order."""
    return tuple(tables[sym][qs] for sym, qs in d.cells())


def partial_derivative_recursive(d, T, term, qenv):
    """Same value as partial_derivative, computed by distributing the
    homomorphism property node by node on T's dict tables."""
    return _derivative_on_tables(d, tables_of(d, T), term, qenv)


def _derivative_on_tables(d, tables, term, qenv):
    if is_var(term):
        return d.delta_l(qenv[term])
    sym = term[0]
    subs = term[1:]
    qs = tuple(d.eval_q(s, qenv) for s in subs)
    base = d.q_alg.apply(sym, qs)
    if not subs:
        return tables[sym][()]
    val = d.fdelta_apply(sym, _derivative_on_tables(d, tables, subs[0], qenv),
                         qs[1:])
    for k in range(2, len(subs) + 1):
        inner = _derivative_on_tables(d, tables, subs[k - 1], qenv)
        val = d.plus_at(base, val,
                        d.action_apply(sym, k, qs[:k - 1] + qs[k:], inner))
    return d.plus_at(base, val, tables[sym][qs])


def cocycle_add(d, T1, T2):
    """(T + T')_f(x) = T_f(x) +_{l(f(x))} T'_f(x), on dict tables."""
    t1, t2 = tables_of(d, T1), tables_of(d, T2)
    tables = {}
    for sym, ar in d.signature.symbols:
        tab = {}
        for qs in product(range(d.qsize()), repeat=ar):
            base = d.q_alg.apply(sym, qs)
            tab[qs] = d.plus_at(base, t1[sym][qs], t2[sym][qs])
        tables[sym] = tab
    return cochain_of(d, tables)


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
    constraints = [(lhs, rhs, {cells[i] for i, _ in lhs[1] + rhs[1]})
                   for lhs, rhs in image_list_constraints(d, equations, domains)]
    order, pos = _cell_order(constraints, cells)
    size, table, m = d.dc.size, d.dc.m_table(), d.dc.m_class
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
            s = table[acc * square + off + y]
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


def _image_list_map(d, img, src, dst, basis, seen):
    """Per generator of the fiber over src, the nonzero coefficients (t, c)
    of its image, when img is a homomorphism into the fiber over dst on the
    fiber tables, else None; kept in seen."""
    key = id(img), src, dst
    if key not in seen:
        size, tables = d.dc.size, d.fiber_tables()
        a, b, fib = tables[src], tables[dst], d.fiber(src)
        coords = basis[dst][1]
        seen[key] = [[(t, c) for t, c in enumerate(coords[img[g]]) if c]
                     for g, _, _ in basis[src][0]] if all(
            img[a[x * size + y]] == b[img[x] * size + img[y]]
            for x in fib for y in fib) else None
    return seen[key]


def image_list_kernel(d, bases, constraints):
    """(order, generators, nonlinear) of constraints (lhs, rhs) on tuples v
    whose value i lies in the fiber over bases[i]; a side (base, [(i, img)])
    is the sum of the img[v[i]] at base.  The constraints whose maps are
    homomorphisms cut out the subgroup of that order spanned by the
    generators (value tuples); nonlinear lists the others' indices, and
    rows holds the Howell input per prime.  A value's fiber is split once
    per call, and each side's images become a row through a dict keyed by
    (factor of the base, column), once per constraint.
    """
    basis = {q: fiber_basis(d, q)
             for q in set(bases) | {lhs[0] for lhs, _ in constraints}}
    columns, start = [], []  # (i, j, p, k) per generator j of value i; i's first
    for i, q in enumerate(bases):
        start.append(len(columns))
        columns += [(i, j, p, k) for j, (_, p, k) in enumerate(basis[q][0])]
    top = {}  # per prime, the largest exponent of a factor
    for p, k in sorted({g[1:] for gens, _, _ in basis.values() for g in gens}):
        top[p] = k
    # Z/p^a sits in Z/p^K as the multiples of p^(K-a), the x with p^a x = 0
    rows = {p: [{c: p ** k} for c, (_, _, r, k) in enumerate(columns)
                if r == p and k < top[p]] for p in top}
    nonlinear, seen = [], {}
    for n, (lhs, rhs) in enumerate(constraints):
        factors = basis[lhs[0]][0]
        maps = [(i, _image_list_map(d, img, bases[i], lhs[0], basis, seen), sign)
                for sign, side in ((1, lhs), (-1, rhs)) for i, img in side[1]]
        if any(m is None for _, m, _ in maps):
            nonlinear.append(n)
            continue
        acc = {}  # (factor of the base, column) -> coefficient
        for i, m, sign in maps:
            for col, coeffs in enumerate(m, start[i]):
                for t, c in coeffs:
                    acc[t, col] = acc.get((t, col), 0) + sign * c
        new = {}
        for (t, col), c in acc.items():
            _, p, b = factors[t]
            a, c = columns[col][3], c % p ** b
            r = (c * p ** (a - b) if a >= b else c // p ** (b - a)) % p ** top[p]
            if r:
                new.setdefault(t, {})[col] = r
        for t, row in new.items():
            rows[factors[t][1]].append(row)
    order, solutions = 1, []
    for p, k in top.items():
        cols = [c for c, col in enumerate(columns) if col[2] == p]
        o, gens = howell_kernel(howell(rows[p], p, k), cols, p, k)
        order *= o
        for x in gens:
            values = [[0] * len(basis[q][0]) for q in bases]
            for c, v in x.items():
                i, j, _, a = columns[c]
                values[i][j] = v // p ** (k - a)
            solutions.append(tuple(basis[q][2][tuple(v)]
                                   for q, v in zip(bases, values)))
    return order, solutions, nonlinear, rows


def entrywise_wrap(d, sym, k, qs):
    """The map c -> value at position k of sym with the other arguments
    over qs, as a list built entry by entry: f-delta for k = 1, the action
    a(sym,k) otherwise."""
    if k == 1:
        return [d.fdelta_apply(sym, c, qs[1:]) for c in range(d.dc.size)]
    return [d.action_apply(sym, k, qs[:k - 1] + qs[k:], c) for c in range(d.dc.size)]


def image_list_constraints(d, equations, domains):
    """(C2) instances with a cell, as sides (base, [(i, img)]) of t^{d,T}
    at a Q assignment, one entry per member of E_t: i indexes its cell in
    cells() and img carries each value of the cell's domain through the
    path's f-delta/action chain; the side is their sum at base.  Q values
    come from one term table per subterm, and one img per chain and domain.
    """
    cons, images = [], {}
    index = {cell: i for i, cell in enumerate(d.cells())}
    for lhs, rhs in equations:
        varnames = term_vars(lhs, rhs)
        paths = [e_paths(t) for t in (lhs, rhs)]
        tables = {s: term_table(d.q_alg, s, varnames)
                  for t, ps in zip((lhs, rhs), paths)
                  for s in [t] + [s for _, node in ps for s in node[1:]]}
        for n in range(d.qsize() ** len(varnames)):
            sides = []
            for t, ps in zip((lhs, rhs), paths):
                side = []
                for frames, node in ps:
                    cell = (node[0], tuple(tables[s][n] for s in node[1:]))
                    key = id(domains[cell]), tuple(
                        (p[0], k, tuple(tables[s][n] for s in p[1:]))
                        for p, k in reversed(frames))
                    if key not in images:
                        steps = [entrywise_wrap(d, *step) for step in key[1]]
                        images[key] = img = [None] * d.dc.size
                        for v in domains[cell]:
                            img[v] = reduce(lambda w, step: step[w], steps, v)
                    side.append((index[cell], images[key]))
                sides.append((tables[t][n], side))
            if sides[0][1] or sides[1][1]:
                cons.append(tuple(sides))
    return cons


def first_index_namer(d):
    """_default_namer as it once was: names a reconstruction by its catalog
    group when it has the group signature and one matches; otherwise
    "iso-class-i" for the least i whose earlier reconstruction is
    isomorphic to it (its own index when none is).  Every earlier algebra
    with the same invariant (the sorted profile colors, memoized per
    algebra) goes to find_isomorphism: on any other it returns None."""

    def namer(alg, previous):
        if alg.signature == GROUP_SIGNATURE:
            t = iso_type(alg)
            if t is not None:
                return t
        key = _invariant(alg)
        for i, ext in enumerate(previous[:-1]):
            if _invariant(ext.alg) == key and \
                    find_isomorphism(alg, ext.alg) is not None:
                return "iso-class-%d" % i
        return "iso-class-%d" % (len(previous) - 1)

    return namer

def image_list_z2(d, equations):
    """(serialized Z2, nonlinear constraints, Howell rows per prime) by the
    image-list compile and kernel that cocycle_group once ran, with its
    gate, its member filter and its subgroup checks."""
    if not check_action_compatible(d, equations, mode="weak")["holds"]:
        return [], [], {}
    bases = d.cell_fibers()
    domains = {cell: d.fiber(q) for cell, q in zip(d.cells(), bases)}
    constraints = image_list_constraints(d, equations, domains)
    order, gens, nonlinear, rows = image_list_kernel(d, bases, constraints)
    solutions = _solutions(d, bases, (order, gens), 1 << 24, "cocycle_group")
    nonlinear = [constraints[n] for n in nonlinear]
    for lhs, rhs in nonlinear:
        solutions = [v for v in solutions
                     if _side_value(d, lhs, v) == _side_value(d, rhs, v)]
    solutions.sort()
    if solutions and (nonlinear or bases != d.cell_bases()):
        zero, add = _two_cochains(d)
        if zero not in set(solutions):
            raise DatumError("trivial cocycle is not compatible; gate failed")
        _check_subgroup(solutions, zero, add, "Z2")
    return solutions, nonlinear, rows


def image_list_delta_kernel(d):
    """_delta_kernel as it once was, per cell a constraint whose side lists
    coboundary_of's terms as images, solved by image_list_kernel."""
    negs, cons = {}, []
    for (sym, qs), base in zip(d.cells(), d.cell_bases()):
        if base not in negs:
            z, negs[base] = d.delta_l(base), [None] * d.dc.size
            for x in d.fiber(base):
                negs[base][x] = d.dc.m_class(z, x, z)
        terms = [(base, negs[base])]
        if qs:
            terms = [(qs[0], entrywise_wrap(d, sym, 1, qs))] + terms + [
                (qs[k - 1], entrywise_wrap(d, sym, k, qs)) for k in range(2, len(qs) + 1)]
        cons.append(((base, terms), (base, [])))
    return image_list_kernel(d, range(d.qsize()), cons)


def _rank_mod_p(rows, p):
    """The rank over GF(p) of rows given as dicts column -> entry."""
    pivots = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = {k: v * pow(row[c], -1, p) % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivots[c].items():
                if (w := (row.get(k, 0) - f * v) % p):
                    row[k] = w
                else:
                    del row[k]
    return len(pivots)


def bar_complex_orders(q_alg, k_alg, phi):
    """(|Z^1|, |H^1|, |H^2|) of the group q_alg acting by phi (per element
    of Q, the permutation of K's elements it induces) on an elementary
    abelian K = F_p^r, k_alg, from GF(p) ranks of the unnormalized bar
    complex (Brown, Cohomology of Groups, Ch. III.1): C^n is the maps
    Q^n -> K, and

        (delta f)(x_1..x_{n+1}) = x_1 f(x_2..x_{n+1})
            + sum_{i=1..n} (-1)^i f(.., x_i x_{i+1}, ..) + (-1)^(n+1) f(x_1..x_n),

    so |Z^n| = p^(r|Q|^n - rank delta^n) and |B^n| = p^(rank delta^(n-1)).
    Only the two groups' tables are read; K's coordinates come from a basis
    grown one element at a time and are checked to add as K does."""
    nq, mulq = q_alg.size, q_alg.tables["mul"]
    nk, mulk = k_alg.size, k_alg.tables["mul"]
    p = next(m for m in range(2, nk + 1) if nk % m == 0)
    coords, basis = {k_alg.tables["e"][0]: ()}, []
    for x in range(nk):
        if x not in coords:
            grown = {}
            for y, c in coords.items():
                for j in range(p):
                    grown[y] = c + (j,)
                    y = mulk[y * nk + x]
            coords = grown
            basis.append(x)
    if any(coords[mulk[a * nk + b]] != tuple((u + v) % p for u, v in
                                             zip(coords[a], coords[b]))
           for a in range(nk) for b in range(nk)):
        raise ValueError("%s is not elementary abelian" % k_alg.name)
    r = len(basis)
    act = [[coords[phi[q][b]] for b in basis] for q in range(nq)]  # column per basis

    def delta(n):
        rows = []
        for x in product(range(nq), repeat=n + 1):
            for c in range(r):
                row = {}
                for b in range(r):
                    at = tuple_encode(x[1:], nq) * r + b
                    row[at] = row.get(at, 0) + act[x[0]][b][c]
                for i in range(1, n + 1):
                    y = x[:i - 1] + (mulq[x[i - 1] * nq + x[i]],) + x[i + 1:]
                    at = tuple_encode(y, nq) * r + c
                    row[at] = row.get(at, 0) + (-1) ** i
                at = tuple_encode(x[:n], nq) * r + c
                row[at] = row.get(at, 0) + (-1) ** (n + 1)
                rows.append(row)
        return _rank_mod_p(rows, p)

    ranks = [delta(n) for n in range(3)]
    return (p ** (r * nq - ranks[1]), p ** (r * nq - ranks[1] - ranks[0]),
            p ** (r * nq * nq - ranks[2] - ranks[1]))


def table_b2(d, maps=None):
    """Sorted B2 as the images of delta on every fiber-respecting map (or
    on maps), checked to be a subgroup."""
    images = {coboundary_of(d, h)
              for h in (fiber_respecting_maps(d) if maps is None else maps)}
    serialized = sorted(images)
    zero, add = _two_cochains(d)
    _check_subgroup(serialized, zero, add, "B2")
    return serialized


def table_z1(d):
    """Sorted Z1 as the fiber-respecting maps delta sends to zero, checked
    to be a subgroup."""
    zero = d.trivial_cocycle()
    out = sorted(h for h in fiber_respecting_maps(d)
                 if coboundary_of(d, h) == zero)
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
    T = tables_of(d, T)
    if verify:
        for sym, ar in d.signature.symbols:
            for qs in product(range(nq), repeat=ar):
                if d.dc.rho_class[T[sym][qs]] != d.cell_fiber(sym, qs):
                    raise DatumError("cocycle violates (C1) at %s%r" % (sym, qs))
    tables = {}
    for sym, ar in d.signature.symbols:
        if ar == 0:
            tables[sym] = (T[sym][()],)
            continue
        flat = []
        for cs in product(range(U), repeat=ar):
            qs = tuple(d.dc.rho_class[c] for c in cs)
            base = d.q_alg.apply(sym, qs)
            val = d.fdelta_apply(sym, cs[0], qs[1:])
            for i in range(2, ar + 1):
                val = d.plus_at(base, val,
                                d.action_apply(sym, i, qs[:i - 1] + qs[i:], cs[i - 1]))
            val = d.plus_at(base, val, T[sym][qs])
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


def entrywise_datum_tables(ext, d):
    """(f-delta, actions) of the datum d extracted from ext, as extract_datum
    once built them: per entry, the set of classes over every
    representative pair of the class and, for f-delta, every member of the
    Q blocks of the other arguments (actions take the lifting there), one
    alg.apply per argument tuple; each set must be a singleton.  The dict
    tables are returned flattened in key order, the datum's layout."""
    alg, pi, dc, nq = ext.alg, ext.pi, d.dc, d.qsize()
    block_by_q = {}
    for x in range(alg.size):
        block_by_q.setdefault(pi[x], []).append(x)
    fdelta, actions = {}, {}
    for sym, ar in d.signature.symbols:
        if ar == 0:
            c = alg.tables[sym][0]
            fdelta[sym] = (dc.class_of_pair(c, c),)
            continue
        tab = {}
        for c1 in range(dc.size):
            for qrest in product(range(nq), repeat=ar - 1):
                vals = set()
                for a, b in (dc.pairs[p] for p in dc.classes[c1]):
                    for xs in product(*(block_by_q[q] for q in qrest)):
                        vals.add(dc.class_of_pair(alg.apply(sym, (a,) + xs),
                                                  alg.apply(sym, (b,) + xs)))
                if len(vals) != 1:
                    raise DatumError("f-delta for %r depends on representatives" % sym)
                tab[(c1,) + qrest] = vals.pop()
        fdelta[sym] = tuple(tab[k] for k in sorted(tab))
        if ar < 2:
            continue
        for i in range(1, ar + 1):
            atab = {}
            for qrest in product(range(nq), repeat=ar - 1):
                largs = [ext.lifting[q] for q in qrest]
                for c in range(dc.size):
                    vals = {dc.class_of_pair(alg.apply(sym, largs[:i - 1] + [a] + largs[i - 1:]),
                                             alg.apply(sym, largs[:i - 1] + [b] + largs[i - 1:]))
                            for a, b in (dc.pairs[p] for p in dc.classes[c])}
                    if len(vals) != 1:
                        raise DatumError("action (%s,%d) depends on representatives"
                                         % (sym, i))
                    atab[qrest + (c,)] = vals.pop()
            actions[sym, i] = tuple(atab[k] for k in sorted(atab))
    return fdelta, actions


def triplewise_m_table(dc):
    """DeltaClasses.m_table() one triple at a time: the class of
    (m(a1, a2, a3), m(b1, b2, b3)) for the representatives (ai, bi), or
    None where that is no alpha-pair."""
    out = []
    for x, y, z in product(dc.class_reps, repeat=3):
        key = (dc.m_elem(x[0], y[0], z[0]), dc.m_elem(x[1], y[1], z[1]))
        out.append(dc.class_of[dc.pair_index[key]] if key in dc.pair_index else None)
    return out


def entrywise_coboundary(d, h):
    """coboundary_of as it once was: per cell, -h(f(x)) and then the f-delta
    and action terms added one at a time through plus_at."""
    out = []
    for (sym, qs), base in zip(d.cells(), d.cell_bases()):
        val = d.neg_at(base, h[base])
        if qs:
            val = d.plus_at(base, d.fdelta_apply(sym, h[qs[0]], qs[1:]), val)
            for i in range(2, len(qs) + 1):
                val = d.plus_at(base, val, d.action_apply(sym, i, qs[:i - 1] + qs[i:],
                                                          h[qs[i - 1]]))
        out.append(val)
    return tuple(out)


def plus_u(d, x, u, y):
    """m(x, delta(u), y) for an explicit base element u of A; the three
    classes must lie in one hat-alpha block."""
    du = d.dc.delta_of[u]
    if not (d.dc.rho_class[x] == d.dc.rho_class[du] == d.dc.rho_class[y]):
        raise DatumError("plus_u arguments lie in different fibers")
    return d.dc.m_class(x, du, y)


def entrywise_validate_datum(d, cap=DEFAULT_CAP):
    """validate_datum one entry at a time: each axiom checked per class,
    pair or triple through fdelta_apply, action_apply, plus_at and
    m_class, and ker rho, the canonical map and the Delta rule by scans
    over every pair of pairs.  A nullary f-delta must lie over f^Q."""
    report = []

    def add(claim, holds, witness=None):
        report.append({"claim": claim, "holds": bool(holds),
                       "witness": None if holds else witness})

    def guarded(claim, fn):
        """Record a crash inside a check as a failure, never raise."""
        try:
            holds, witness = fn()
        except Exception as exc:  # broken tables surface as failed claims
            holds, witness = False, "check raised: %s" % exc
        add(claim, holds, witness)

    n = d.asize
    nq = d.qsize()
    m = d.dc.m_elem

    # m-algebra and alpha
    m_alg = FiniteAlgebra(n, _M_SIGNATURE, {"m": d.m_flat}, name="<A,m>")
    w = congruence_violation(m_alg, d.alpha)
    add("alpha is a congruence of <A,m>", w is None, w)
    if w is None:
        add("alpha is abelian in <A,m>", is_abelian(m_alg, d.alpha, cap=cap))
    blocks = d.alpha.blocks()
    try:
        ok, w = verify_ternary_abelian_group_on_blocks(m, blocks), None
    except AlgebraError as exc:
        ok, w = False, str(exc)
    add("(AD1) m is a ternary abelian group operation on alpha-blocks", ok, w)

    # D3: rho and the idempotent interpretation of m in Q
    mq = lambda a, b, c: d.mq_flat[(a * nq + b) * nq + c]
    add("(D3) m idempotent in Q", all(mq(q, q, q) == q for q in range(nq)))
    surj = set(d.dc.rho_class) == set(range(nq))
    add("(D3) rho surjective", surj)

    def check_d3_hom():
        for trip in product(range(d.dc.size), repeat=3):
            if d.dc.rho_class[d.dc.m_class(*trip)] != mq(
                    *(d.dc.rho_class[c] for c in trip)):
                return False, trip
        return True, None
    guarded("(D3) rho is a homomorphism A(alpha) -> <Q,m>", check_d3_hom)
    over = [(a, d.dc.rho_class[c]) for (a, _), c in zip(d.dc.pairs, d.dc.class_of)]
    add("(D3) ker rho = hat-alpha", all((q == r) == d.alpha.related(a, c)
                                        for a, q in over for c, r in over))

    add("lifting is a section (rho . delta . l = id)",
        all(d.dc.rho_class[d.delta_l(q)] == q for q in range(nq)))
    add("rho . delta is the canonical map A -> A/alpha",
        all((d.pi_of(a) == d.pi_of(b)) == d.alpha.related(a, b)
            for a in range(n) for b in range(n)))

    # D1: homomorphic structure
    def check_d1():
        for sym, ar in d.signature.symbols:
            if ar == 0:
                continue
            for q1 in range(nq):
                fib = d.fiber(q1)
                u = next(x for x in range(n) if d.pi_of(x) == q1)
                for qrest in product(range(nq), repeat=ar - 1):
                    v = d.q_alg.apply(sym, (q1,) + qrest)
                    for a in fib:
                        for b in fib:
                            lhs = d.fdelta_apply(sym, plus_u(d, a, u, b), qrest)
                            rhs = d.plus_at(v, d.fdelta_apply(sym, a, qrest),
                                            d.fdelta_apply(sym, b, qrest))
                            if lhs != rhs:
                                return False, (sym, a, b, qrest)
        return True, None
    guarded("(D1) structure is homomorphic", check_d1)

    # D4 part 1: homomorphic action
    def check_d4_hom():
        for sym, i in sorted(d.actions):
            for qrest in product(range(nq), repeat=d.signature.arity(sym) - 1):
                for qat in range(nq):
                    v = d.q_alg.apply(sym, qrest[:i - 1] + (qat,) + qrest[i - 1:])
                    for a, b in product(d.fiber(qat), repeat=2):
                        lhs = d.action_apply(sym, i, qrest, d.plus_at(qat, a, b))
                        if lhs != d.plus_at(v, d.action_apply(sym, i, qrest, a),
                                            d.action_apply(sym, i, qrest, b)):
                            return False, (sym, (i,), qrest, (a,), (b,))
        return True, None
    guarded("(D4) action is homomorphic", check_d4_hom)

    # D4 part 2: f-delta and action values share hat-alpha/Delta blocks
    def check_d4_fibers():
        for sym, ar in d.signature.symbols:
            got = d.fdelta[sym][0] if ar == 0 else None
            if ar == 0 and (got is None or d.dc.rho_class[got] != d.q_alg.apply(sym, ())):
                return False, (sym, (), "fdelta")
            if ar < 2:
                continue
            for qs in product(range(nq), repeat=ar):
                expected = d.q_alg.apply(sym, qs)
                for c1 in d.fiber(qs[0]):
                    got = d.dc.rho_class[d.fdelta_apply(sym, c1, qs[1:])]
                    if got != expected:
                        return False, (sym, qs, "fdelta")
            for i in sorted(i for s, i in d.actions if s == sym):
                for qrest, c in product(product(range(nq), repeat=ar - 1),
                                        range(d.dc.size)):
                    val = d.actions[sym, i][sum(map(mul, d.layouts[sym, i][1],
                                                    (*qrest[:i - 1], c, *qrest[i - 1:])))]
                    full_q = qrest[:i - 1] + (d.dc.rho_class[c],) + qrest[i - 1:]
                    if val is not None and \
                            d.dc.rho_class[val] != d.q_alg.apply(sym, full_q):
                        return False, (sym, (i,), qrest, (c,))
        return True, None
    guarded("(D4) f-delta and action values lie over f^Q", check_d4_fibers)

    # AD2: unary action with a(f,1) equal to f-delta
    def check_ad2():
        for sym, ar in d.signature.symbols:
            if ar < 2:
                continue
            positions = sorted((i,) for s, i in d.actions if s == sym)
            if positions != [(i,) for i in range(1, ar + 1)]:
                return False, (sym, positions)
            for qrest in product(range(nq), repeat=ar - 1):
                for c in range(d.dc.size):
                    if d.fdelta_apply(sym, c, qrest) != d.action_apply(sym, 1, qrest, c):
                        return False, (sym, qrest, c)
        return True, None
    guarded("(AD2) action is unary and a(f,1) agrees with f-delta", check_ad2)

    # Delta agrees with the m-rule (reconstructibility of the universe)
    bad = [((a, b), (c, e)) for (a, b), i in zip(d.dc.pairs, d.dc.class_of)
           for (c, e), j in zip(d.dc.pairs, d.dc.class_of)
           if (d.alpha.related(a, c) and e == m(b, a, c)) != (i == j)]
    add("Delta matches the rule d = m(b,a,c)", not bad, bad and bad[-1])

    return report


def backtracking_isomorphism(a, b):
    """find_isomorphism as it once was: backtracking over profile-compatible
    candidates element by element, with is_homomorphism tested at each
    leaf, as the partial check never compares an entry whose value gets
    its image after its arguments."""
    if a.signature != b.signature or a.size != b.size or _invariant(a) != _invariant(b):
        return None
    n = a.size
    ca, cb = _profiles(a), _profiles(b)
    cand = [[y for y in range(n) if cb[y] == ca[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: (len(cand[x]), x))
    img = [-1] * n
    used = [False] * n
    binops = [(a.tables[s], b.tables[s]) for s, ar in a.signature.symbols if ar == 2]
    unops = [(a.tables[s], b.tables[s]) for s, ar in a.signature.symbols if ar == 1]
    others = [(s, ar) for s, ar in a.signature.symbols if ar > 2]
    for s, ar in a.signature.symbols:
        if ar == 0 and cb[b.tables[s][0]] != ca[a.tables[s][0]]:
            return None

    def consistent(x):
        assigned = [z for z in range(n) if img[z] >= 0]
        for ta, tb in unops:
            if img[ta[x]] >= 0 and img[ta[x]] != tb[img[x]]:
                return False
        for ta, tb in binops:
            for z in assigned:
                v = ta[x * n + z]
                if img[v] >= 0 and img[v] != tb[img[x] * n + img[z]]:
                    return False
                v = ta[z * n + x]
                if img[v] >= 0 and img[v] != tb[img[z] * n + img[x]]:
                    return False
        for s, ar in others:
            for args in product(assigned + [x], repeat=ar):
                if x not in args:
                    continue
                v = a.apply(s, args)
                if img[v] >= 0 and img[v] != b.apply(s, tuple(img[z] for z in args)):
                    return False
        return True

    def solve(pos):
        if pos == n:
            return is_homomorphism(img, a, b)
        x = order[pos]
        for y in cand[x]:
            if used[y]:
                continue
            img[x] = y
            used[y] = True
            if consistent(x) and solve(pos + 1):
                return True
            img[x] = -1
            used[y] = False
        return False

    return list(img) if solve(0) else None


def product_retraction(ext):
    """is_semidirect as it once was: the first choice of one representative
    per kernel block, in product order, whose retraction is a
    homomorphism, or None."""
    alg, blocks = ext.alg, ext.beta.blocks()
    for reps in product(*blocks):
        r = [0] * alg.size
        for block, rep in zip(blocks, reps):
            for x in block:
                r[x] = rep
        if is_homomorphism(r, alg, alg):
            return r
    return None
