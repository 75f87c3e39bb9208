"""Cohomology of affine datum: Z^2, B^2, H^2, Z^1, PDer, H^1, equivalence,
stabilizing automorphisms, trivial actions and variety comparisons."""

from heapq import heapify, heappop, heappush
from itertools import product
from math import prod

from .algebras import (DEFAULT_CAP, AlgebraError, CapExceeded, FiniteAlgebra,
                       Signature, closure, find_isomorphism, is_homomorphism)
from .cocycles import (TwoCocycle, check_cocycle, coboundary_of, e_paths,
                       fiber_respecting_maps, reconstruct)
from .datum import ClassMaps, DatumError, check_action_compatible
from .terms import term_vars


def invariant_factors(orders):
    """d1 | d2 | ... with product the group order, for a finite abelian
    group given by the orders of its elements (one entry per element).

    For each prime p the p-part partition is recovered from the counts
    of elements annihilated by successive powers of p.
    """
    n = len(orders)
    if n <= 1:
        return []
    primes = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    partitions = {}
    for p in primes:
        t = []
        k = 0
        while True:
            pk = p ** k
            s = sum(1 for o in orders if pk % o == 0)
            tk = 0
            v = 1
            while v < s:
                v *= p
                tk += 1
            if v != s:
                raise AlgebraError("annihilator count %d not a power of %d" % (s, p))
            t.append(tk)
            if k > 0 and t[k] == t[k - 1]:
                break
            k += 1
        u = [t[i] - t[i - 1] for i in range(1, len(t))]  # u[k-1] = #parts >= k
        lam = []
        for k in range(1, len(u) + 1):
            cnt = u[k - 1] - (u[k] if k < len(u) else 0)
            lam.extend([k] * cnt)
        if lam:
            partitions[p] = sorted(lam, reverse=True)
    width = max(len(v) for v in partitions.values())
    factors = []
    for i in range(width):
        f = 1
        for p, lam in partitions.items():
            if i < len(lam):
                f *= p ** lam[i]
        factors.append(f)
    factors.sort()
    total = 1
    for f in factors:
        total *= f
    if total != n:
        raise AlgebraError("invariant factor computation failed")
    return factors


# --- cochain groups ----------------------------------------------------------
#
# A cochain is a tuple of Delta-classes whose coordinate i lies in the fiber
# over a fixed base q_i, so cochains form a product of the fiber groups
# (classes over q, +_{l(q)}).  Z2, B2, Z1 and PDer are subgroups of such a
# product; they are checked and divided without a Cayley table.

def _cochain_group(d, bases):
    """(zero, add) of the product of the fiber groups over bases.

    add looks each coordinate up in its fiber's table; a coordinate off its
    fiber sums to None, so no such sum is ever a member of a subgroup.
    """
    size, tables = d.dc.size, d.fiber_tables()
    tabs = [tables[q] for q in bases]

    def add(a, b):
        return tuple([t[x * size + y] for t, x, y in zip(tabs, a, b)])

    return tuple(d.delta_l(q) for q in bases), add


def _two_cochains(d):
    """(zero, add) of serialized 2-cochains: cell (f, qs) lies over f^Q(qs)."""
    return _cochain_group(d, [d.q_alg.apply(sym, qs) for sym, qs in d.cells()])


def _check_subgroup(members, zero, add, name):
    """Raise DatumError unless the sorted list members is a subgroup.

    The subgroup H generated so far starts at {zero} and grows by each
    member s outside it to the union of the cosets H + k*s; every element
    reached must be a member.  When the sizes match at the end, the members
    are exactly the subgroup they generate.
    """
    mset = set(members)
    if zero not in mset:
        raise DatumError("%s does not contain zero" % name)
    grown, seen = [zero], {zero}
    for s in members:
        if s in seen:
            continue
        new, ks = [], s
        while ks not in seen:
            coset = [add(h, ks) for h in grown]
            if not mset.issuperset(coset):
                raise DatumError("%s is not closed under addition" % name)
            new += coset
            ks = add(ks, s)
        grown += new
        seen.update(new)
    if len(grown) != len(members):
        raise DatumError("%s is not closed under addition" % name)


def _cosets(elements, subgroup, add):
    """{x: least member of x + subgroup} for every element, one pass.

    The first element not yet assigned starts a new coset; all of its
    members are assigned at once.
    """
    least = {}
    for s in elements:
        if s not in least:
            coset = [add(s, b) for b in subgroup]
            rep = min(coset)
            for c in coset:
                least[c] = rep
    return least


def _quotient(elements, subgroup, zero, add):
    """The quotient of the group on the list elements by a subgroup:
    (coset map, sorted representatives, invariant factors).

    Each class's order comes from repeated addition of its representative.
    """
    least = _cosets(elements, subgroup, add)
    reps = sorted(set(least.values()))
    zero_rep = least[zero]
    orders = []
    for r in reps:
        acc, k = r, 1
        while least[acc] != zero_rep:
            acc, k = add(acc, r), k + 1
        orders.append(k)
    return least, reps, invariant_factors(orders)


def _invariant_factors_of(d, serialized):
    """Invariant factors of a subgroup of the serialized 2-cochains."""
    if not serialized:
        return []
    zero, add = _two_cochains(d)
    return _quotient(serialized, [zero], zero, add)[2]


# --- Z^2 enumeration --------------------------------------------------------

def _compile_side(cm, term, qenv, domains):
    """(base, [(cell, img)]) for t^{d,T} at a fixed Q assignment.

    One entry per member of E_t; img[v] carries the value v of its cell
    through the f-delta/action chain of the path, for every v in the cell's
    domain.  The side's value is the left-associated sum of the images at
    base, as sum_at computes it.
    """
    d, out = cm.d, []
    for frames, node in e_paths(term):
        cell = (node[0], tuple(d.eval_q(s, qenv) for s in node[1:]))
        chain = [cm.wrap(parent[0], k,
                         tuple(d.eval_q(s, qenv) for s in parent[1:]))
                 for parent, k in reversed(frames)]
        img = [None] * cm.size
        for v in domains[cell]:
            w = v
            for step in chain:
                w = step[w]
            img[v] = w
        out.append((cell, img))
    return d.eval_q(term, qenv), out


def _constraints_for(cm, equations, domains):
    """(C2) instances with at least one cell: (lhs side, rhs side, cells)."""
    d, cons = cm.d, []
    for lhs, rhs in equations:
        varnames = term_vars(lhs)
        for v in term_vars(rhs):
            if v not in varnames:
                varnames.append(v)
        for vals in product(range(d.qsize()), repeat=len(varnames)):
            qenv = dict(zip(varnames, vals))
            left = _compile_side(cm, lhs, qenv, domains)
            right = _compile_side(cm, rhs, qenv, domains)
            cells = {cell for cell, _ in left[1] + right[1]}
            if cells:
                cons.append((left, right, cells))
    return cons


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


class Z2Result:
    def __init__(self, datum, equations, serialized, gate):
        self.datum = datum
        self.equations = equations
        self.serialized = serialized
        self.gate = gate

    @property
    def order(self):
        return len(self.serialized)

    def invariant_factors(self):
        """Z2's invariant factors; [] when no cocycle is compatible."""
        return _invariant_factors_of(self.datum, self.serialized)

    def cocycles(self):
        return [TwoCocycle.from_serialized(self.datum, s) for s in self.serialized]


def cocycle_group(d, equations, cap=1 << 24, brute=False):
    """All 2-cocycles compatible with the equations, as an abelian group.

    (C1) fixes each cell's fiber, so domains are fibers.  (C2) instances
    become constraints, compiled once (_compile_side) and checked as soon as
    their last cell is assigned; the cell order is chosen so constraints
    trigger early.  brute=True is the oracle mode: full product enumeration
    filtered through check_cocycle.
    """
    gate = check_action_compatible(d, equations, mode="weak")
    if not gate["holds"]:
        return Z2Result(d, equations, [], gate)
    cells = d.cells()
    domains = {cell: list(d.fiber(d.cell_fiber(*cell))) for cell in cells}
    solutions = []
    if brute:
        space = 1
        for cell in cells:
            space *= len(domains[cell])
        if space > cap:
            raise CapExceeded("cocycle_group", space, cap,
                              "{stage}: brute-force space {size} exceeds cap {cap}")
        for values in product(*(domains[c] for c in cells)):
            T = TwoCocycle.from_serialized(d, values)
            if check_cocycle(d, T, equations)["holds"]:
                solutions.append(values)
    else:
        cm = ClassMaps(d)
        constraints = _constraints_for(cm, equations, domains)
        order, pos = _cell_order(constraints, cells)
        size, memo, plus_at = cm.size, cm.memo, d.plus_at

        def at_depths(side):
            base, terms = side
            return (base, base * size * size, d.delta_l(base),
                    [(pos[cell], img) for cell, img in terms])

        triggers = [[] for _ in order]
        for lhs, rhs, con_cells in constraints:
            triggers[max(pos[cell] for cell in con_cells)].append(
                (at_depths(lhs), at_depths(rhs)))
        order_domains = [domains[cell] for cell in order]
        serial = [pos[cell] for cell in cells]
        vals = [None] * len(order)
        visited = [0]

        def value(side):
            base, off, acc, terms = side
            for p, img in terms:
                y = img[vals[p]]
                i = off + acc * size + y
                s = memo[i]
                if s is None:
                    s = memo[i] = plus_at(base, acc, y)
                acc = s
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
    return Z2Result(d, equations, solutions, gate)


class B2Result:
    def __init__(self, datum, serialized, witnesses):
        self.datum = datum
        self.serialized = serialized
        self.witnesses = witnesses

    @property
    def order(self):
        return len(self.serialized)

    def invariant_factors(self):
        return _invariant_factors_of(self.datum, self.serialized)


def _coboundary_table(d):
    """The coboundary map delta: C^1 -> C^2 of the datum, enumerated once:
    {serialized delta(h): [h, ...]} over every fiber-respecting h, the
    witnesses of each image in fiber_respecting_maps order.

    Kept on the datum, which nothing changes after construction; B^2, Z^1
    and cocycle equivalence all read this one table.
    """
    if d._coboundaries is None:
        table = {}
        for h in fiber_respecting_maps(d):
            table.setdefault(coboundary_of(d, h).serialize(d), []).append(h)
        d._coboundaries = table
    return d._coboundaries


def coboundary_group(d):
    """B^2 = delta(C^1): the images of the datum's coboundary table, checked
    to be a subgroup; witnesses maps each image g to the maps h with
    delta(h) = g, in fiber_respecting_maps order."""
    table = _coboundary_table(d)
    serialized = sorted(table)
    zero, add = _two_cochains(d)
    _check_subgroup(serialized, zero, add, "B2")
    return B2Result(d, serialized, table)


class CohomologyResult:
    def __init__(self, datum, z2, b2, invariant_factors, classes):
        self.datum = datum
        self.z2 = z2
        self.b2 = b2
        self.invariant_factors = invariant_factors
        self.classes = classes

    @property
    def order(self):
        return len(self.classes)

    def class_types(self):
        return sorted(c["extension_iso_type"] for c in self.classes)

    def to_json(self):
        return {
            "invariant_factors": list(self.invariant_factors),
            "classes": [{"representative": list(c["representative"]),
                         "extension_iso_type": c["extension_iso_type"]}
                        for c in self.classes],
            "Z2_order": self.z2.order,
            "B2_order": self.b2.order,
        }


def h2(d, equations, cap=1 << 24, brute=False, namer=None, seed=0):
    """H^2 = Z^2/B^2 with a representative cocycle and the reconstructed
    extension's isomorphism type per class."""
    z2 = cocycle_group(d, equations, cap=cap, brute=brute)
    b2 = coboundary_group(d)
    if not z2.serialized:
        return CohomologyResult(d, z2, b2, [], [])
    if not set(z2.serialized).issuperset(b2.serialized):
        raise DatumError("a coboundary is not a compatible cocycle")
    zero, add = _two_cochains(d)
    least, reps, factors = _quotient(z2.serialized, b2.serialized, zero, add)
    zero_key = least[zero]
    if namer is None:
        namer = _default_namer(d, seed=seed)
    classes = []
    reconstructions = []
    for rep in reps:
        ext = reconstruct(d, TwoCocycle.from_serialized(d, rep))
        reconstructions.append(ext)
        classes.append({"representative": rep,
                        "extension_iso_type": namer(ext.alg, reconstructions),
                        "extension": ext,
                        "is_zero": rep == zero_key})
    return CohomologyResult(d, z2, b2, factors, classes)


def _default_namer(d, seed=0):
    """Names a reconstruction by its catalog group when it has the group
    signature and one matches; otherwise "iso-class-i" for the least i
    whose earlier reconstruction is isomorphic to it (its own index when
    none is).  Only earlier algebras with the same invariant (the sorted
    profile colors, memoized per algebra) go to find_isomorphism: on any
    other it returns None."""
    from .algebras import GROUP_SIGNATURE, _invariant

    def namer(alg, previous):
        if alg.signature == GROUP_SIGNATURE:
            from .groups import iso_type
            t = iso_type(alg, seed=seed)
            if t is not None:
                return t
        key = _invariant(alg)
        for i, ext in enumerate(previous[:-1]):
            if _invariant(ext.alg) == key and \
                    find_isomorphism(alg, ext.alg, seed=seed) is not None:
                return "iso-class-%d" % i
        return "iso-class-%d" % (len(previous) - 1)

    return namer


def are_equivalent(d, T, Tp):
    """T and T' give equivalent extensions: T' - T lies in B^2 = delta(C^1),
    one lookup in the datum's coboundary table."""
    from .cocycles import cocycle_difference_coboundary
    return cocycle_difference_coboundary(d, T, Tp) is not None


def stabilizing_isomorphism(ext_a, ext_b):
    """An isomorphism gamma with pi'.gamma = pi and gamma = m(gamma.r, r, id)
    for all kernel traces, between two extensions on the same class universe.

    The kernel blocks of ext_a are its pi-fibers.  Taking r = b0, the least
    element of a fiber, gamma(x) = m(y, b0, x) on the fiber is fixed by the
    one image y = gamma(b0) in the matching fiber of ext_b.  Each fiber
    keeps the y whose map sends b0 to y, is a bijection onto that fiber and
    meets the m-condition, so there are Pi |fiber| candidates instead of
    Pi |fiber|! bijections; the cap counts them before anything is built.

    The search plan (the fibers, their image pools, and the depth at which
    each table entry of ext_a is checked) reads only ext_a and ext_b.pi, so
    it is built once per (ext_a, ext_b.pi) and kept in ext_a.  The search
    assigns the fibers depth-first in key order, y ascending, and checks
    each entry as soon as the last fiber it reads or writes is assigned.
    Candidates are met in lexicographic order, and the gamma returned is
    the least.
    """
    if ext_a.m_flat is None:
        raise DatumError("extension carries no ternary operation")
    a, b = ext_a.alg, ext_b.alg
    if a.size != b.size or ext_a.q_alg is not ext_b.q_alg and \
            ext_a.q_alg.size != ext_b.q_alg.size:
        return None
    plans = ext_a._gamma_plans
    if ext_b.pi not in plans:
        plans[ext_b.pi] = _gamma_plan(ext_a, ext_b.pi)
    plan = plans[ext_b.pi]
    if plan is None or a.signature != b.signature:
        return None
    fibers, pools, checks = plan
    n, tables = b.size, b.tables
    gamma = [0] * n
    stack = [iter(pools[0])]
    while stack:
        i = len(stack) - 1
        for images in stack[i]:
            for x, y in zip(fibers[i], images):
                gamma[x] = y
            if _entries_hold(checks[i], gamma, tables, n):
                break
        else:
            stack.pop()
            continue
        if i + 1 == len(fibers):
            return gamma
        stack.append(iter(pools[i + 1]))
    return None


def _gamma_plan(ext_a, target_pi):
    """stabilizing_isomorphism's (fibers, pools, checks), or None when a
    fiber of ext_a and its target fiber differ in size.  checks[i] holds,
    per symbol, the entries (value, args) of ext_a's table whose deepest
    fiber is fibers[i]."""
    a = ext_a.alg
    n = a.size
    fibers_a, fibers_b = {}, {}
    for x in range(n):
        fibers_a.setdefault(ext_a.pi[x], []).append(x)
        fibers_b.setdefault(target_pi[x], []).append(x)
    keys = sorted(fibers_a)
    if any(len(fibers_a[q]) != len(fibers_b[q]) for q in keys):
        return None
    space = prod(len(fibers_a[q]) for q in keys)
    if space > DEFAULT_CAP:
        raise CapExceeded("stabilizing_isomorphism", space, DEFAULT_CAP,
                          "{stage}: {size} candidate maps exceed cap {cap}")
    m = ext_a.m_elem
    fibers = [fibers_a[q] for q in keys]
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
    depth = [0] * n
    for i, block in enumerate(fibers):
        for x in block:
            depth[x] = i
    checks = [[] for _ in fibers]
    for sym, ar in a.signature.symbols:
        by_depth = [[] for _ in fibers]
        for args, v in zip(product(range(n), repeat=ar), a.tables[sym]):
            by_depth[max(map(depth.__getitem__, args + (v,)))].append((v, args))
        for i, entries in enumerate(by_depth):
            if entries:
                checks[i].append((sym, entries))
    return fibers, pools, checks


def _entries_hold(checks, gamma, tables, n):
    """gamma(v) = f(gamma(args)) in the target tables for every entry."""
    for sym, entries in checks:
        tab = tables[sym]
        for v, args in entries:
            k = 0
            for x in args:
                k = k * n + gamma[x]
            if tab[k] != gamma[v]:
                return False
    return True


# --- stabilizing automorphisms and derivations -------------------------------

def stabilizers(ext):
    """Automorphisms gamma with pi.gamma = pi and, for every kernel-related
    pair (a,x), gamma(x) = m(gamma(a), a, x).

    Taking a = b0, the least element of its block, gamma(x) = m(y, b0, x)
    on the block is fixed by the one image y = gamma(b0), so the search
    runs over one image per block.
    """
    alg, beta = ext.alg, ext.beta
    if ext.m_flat is None:
        raise DatumError("extension carries no ternary operation")
    n = alg.size
    blocks = beta.blocks()
    space = prod(len(block) for block in blocks)
    if space > DEFAULT_CAP:
        raise CapExceeded("stabilizers", space, DEFAULT_CAP,
                          "{stage}: {size} candidate maps exceed cap {cap}")
    pools = []
    for block in blocks:
        members = set(block)
        images = ([ext.m_elem(y, block[0], x) for x in block] for y in block)
        pools.append([im for im in images if members.issuperset(im)])
    out = []
    for choice in product(*pools):
        gamma = [0] * n
        for block, images in zip(blocks, choice):
            for x, y in zip(block, images):
                gamma[x] = y
        if sorted(gamma) != list(range(n)):
            continue
        ok = True
        for block in blocks:
            for a in block:
                for x in block:
                    if gamma[x] != ext.m_elem(gamma[a], a, x):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok and is_homomorphism(gamma, alg, alg):
            out.append(tuple(gamma))
    out.sort()
    return out


def stab_closed_under_composition(stabs):
    sset = set(stabs)
    return all(tuple(g1[x] for x in g2) in sset for g1 in stabs for g2 in stabs)


def derivations(d):
    """Z^1 = ker delta: the sorted fiber-respecting maps h satisfying the
    1-cocycle identity, read from the datum's coboundary table and checked
    to be a subgroup under pointwise +_{l(x)}.

    Why the kernel is Z^1: the fiber over f(x) is an abelian group, so
    delta(h)_f(x) = (f-delta(h(x1)) - h(f(x))) + sum of action terms is its
    zero exactly when h(f(x)) = f-delta(h(x1)) + sum of action terms, the
    1-cocycle identity at f and x.  For a nullary f with value c,
    delta(h)_f = -h(c) is zero exactly when h(c) = delta(l(c)).  The
    argument needs the f-delta and action values in their fibers; on a
    datum where they leave them, both sides are sums outside any group.
    """
    zero = d.trivial_cocycle().serialize(d)
    out = sorted(_coboundary_table(d).get(zero, ()))
    if out:
        zero, add = _cochain_group(d, range(d.qsize()))
        _check_subgroup(out, zero, add, "Z1")
    return out


def derivation_of_stabilizer(ext, d, gamma):
    """d_gamma(x) = [l(x) // gamma(l(x))]/Delta for the datum extracted from ext."""
    return tuple(d.dc.class_of_pair(ext.lifting[q], gamma[ext.lifting[q]])
                 for q in range(d.qsize()))


def stabilizer_derivation_isomorphism(ext, d):
    """gamma -> d_gamma is a bijection Stab -> Z^1 turning composition into
    addition; returns a report dict."""
    stabs = stabilizers(ext)
    ders = derivations(d)
    dmap = {g: derivation_of_stabilizer(ext, d, g) for g in stabs}
    report = {"claim": "Stab ~= Z1 via d_gamma", "holds": True, "witness": None}
    if sorted(dmap.values()) != sorted(ders) or len(set(dmap.values())) != len(stabs):
        report["holds"] = False
        report["witness"] = {"stab": len(stabs), "z1": len(ders)}
        return report
    for g1 in stabs:
        for g2 in stabs:
            comp = tuple(g1[x] for x in g2)
            rhs = tuple(d.plus_at(q, dmap[g1][q], dmap[g2][q])
                        for q in range(d.qsize()))
            if dmap[comp] != rhs:
                report["holds"] = False
                report["witness"] = {"composition": (g1, g2)}
                return report
    if not stab_closed_under_composition(stabs):
        report["holds"] = False
        report["witness"] = "Stab not closed under composition"
    return report


# --- principal derivations and H^1 -------------------------------------------

def _polynomial_algebra(alg):
    """The unary polynomial maps of alg (the closure of the identity and the
    constants in alg**n) as an algebra under pointwise operations, with the
    list of maps its elements stand for."""
    n = alg.size
    maps, _ = closure(alg, n, [tuple(range(n))] + [(c,) * n for c in range(n)])
    for sym, ar in alg.signature.symbols:
        if len(maps) ** ar > DEFAULT_CAP:
            raise CapExceeded("polynomial_algebra", len(maps), DEFAULT_CAP,
                              "table of {sym!r} on {size} unary polynomials "
                              "exceeds cap {cap}", sym=sym)
    return FiniteAlgebra.subpower(alg, maps), maps


def twin_pairs_of_identity(alg, theta, depth_cap=4):
    """Pairs (g, h) of unary polynomial maps coming from one term with
    theta-related parameter tuples.

    The closure in the square of the unary polynomial algebra of the pairs
    (id, id) and (c, e) of constants from a common theta block, run for at
    most depth_cap rounds; exact means the last round found nothing new,
    otherwise the result is a lower bound.  When alg has an associative
    operation the rounds stop as soon as they cover the subuniverse (see
    algebras.closure); the pairs and exact are those of the full rounds,
    so exact is False when the covering round is round depth_cap.
    """
    n = alg.size
    poly, maps = _polynomial_algebra(alg)
    index = {g: i for i, g in enumerate(maps)}
    seeds = [(index[tuple(range(n))],) * 2]
    seeds += [(index[(c,) * n], index[(e,) * n])
              for block in theta.blocks() for c in block for e in block]
    pairs, exact = closure(poly, 2, seeds, max_rounds=depth_cap)
    return {(maps[g], maps[h]) for g, h in pairs}, exact


def principal_stabilizers(d, depth_cap=4):
    """PStab: twins of the identity with a fixed point, intersected with the
    stabilizers of the semidirect product."""
    a0 = reconstruct(d, d.trivial_cocycle(), name="A_0")
    pairs, exact = twin_pairs_of_identity(a0.alg, a0.beta, depth_cap=depth_cap)
    ident = tuple(range(a0.alg.size))
    twins = sorted({g for g, h in pairs
                    if h == ident and any(g[x] == x for x in range(a0.alg.size))})
    stabs = set(stabilizers(a0))
    return a0, [g for g in twins if g in stabs], exact


def principal_derivations(d, depth_cap=4):
    """PDer: the subgroup of Z^1 generated by the derivations of principal
    stabilizing automorphisms of the semidirect product."""
    a0, pstab, exact = principal_stabilizers(d, depth_cap=depth_cap)
    nq = d.qsize()
    gens = [tuple(gamma[d.delta_l(q)] for q in range(nq)) for gamma in pstab]
    zero = tuple(d.delta_l(q) for q in range(nq))
    # the fiber sums as one table on the classes: coordinate q of a
    # derivation stays in the fiber over q, so sums across fibers are unused
    fiber, size = d.dc.rho_class, d.dc.size
    add = tuple(d.plus_at(fiber[x], x, y) if fiber[x] == fiber[y] else x
                for x in range(size) for y in range(size))
    sums = FiniteAlgebra(size, Signature([("add", 2)]), {"add": add})
    sub, _ = closure(sums, nq, [zero] + gens)
    ders = derivations(d)
    dset = set(ders)
    for h in sub:
        if h not in dset:
            raise DatumError("principal derivation outside Z1")
    return sorted(sub), exact


def h1(d, depth_cap=4):
    """H^1 = Z^1/PDer as coset representatives with invariant factors."""
    ders = derivations(d)
    pder, exact = principal_derivations(d, depth_cap=depth_cap)
    zero, add = _cochain_group(d, range(d.qsize()))
    _, reps, factors = _quotient(ders, pder, zero, add)
    return {"order": len(reps), "invariant_factors": factors,
            "exact": exact, "Z1_order": len(ders), "PDer_order": len(pder)}


# --- trivial actions and central extensions ----------------------------------

def trivial_action_check(d, all_liftings_cap=256):
    """Exhaustive test of the trivial-action sum identity over all symbols,
    index sets and argument tuples; sweeps every lifting when cheap."""
    n = d.asize
    per_q = [[x for x in range(n) if d.pi_of(x) == q] for q in range(d.qsize())]
    count = 1
    for b in per_q:
        count *= len(b)
    if count <= all_liftings_cap:
        lift_choices = [tuple(c) for c in product(*per_q)]
    else:
        lift_choices = [d.lifting]
    for lifting in lift_choices:
        for sym, ar in d.signature.symbols:
            if ar < 2:
                continue
            for mask in range(1, 1 << ar):
                idx_set = [i + 1 for i in range(ar) if mask >> i & 1]
                free = [i for i in range(1, ar + 1) if i not in idx_set]
                for cs in product(range(n), repeat=ar):
                    qs = tuple(d.pi_of(c) for c in cs)
                    u = lifting[d.q_alg.apply(sym, qs)]
                    lhs = d.sum_at(d.q_alg.apply(sym, qs), [
                        d.action_apply(sym, i, qs[:i - 1] + qs[i:],
                                       d.dc.class_of_pair(lifting[qs[i - 1]],
                                                          cs[i - 1]))
                        for i in idx_set])
                    for alt in product(range(n), repeat=len(free)):
                        cs2 = list(cs)
                        for p, v in zip(free, alt):
                            cs2[p - 1] = v
                        cs2 = tuple(cs2)
                        qs2 = tuple(d.pi_of(c) for c in cs2)
                        u2 = lifting[d.q_alg.apply(sym, qs2)]
                        rhs0 = d.sum_at(d.q_alg.apply(sym, qs2), [
                            d.action_apply(sym, i, qs2[:i - 1] + qs2[i:],
                                           d.dc.class_of_pair(lifting[qs2[i - 1]],
                                                              cs2[i - 1]))
                            for i in idx_set])
                        rhs = d.dc.m_class(d.dc.delta_of[u], d.dc.delta_of[u2], rhs0)
                        if lhs != rhs:
                            return False
    return True


def central_extension_suite(d, equations, difference_term=None, cap=1 << 24):
    """Reconstruct every H^2 class and check centrality of the kernel.

    Right-centrality must hold whenever the action is trivial; with a
    verified difference term both centralities are required.
    """
    from .commutator import is_left_central, is_right_central, verify_difference_term
    trivial = trivial_action_check(d)
    result = h2(d, equations, cap=cap)
    rows = []
    holds = True
    for cls in result.classes:
        ext = cls["extension"]
        right = is_right_central(ext.alg, ext.beta)
        row = {"class": cls["extension_iso_type"], "right_central": right}
        if trivial and not right:
            holds = False
        if difference_term is not None:
            ver = verify_difference_term([ext.alg], difference_term)
            row["difference_term"] = ver["holds"]
            if ver["holds"]:
                left = is_left_central(ext.alg, ext.beta)
                row["left_central"] = left
                if trivial and not left:
                    holds = False
        rows.append(row)
    return {"claim": "trivial action forces central extensions",
            "action_trivial": trivial, "holds": holds, "classes": rows,
            "h2": result}


def compare_variety_subgroups(d, eqs1, eqs2, cap=1 << 24):
    """Z^2 for two equation sets and their union; asserts the meet law on
    H^2 classes and monotonicity.  Reports 'datum not contained' when a set
    rules the datum out."""
    gate1 = check_action_compatible(d, eqs1, mode="weak")
    gate2 = check_action_compatible(d, eqs2, mode="weak")
    if not gate1["holds"] or not gate2["holds"]:
        return {"claim": "variety meet law", "holds": False,
                "witness": {"reason": "datum not contained",
                            "gate1": gate1["holds"], "gate2": gate2["holds"]}}
    union = list(eqs1) + [e for e in eqs2 if e not in eqs1]
    z1 = cocycle_group(d, eqs1, cap=cap)
    z2 = cocycle_group(d, eqs2, cap=cap)
    zu = cocycle_group(d, union, cap=cap)
    s1, s2, su = set(z1.serialized), set(z2.serialized), set(zu.serialized)
    monotone = su <= s1 and su <= s2
    intersection_ok = su == (s1 & s2)
    b2 = coboundary_group(d)
    _, add = _two_cochains(d)
    least = _cosets(sorted(s1 | s2 | su), b2.serialized, add)
    c1, c2, cu = ({least[s] for s in of} for of in (s1, s2, su))
    meet_ok = cu == (c1 & c2)
    holds = monotone and intersection_ok and meet_ok
    return {"claim": "variety meet law", "holds": holds,
            "witness": None if holds else {"monotone": monotone,
                                           "intersection": intersection_ok,
                                           "meet": meet_ok},
            "sizes": {"Z2_1": len(s1), "Z2_2": len(s2), "Z2_union": len(su),
                      "H2_1": len(c1), "H2_2": len(c2), "H2_union": len(cu)}}
