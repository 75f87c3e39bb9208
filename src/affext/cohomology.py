"""Cohomology of affine datum: Z^2, B^2, H^2, Z^1, PDer, H^1, equivalence,
stabilizing automorphisms, trivial actions and variety comparisons."""

from bisect import bisect_left
from functools import reduce
from itertools import product
from math import prod

from .algebras import (DEFAULT_CAP, AlgebraError, CapExceeded, _block_maps,
                       _search_plan, closure, find_isomorphism, is_homomorphism)
from .cocycles import (_check_cochain, _check_fibers, _serialized_sub,
                       coboundary_of, e_paths, fiber_respecting_maps,
                       reconstruct)
from ._linear import System, factor, fiber_bases
from .datum import DatumError, check_action_compatible
from .terms import term_tables, term_vars


def invariant_factors(orders):
    """d1 | d2 | ... with product the group order, for a finite abelian
    group given by the orders of its elements (one entry per element).
    Per prime p, if p**t[k] elements are annihilated by p**k, then
    t[k] - t[k-1] parts of the p-part partition are at least k."""
    n, factors = len(orders), []
    for p in sorted(set(factor(n))):
        t = [0]
        while len(t) < 2 or t[-1] != t[-2]:
            s = sum(1 for o in orders if p ** len(t) % o == 0)
            t.append(len(factor(s)))
            if p ** t[-1] != s:
                raise AlgebraError("annihilator count %d not a power of %d" % (s, p))
        at_least = [b - a for a, b in zip(t, t[1:])]
        for i in range(max(at_least)):
            if i == len(factors):
                factors.append(1)
            factors[i] *= p ** sum(1 for u in at_least if u > i)
    factors.sort()
    if n > 1 and prod(factors) != n:
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
    """(zero, add) of 2-cochains: cell (f, qs) lies over f^Q(qs), and zero
    is the trivial cocycle."""
    return d.trivial_cocycle(), _cochain_group(d, d.cell_bases())[1]


def _span(gens, zero, add, within, error):
    """The subgroup generated by gens, as a list starting at zero.

    The subgroup H generated so far starts at {zero} and grows by each
    generator s outside it to the union of the cosets H + k*s; every
    element reached, zero included, must satisfy within, or
    DatumError(error) is raised.
    """
    if not within(zero):
        raise DatumError(error)
    grown, seen = [zero], {zero}
    for s in gens:
        if s in seen:
            continue
        new, ks = [], s
        while ks not in seen:
            coset = [add(h, ks) for h in grown]
            if not all(map(within, coset)):
                raise DatumError(error)
            new += coset
            ks = add(ks, s)
        grown += new
        seen.update(new)
    return grown


def _check_subgroup(members, zero, add, name):
    """Raise DatumError unless the sorted list members is a subgroup: its
    span stays inside it, and when the sizes match the members are exactly
    the subgroup they generate."""
    mset, error = set(members), "%s is not closed under addition" % name
    if zero not in mset:
        raise DatumError("%s does not contain zero" % name)
    if len(_span(members, zero, add, mset.__contains__, error)) != len(members):
        raise DatumError(error)


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
    """Invariant factors of a subgroup of the 2-cochains."""
    if not serialized:
        return []
    zero, add = _two_cochains(d)
    return _quotient(serialized, [zero], zero, add)[2]


def _solutions(d, bases, solved, cap, stage):
    """The subgroup of the fibers over bases that solved = (order,
    generators, ...) gives, listed once its entries, order times length,
    pass cap."""
    entries = solved[0] * len(bases)
    if entries > cap:
        raise CapExceeded(stage, entries, cap,
                          "{stage}: listing {size} entries exceeds cap {cap}")
    zero, add = _cochain_group(d, bases)
    return _span(solved[1], zero, add, lambda _: True, "")


# --- Z^2 ----------------------------------------------------------------------

def _compile(d, equations):
    """The (C2) instances of the equations at every Q assignment as rows of
    a System on the cells, but those where a path's map is no homomorphism
    as sides (base, [(i, img)]), for the member filter.

    Per equation and member of E_t (e_paths), term tables give two columns
    over the assignments: the cell index i (its symbol's first cell plus
    the base-|Q| code of the node's arguments) and a key of the fiber over
    i, the base and each frame's argument codes.  Each key's img, the fiber
    carried through the frames' maps, and its coefficients are made once."""
    nq, fibers = d.qsize(), d.cell_fibers()
    system, nonlinear = System(d, fibers), []
    for lhs, rhs in equations:
        varnames, left = term_vars(lhs, rhs), len(e_paths(lhs))
        paths = [(sign, p) for sign, t in ((1, lhs), (-1, rhs)) for p in e_paths(t)]
        tables = term_tables(d.q_alg, [lhs, rhs], varnames)
        base, columns = tables[lhs], []

        def codes(node):
            out = [0] * len(base)
            for s in node[1:]:
                out = [c * nq + x for c, x in zip(out, tables[s])]
            return out

        for sign, (frames, node) in paths:
            first = d.cell_index(node[0], (0,) * (len(node) - 1))
            cells = [first + c for c in codes(node)]
            keys = [fibers[c] * nq + b for c, b in zip(cells, base)]
            for parent, _ in frames:
                keys = [key * nq ** (len(parent) - 1) + c
                        for key, c in zip(keys, codes(parent))]
            made = {}  # key -> (img, coefficients)
            for n, key in enumerate(keys):
                if key not in made:
                    src, steps = fibers[cells[n]], [
                        d.wrap(p[0], k, tuple(tables[s][n] for s in p[1:]))
                        for p, k in reversed(frames)]
                    img = {v: reduce(lambda w, f: f[w], steps, v) for v in d.fiber(src)}
                    made[key] = img, system.coefficients(img, src, base[n], sign)
            columns.append((cells, [made[key][1] for key in keys], keys, made))
        for n, (cs, cos) in enumerate(zip(zip(*(c[0] for c in columns)),
                                          zip(*(c[1] for c in columns)))):
            if None not in cos:
                system.add(base[n], zip(cs, cos))
            else:
                sides = [(i, ms[ks[n]][0]) for i, (_, _, ks, ms) in zip(cs, columns)]
                nonlinear.append(((base[n], sides[:left]),
                                  (tables[rhs][n], sides[left:])))
    return system, nonlinear


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


def _side_value(d, side, vals):
    """The left-associated sum at base of img[vals[i]] over a side's terms."""
    base, terms = side
    zero = acc = d.delta_l(base)
    for i, img in terms:
        acc = d.dc.m_class(acc, zero, img[vals[i]])
    return acc


def cocycle_group(d, equations, cap=1 << 24):
    """All 2-cocycles compatible with the equations, as an abelian group.

    (C1) fixes each cell's fiber.  Z2 is the kernel of the (C2) rows that
    _compile reads column by column, each other instance checked on its
    members; cap bounds the entries listed, order times cells, before the
    first is built.

    A kernel listed with every constraint linear is a subgroup of the
    fibers over cell_fibers(), zero included; when those are the cells'
    bases f^Q(qs) it is one of the 2-cochains, and nothing is re-checked.
    Members filtered one by one are checked to be a subgroup.
    """
    gate = check_action_compatible(d, equations, mode="weak")
    if not gate["holds"]:
        return Z2Result(d, equations, [], gate)
    bases = d.cell_fibers()
    system, nonlinear = _compile(d, equations)
    solutions = _solutions(d, bases, system.kernel(), cap, "cocycle_group")
    for lhs, rhs in nonlinear:
        solutions = [v for v in solutions
                     if _side_value(d, lhs, v) == _side_value(d, rhs, v)]
    solutions.sort()
    if solutions and (nonlinear or bases != d.cell_bases()):
        zero, add = _two_cochains(d)
        if zero not in set(solutions):
            raise DatumError("trivial cocycle is not compatible; gate failed")
        _check_subgroup(solutions, zero, add, "Z2")
    return Z2Result(d, equations, solutions, gate)


# --- B^2 and Z^1 ---------------------------------------------------------------

def _delta_kernel(d):
    """(order, generators, nonlinear) of delta(h) = 0, kept on the datum:
    per cell in cells() order, with coboundary_of's terms, the f-delta
    image of h(q1), -h(f(qs)) and the action images of h(q2), ..., summed
    at f(qs), one System row per factor there; nonlinear lists the cells
    where a term's map is no homomorphism of fibers."""
    if d._delta_kernel is None:
        system = System(d, range(d.qsize()))
        negs, nonlinear = {}, []
        for n, ((sym, qs), base) in enumerate(zip(d.cells(), d.cell_bases())):
            if base not in negs:
                negs[base] = system.coefficients(
                    {x: d.neg_at(base, x) for x in d.fiber(base)}, base, base, 1)
            terms = [(base, negs[base])] + [
                (q, system.coefficients(d.wrap(sym, k, qs), q, base, 1))
                for k, q in enumerate(qs, 1)]
            if None in [co for _, co in terms]:
                nonlinear.append(n)
            else:
                system.add(base, terms)
        d._delta_kernel = system.kernel() + (nonlinear,)
    return d._delta_kernel


class B2Result:
    """B^2 of a datum as coboundary_group lists it, read-only.  The listing
    and the coboundary table are kept in the datum's memo slot, which holds
    no reference back to the datum, so every B2Result of a datum shares
    them."""

    def __init__(self, datum, serialized, witnesses):
        self.datum = datum
        self.serialized = serialized
        self._witnesses = witnesses

    @property
    def order(self):
        return len(self.serialized)

    def __contains__(self, cochain):
        i = bisect_left(self.serialized, cochain)
        return i < len(self.serialized) and self.serialized[i] == cochain

    @property
    def witnesses(self):
        """{delta(h): [h, ...]} over every fiber-respecting h, in
        fiber_respecting_maps order: the coboundary table, filled on the
        first read (it is never empty, as the zero map is one h)."""
        if not self._witnesses:
            table = {}
            for h in fiber_respecting_maps(self.datum):
                table.setdefault(coboundary_of(self.datum, h), []).append(h)
            self._witnesses.update(table)
        return self._witnesses

    def invariant_factors(self):
        return _invariant_factors_of(self.datum, self.serialized)


def coboundary_group(d):
    """B^2 = delta(C^1), sorted and kept on the datum: with delta(0) = 0 and
    all delta's maps homomorphisms of fibers (_delta_kernel), the span of
    delta on the maps that are one fiber generator at one q and zero
    elsewhere, of order |C^1|/|Z^1|, held to DEFAULT_CAP before it is
    listed.  witnesses, the maps h behind each image, is built when read.
    """
    if d._b2 is not None:
        return B2Result(d, *d._b2)
    nq = d.qsize()
    zero_map = tuple(d.delta_l(q) for q in range(nq))
    if coboundary_of(d, zero_map) != d.trivial_cocycle():
        raise DatumError("B2 does not contain zero")
    z1_order, _, nonlinear = _delta_kernel(d)
    if nonlinear:
        sym, qs = d.cells()[nonlinear[0]]
        raise DatumError("delta is not a homomorphism of fibers at %s%r" % (sym, qs))
    gens = [coboundary_of(d, zero_map[:q] + (g,) + zero_map[q + 1:])
            for q, (basis, _, _) in enumerate(fiber_bases(d)) for g, _, _ in basis]
    order = prod(len(d.fiber(q)) for q in range(nq)) // z1_order
    d._b2 = sorted(_solutions(d, d.cell_bases(), (order, gens), DEFAULT_CAP,
                              "coboundary_group")), {}
    return B2Result(d, *d._b2)


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


def h2(d, equations, cap=1 << 24, namer=None):
    """H^2 = Z^2/B^2 with a representative cocycle and the reconstructed
    extension's isomorphism type per class.  An empty Z^2 gives an empty
    H^2 only on a datum whose trivial cocycle meets (C1); on any other,
    h2 raises the DatumError reconstruct raises on it."""
    z2 = cocycle_group(d, equations, cap=cap)
    b2 = coboundary_group(d)
    if not z2.serialized:
        _check_fibers(d, d.trivial_cocycle())
        return CohomologyResult(d, z2, b2, [], [])
    if not set(z2.serialized).issuperset(b2.serialized):
        raise DatumError("a coboundary is not a compatible cocycle")
    zero, add = _two_cochains(d)
    least, reps, factors = _quotient(z2.serialized, b2.serialized, zero, add)
    zero_key = least[zero]
    if namer is None:
        namer = _default_namer(d)
    classes, reconstructions = [], []
    for rep in reps:
        ext = reconstruct(d, rep)
        reconstructions.append(ext)
        classes.append({"representative": rep,
                        "extension_iso_type": namer(ext.alg, reconstructions),
                        "extension": ext,
                        "is_zero": rep == zero_key})
    return CohomologyResult(d, z2, b2, factors, classes)


def _default_namer(d):
    """Names a reconstruction by its catalog group when it has the group
    signature and one matches; otherwise "iso-class-i" for the least i
    whose earlier reconstruction is isomorphic to it (its own index when
    none is).  That i is the first of its label, as an earlier isomorphic
    one would have named it, so only the first reconstruction of each
    label with the same invariant (the sorted profile colors, memoized per
    algebra) goes to find_isomorphism: on any other it returns None."""
    from .algebras import GROUP_SIGNATURE, _invariant
    firsts = []  # (i, algebra) of each "iso-class-i" given its own index

    def namer(alg, previous):
        if alg.signature == GROUP_SIGNATURE:
            from .groups import iso_type
            t = iso_type(alg)
            if t is not None:
                return t
        key = _invariant(alg)
        for i, first in firsts:
            if _invariant(first) == key and \
                    find_isomorphism(alg, first) is not None:
                return "iso-class-%d" % i
        firsts.append((len(previous) - 1, alg))
        return "iso-class-%d" % (len(previous) - 1)

    return namer


def are_equivalent(d, T, Tp):
    """T and T' give equivalent extensions: T' - T lies in B^2 = delta(C^1),
    a binary search in B^2 as coboundary_group lists it once per datum."""
    _check_cochain(d, T, Tp)
    b2 = coboundary_group(d)
    return _serialized_sub(d, Tp, T) in b2


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
    it is built once per (ext_a, ext_b.pi) and kept in ext_a.  The block
    search (_block_maps) assigns the fibers depth-first in key order, y
    ascending, and checks each entry as soon as the last fiber it reads or
    writes is assigned.  Candidates are met in lexicographic order, and
    the gamma returned is the least.
    """
    return next(_stabilizing_maps(ext_a, ext_b), None)


def _stabilizing_maps(ext_a, ext_b):
    """Every stabilizing isomorphism ext_a -> ext_b, each as a list, least
    first: the block search (_block_maps) on the plan below, run to the end."""
    if ext_a.m_flat is None:
        raise DatumError("extension carries no ternary operation")
    a, b = ext_a.alg, ext_b.alg
    if a.size != b.size or ext_a.q_alg is not ext_b.q_alg and \
            ext_a.q_alg.size != ext_b.q_alg.size:
        return
    plans = ext_a._gamma_plans
    if ext_b.pi not in plans:
        plans[ext_b.pi] = _gamma_plan(ext_a, ext_b.pi)
    plan = plans[ext_b.pi]
    if plan is None or a.signature != b.signature:
        return
    yield from _block_maps(*plan, b)


def _gamma_plan(ext_a, target_pi):
    """stabilizing_isomorphism's block search plan on ext_a's fibers
    (_search_plan) and their image pools, or None when a fiber of ext_a
    and its target fiber differ in size."""
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
    return _search_plan(a, fibers), pools


# --- stabilizing automorphisms and derivations -------------------------------

def stabilizers(ext):
    """Automorphisms gamma with pi.gamma = pi and, for every kernel-related
    pair (a,x), gamma(x) = m(gamma(a), a, x), sorted.

    They are the stabilizing isomorphisms from ext to itself, read off the
    block search (_stabilizing_maps) after this function's own cap on
    the Pi |block| candidates.  Each map is fixed on a block by y = gamma(b0),
    b0 the block's least element, and listed once, keyed by that y; a loop
    over every y of the block would meet one map twice when m(y, b0, b0)
    differs from y, which no Mal'cev m allows.
    """
    if ext.m_flat is None:
        raise DatumError("extension carries no ternary operation")
    space = prod(len(block) for block in ext.beta.blocks())
    if space > DEFAULT_CAP:
        raise CapExceeded("stabilizers", space, DEFAULT_CAP,
                          "{stage}: {size} candidate maps exceed cap {cap}")
    return sorted(map(tuple, _stabilizing_maps(ext, ext)))


def derivations(d):
    """Z^1 = ker delta: the sorted fiber-respecting maps h with delta(h) the
    zero cochain, checked to be a subgroup under pointwise +_{l(x)}: the
    kernel of delta's linear cells (_delta_kernel), held to DEFAULT_CAP
    before it is listed, each other cell checked with coboundary_of.

    On the fibers, delta(h)_f(x) is zero exactly when h(f(x)) =
    f-delta(h(x1)) + the action terms, the 1-cocycle identity at f and x
    (for a nullary f with value c, when h(c) = delta(l(c))); off them both
    sides are sums outside any group, and the two can part.
    """
    bases = range(d.qsize())
    solved = _delta_kernel(d)
    out = _solutions(d, bases, solved, DEFAULT_CAP, "derivations")
    if solved[2]:
        zero = d.trivial_cocycle()
        out = [h for h in out if coboundary_of(d, h) == zero]
    out.sort()
    if out:
        zero, add = _cochain_group(d, bases)
        _check_subgroup(out, zero, add, "Z1")
    return out


def derivation_of_stabilizer(ext, d, gamma):
    """d_gamma(x) = [l(x) // gamma(l(x))]/Delta for the datum extracted from ext."""
    return tuple(d.dc.class_of_pair(ext.lifting[q], gamma[ext.lifting[q]])
                 for q in range(d.qsize()))


def stabilizer_derivation_isomorphism(ext, d):
    """gamma -> d_gamma is a bijection Stab -> Z^1 turning composition into
    addition; returns a report dict.  A composition outside Stab fails at
    its lookup, so Stab is closed under composition when the claim holds."""
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
            if dmap.get(comp) != rhs:
                report["holds"] = False
                report["witness"] = {"composition": (g1, g2)}
                return report
    return report


# --- principal derivations and H^1 -------------------------------------------

def twin_pairs_of_identity(alg, theta):
    """Pairs (g, h) of unary polynomial maps coming from one term with
    theta-related parameter tuples; the closure runs to its fixpoint (held
    to its cap without an associative operation).

    A pair is the 2n-tuple g || h in alg**(2n), where every operation acts
    coordinatewise, as it acts pointwise on the unary polynomials.  The
    pairs are the closure there of id || id and c^n || e^n for constants c,
    e from a common theta block.
    """
    n = alg.size
    seeds = [tuple(range(n)) * 2] + [(c,) * n + (e,) * n for block in theta.blocks()
                                     for c in block for e in block]
    return {(t[:n], t[n:]) for t in closure(alg, 2 * n, seeds)}


def principal_stabilizers(d):
    """PStab: the twins of the identity with a fixed point that are
    stabilizing automorphisms of the semidirect product A_0, each tested
    (a bijection, pi.g = pi, g(x) = m(g(a), a, x) on kernel blocks, a
    homomorphism) instead of listing Stab(A_0)."""
    a0 = reconstruct(d, d.trivial_cocycle(), name="A_0")
    pairs = twin_pairs_of_identity(a0.alg, a0.beta)
    ident = tuple(range(a0.alg.size))
    blocks, pi, m = a0.beta.blocks(), a0.pi, a0.m_elem
    twins = sorted({g for g, h in pairs if h == ident and any(g[x] == x for x in ident)})
    return a0, [g for g in twins if len(set(g)) == len(g)
                and all(pi[y] == pi[x] for x, y in enumerate(g))
                and all(g[x] == m(g[a], a, x) for b in blocks for a in b for x in b)
                and is_homomorphism(list(g), a0.alg, a0.alg)]


def principal_derivations(d):
    """PDer: the subgroup of Z^1 generated by the derivations of principal
    stabilizing automorphisms of the semidirect product."""
    _, pstab = principal_stabilizers(d)
    nq = d.qsize()
    gens = [tuple(gamma[d.delta_l(q)] for q in range(nq)) for gamma in pstab]
    zero, add = _cochain_group(d, range(nq))
    return sorted(_span(gens, zero, add, set(derivations(d)).__contains__,
                        "principal derivation outside Z1"))


def h1(d):
    """H^1 = Z^1/PDer as coset representatives with invariant factors; the
    twin-pair closure runs to its fixpoint, so the result is exact."""
    ders = derivations(d)
    pder = principal_derivations(d)
    zero, add = _cochain_group(d, range(d.qsize()))
    _, reps, factors = _quotient(ders, pder, zero, add)
    return {"order": len(reps), "invariant_factors": factors,
            "exact": True, "Z1_order": len(ders), "PDer_order": len(pder)}


# --- trivial actions and central extensions ----------------------------------

def trivial_action_check(d):
    """The trivial-action sum identity, read off the datum's classes.

    For f of arity >= 2, a nonempty index set I and Q values at I, take a
    class c_i of the fiber over each position i in I.  Every assignment of
    Q values q to the other positions gives a pair (u, s): u = delta(l(q'))
    and s the sum at q' of a(f,i)(c_i), i in I, where q' = f^Q(q).  The
    identity holds when s = m(u, u', t) for any two such pairs (u, s),
    (u', t).

    These are the comparisons of a sweep over every lifting and every tuple
    of A's elements, whose class at position i is [l(q_i) // a_i]:
    Delta_{alpha,alpha} holds ((u,u),(v,v)) for u alpha v, so delta(l(q))
    is one class per block whatever the lifting; and by the Delta rule
    (a,b) ~ (c, m(b,a,c)), so b -> [l(q) // b] is a bijection from the
    block over q onto the fiber over q.  Every lifting and every tuple of
    elements reads the same tuples of classes.
    """
    nq, m = d.qsize(), d.dc.m_class
    for sym, ar in d.signature.symbols:
        if ar < 2:
            continue
        for mask in range(1, 1 << ar):
            idx = [i for i in range(1, ar + 1) if mask >> i - 1 & 1]
            rows = {}  # Q values at I -> the Q tuples that agree there
            for qs in product(range(nq), repeat=ar):
                rows.setdefault(tuple(qs[i - 1] for i in idx), []).append(qs)
            for at, tuples in rows.items():
                for cs in product(*map(d.fiber, at)):
                    pairs = []
                    for qs in tuples:
                        fq = d.q_alg.apply(sym, qs)
                        pairs.append((d.delta_l(fq), d.sum_at(fq, [
                            d.action_apply(sym, i, qs[:i - 1] + qs[i:], c)
                            for i, c in zip(idx, cs)])))
                    if any(s != m(u, v, t) for u, s in pairs for v, t in pairs):
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
