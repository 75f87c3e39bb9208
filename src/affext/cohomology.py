"""Cohomology of affine datum: Z^2, B^2, H^2, Z^1, PDer, H^1, equivalence,
stabilizing automorphisms, trivial actions and variety comparisons."""

from itertools import product

from .algebras import (DEFAULT_CAP, AlgebraError, CapExceeded, FiniteAlgebra,
                       Signature, closure, find_isomorphism, is_homomorphism,
                       subpower_tables)
from .cocycles import (TwoCocycle, check_cocycle, coboundary_of, cocycle_add,
                       e_paths, fiber_respecting_maps, reconstruct)
from .datum import DatumError, check_action_compatible
from .terms import term_vars


class AbelianGroupPresentation:
    """Finite abelian group given by elements and an addition table."""

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
        """d1 | d2 | ... with product the group order, from element orders.

        For each prime p the p-part partition is recovered from the counts
        of elements annihilated by successive powers of p.
        """
        n = self.order
        if n == 1:
            return []
        orders = [self.element_order(i) for i in range(n)]
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

    def describe(self):
        facs = self.invariant_factors()
        if not facs:
            return "0"
        return " x ".join("Z/%d" % f for f in facs)


# --- Z^2 enumeration --------------------------------------------------------

class _Constraint:
    __slots__ = ("lhs_paths", "rhs_paths", "lhs_base", "rhs_base", "cells")

    def __init__(self, lhs_paths, rhs_paths, lhs_base, rhs_base):
        self.lhs_paths = lhs_paths
        self.rhs_paths = rhs_paths
        self.lhs_base = lhs_base
        self.rhs_base = rhs_base
        self.cells = ({cell for cell, _ in lhs_paths}
                      | {cell for cell, _ in rhs_paths})


def _compile_paths(d, term, qenv):
    """[(cell, wrap)] for E_t at a fixed Q assignment; wrap carries a class
    through the f-delta/action chain of the path."""
    out = []
    for frames, node in e_paths(term):
        args = tuple(d.eval_q(s, qenv) for s in node[1:])
        cell = (node[0], args)
        chain = []
        for parent, k in reversed(frames):
            qs = tuple(d.eval_q(s, qenv) for s in parent[1:])
            chain.append((parent[0], k, qs))
        chain = tuple(chain)

        def wrap(val, chain=chain, d=d):
            for sym, k, qs in chain:
                if k == 1:
                    val = d.fdelta_apply(sym, val, qs[1:])
                else:
                    val = d.action_apply(sym, k, qs[:k - 1] + qs[k:], val)
            return val

        out.append((cell, wrap))
    return out


def _constraints_for(d, equations):
    cons = []
    for lhs, rhs in equations:
        varnames = term_vars(lhs)
        for v in term_vars(rhs):
            if v not in varnames:
                varnames.append(v)
        for vals in product(range(d.qsize()), repeat=len(varnames)):
            qenv = dict(zip(varnames, vals))
            c = _Constraint(_compile_paths(d, lhs, qenv),
                            _compile_paths(d, rhs, qenv),
                            d.eval_q(lhs, qenv), d.eval_q(rhs, qenv))
            if c.cells:
                cons.append(c)
    return cons


def _eval_side(d, paths, base, assignment):
    return d.sum_at(base, [wrap(assignment[cell]) for cell, wrap in paths])


class Z2Result:
    def __init__(self, datum, equations, serialized, group, gate):
        self.datum = datum
        self.equations = equations
        self.serialized = serialized
        self.group = group
        self.gate = gate

    @property
    def order(self):
        return len(self.serialized)

    def cocycles(self):
        return [TwoCocycle.from_serialized(self.datum, s) for s in self.serialized]


def cocycle_group(d, equations, cap=1 << 24, brute=False):
    """All 2-cocycles compatible with the equations, as an abelian group.

    (C1) fixes each cell's fiber, so domains are fibers.  (C2) instances
    become constraints checked as soon as their last cell is assigned; the
    cell order is chosen so constraints trigger early.  brute=True is the
    oracle mode: full product enumeration filtered through check_cocycle.
    """
    gate = check_action_compatible(d, equations, mode="weak")
    if not gate["holds"]:
        return Z2Result(d, equations, [], None, gate)
    cells = d.cells()
    domains = {cell: list(d.fiber(d.cell_fiber(*cell))) for cell in cells}
    solutions = []
    if brute:
        space = 1
        for cell in cells:
            space *= len(domains[cell])
        if space > cap:
            raise CapExceeded("brute-force space %d exceeds cap %d" % (space, cap))
        for values in product(*(domains[c] for c in cells)):
            T = TwoCocycle.from_serialized(d, values)
            if check_cocycle(d, T, equations)["holds"]:
                solutions.append(values)
    else:
        constraints = _constraints_for(d, equations)
        order = []
        placed = set()
        remaining = list(constraints)
        while remaining:
            remaining.sort(key=lambda c: sum(1 for cell in c.cells
                                             if cell not in placed))
            head = remaining.pop(0)
            for cell in sorted(head.cells):
                if cell not in placed:
                    placed.add(cell)
                    order.append(cell)
        for cell in cells:
            if cell not in placed:
                placed.add(cell)
                order.append(cell)
        pos = {cell: i for i, cell in enumerate(order)}
        triggers = [[] for _ in order]
        for c in constraints:
            triggers[max(pos[cell] for cell in c.cells)].append(c)
        assignment = {}
        visited = [0]

        def search(depth):
            if depth == len(order):
                solutions.append(tuple(assignment[c] for c in cells))
                return
            cell = order[depth]
            for v in domains[cell]:
                visited[0] += 1
                if visited[0] > cap:
                    raise CapExceeded("search visited more than %d nodes" % cap)
                assignment[cell] = v
                ok = True
                for con in triggers[depth]:
                    lv = _eval_side(d, con.lhs_paths, con.lhs_base, assignment)
                    rv = _eval_side(d, con.rhs_paths, con.rhs_base, assignment)
                    if lv != rv:
                        ok = False
                        break
                if ok:
                    search(depth + 1)
            assignment.pop(cell, None)

        search(0)
    solutions.sort()
    zero = d.trivial_cocycle().serialize(d)
    group = None
    if solutions:
        sol_set = set(solutions)
        if zero not in sol_set:
            raise DatumError("trivial cocycle is not compatible; gate failed")

        def add(a, b):
            s = cocycle_add(d, TwoCocycle.from_serialized(d, a),
                            TwoCocycle.from_serialized(d, b)).serialize(d)
            if s not in sol_set:
                raise DatumError("Z2 is not closed under addition")
            return s

        group = AbelianGroupPresentation(solutions, add, zero)
    return Z2Result(d, equations, solutions, group, gate)


class B2Result:
    def __init__(self, datum, serialized, group, witnesses):
        self.datum = datum
        self.serialized = serialized
        self.group = group
        self.witnesses = witnesses

    @property
    def order(self):
        return len(self.serialized)


def coboundary_group(d):
    """B^2 from all fiber-respecting witness maps h, with multiplicities."""
    images = {}
    for h in fiber_respecting_maps(d):
        g = coboundary_of(d, h).serialize(d)
        images.setdefault(g, []).append(h)
    serialized = sorted(images)
    zero = d.trivial_cocycle().serialize(d)

    def add(a, b):
        return cocycle_add(d, TwoCocycle.from_serialized(d, a),
                           TwoCocycle.from_serialized(d, b)).serialize(d)

    group = AbelianGroupPresentation(serialized, add, zero)
    return B2Result(d, serialized, group, images)


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
    sol_set = set(z2.serialized)
    for g in b2.serialized:
        if g not in sol_set:
            raise DatumError("a coboundary is not a compatible cocycle")

    def coset_of(s):
        T = TwoCocycle.from_serialized(d, s)
        return min(cocycle_add(d, T, TwoCocycle.from_serialized(d, g)).serialize(d)
                   for g in b2.serialized)

    cosets = {}
    for s in z2.serialized:
        cosets.setdefault(coset_of(s), []).append(s)
    reps = sorted(cosets)
    zero_key = coset_of(d.trivial_cocycle().serialize(d))

    def add(a, b):
        return coset_of(cocycle_add(d, TwoCocycle.from_serialized(d, a),
                                    TwoCocycle.from_serialized(d, b)).serialize(d))

    group = AbelianGroupPresentation(reps, add, zero_key)
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
    return CohomologyResult(d, z2, b2, group.invariant_factors(), classes)


def _default_namer(d, seed=0):
    from .algebras import GROUP_SIGNATURE

    def namer(alg, previous):
        if alg.signature == GROUP_SIGNATURE:
            from .groups import iso_type
            t = iso_type(alg, seed=seed)
            if t is not None:
                return t
        for i, ext in enumerate(previous[:-1]):
            if find_isomorphism(alg, ext.alg, seed=seed) is not None:
                return "iso-class-%d" % i
        return "iso-class-%d" % (len(previous) - 1)

    return namer


def are_equivalent(d, T, Tp):
    """T' - T lies in B^2 (searched directly through witness maps)."""
    from .cocycles import cocycle_difference_coboundary
    return cocycle_difference_coboundary(d, T, Tp) is not None


def stabilizing_isomorphism(ext_a, ext_b):
    """An isomorphism gamma with pi'.gamma = pi and gamma = m(gamma.r, r, id)
    for all kernel traces, between two extensions on the same class universe."""
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
    from itertools import permutations
    pools = []
    keys = sorted(fibers_a)
    for q in keys:
        fa, fb = fibers_a[q], fibers_b[q]
        if len(fa) != len(fb):
            return None
        pools.append([dict(zip(fa, perm)) for perm in permutations(fb)])
    beta = ext_a.beta
    blocks = beta.blocks()
    for parts in product(*pools):
        gamma = [0] * n
        for part in parts:
            for x, y in part.items():
                gamma[x] = y
        ok = True
        for block in blocks:
            for aa in block:
                for x in block:
                    if gamma[x] != ext_a.m_elem(gamma[aa], aa, x):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok and is_homomorphism(gamma, a, b):
            return gamma
    return None


# --- stabilizing automorphisms and derivations -------------------------------

def stabilizers(ext):
    """Automorphisms gamma with pi.gamma = pi and, for every kernel-related
    pair (a,x), gamma(x) = m(gamma(a), a, x)."""
    alg, beta = ext.alg, ext.beta
    if ext.m_flat is None:
        raise DatumError("extension carries no ternary operation")
    n = alg.size
    blocks = beta.blocks()
    out = []
    order = []
    pools = []
    for block in blocks:
        for x in block:
            order.append(x)
            pools.append(block)
    for choice in product(*pools):
        gamma = [0] * n
        for x, y in zip(order, choice):
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
    """Z^1: fiber-respecting maps satisfying the 1-cocycle identity, as an
    abelian group under pointwise +_{l(x)}."""
    nq = d.qsize()
    out = []
    for h in fiber_respecting_maps(d):
        ok = True
        for sym, ar in d.signature.symbols:
            if not ok:
                break
            if ar == 0:
                q = d.q_alg.tables[sym][0]
                if h[q] != d.delta_l(q):
                    ok = False
                continue
            for qs in product(range(nq), repeat=ar):
                base = d.q_alg.apply(sym, qs)
                val = d.fdelta_apply(sym, h[qs[0]], qs[1:])
                for i in range(2, ar + 1):
                    val = d.plus_at(base, val,
                                    d.action_apply(sym, i, qs[:i - 1] + qs[i:],
                                                   h[qs[i - 1]]))
                if h[base] != val:
                    ok = False
                    break
        if ok:
            out.append(h)
    out.sort()
    zero = tuple(d.delta_l(q) for q in range(nq))

    def add(h1, h2):
        return tuple(d.plus_at(q, h1[q], h2[q]) for q in range(nq))

    group = AbelianGroupPresentation(out, add, zero) if out else None
    return out, group


def derivation_of_stabilizer(ext, d, gamma):
    """d_gamma(x) = [l(x) // gamma(l(x))]/Delta for the datum extracted from ext."""
    return tuple(d.dc.class_of_pair(ext.lifting[q], gamma[ext.lifting[q]])
                 for q in range(d.qsize()))


def stabilizer_derivation_isomorphism(ext, d):
    """gamma -> d_gamma is a bijection Stab -> Z^1 turning composition into
    addition; returns a report dict."""
    stabs = stabilizers(ext)
    ders, _ = derivations(d)
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
            raise CapExceeded("table of %r on %d unary polynomials exceeds cap %d"
                              % (sym, len(maps), DEFAULT_CAP))
    return FiniteAlgebra(len(maps), alg.signature, subpower_tables(alg, maps)), maps


def twin_pairs_of_identity(alg, theta, depth_cap=4):
    """Pairs (g, h) of unary polynomial maps coming from one term with
    theta-related parameter tuples.

    The closure in the square of the unary polynomial algebra of the pairs
    (id, id) and (c, e) of constants from a common theta block, run for at
    most depth_cap rounds; exact means the last round found nothing new,
    otherwise the result is a lower bound.
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
    ders, _ = derivations(d)
    dset = set(ders)
    for h in sub:
        if h not in dset:
            raise DatumError("principal derivation outside Z1")
    return sorted(sub), exact


def h1(d, depth_cap=4):
    """H^1 = Z^1/PDer as coset representatives with invariant factors."""
    ders, _ = derivations(d)
    pder, exact = principal_derivations(d, depth_cap=depth_cap)
    nq = d.qsize()

    def coset_of(h):
        return min(tuple(d.plus_at(q, h[q], g[q]) for q in range(nq)) for g in pder)

    reps = sorted({coset_of(h) for h in ders})
    zero = coset_of(tuple(d.delta_l(q) for q in range(nq)))

    def add(a, b):
        return coset_of(tuple(d.plus_at(q, a[q], b[q]) for q in range(nq)))

    group = AbelianGroupPresentation(reps, add, zero)
    return {"order": len(reps), "invariant_factors": group.invariant_factors(),
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

    def classes(of):
        out = set()
        for s in of:
            T = TwoCocycle.from_serialized(d, s)
            out.add(min(cocycle_add(d, T, TwoCocycle.from_serialized(d, g)).serialize(d)
                        for g in b2.serialized))
        return out

    c1, c2, cu = classes(s1), classes(s2), classes(su)
    meet_ok = cu == (c1 & c2)
    holds = monotone and intersection_ok and meet_ok
    return {"claim": "variety meet law", "holds": holds,
            "witness": None if holds else {"monotone": monotone,
                                           "intersection": intersection_ok,
                                           "meet": meet_ok},
            "sizes": {"Z2_1": len(s1), "Z2_2": len(s2), "Z2_union": len(su),
                      "H2_1": len(c1), "H2_2": len(c2), "H2_union": len(cu)}}
