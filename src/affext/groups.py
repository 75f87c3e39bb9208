"""Hard-coded small groups and classical 2-cocycle cohomology.

This module is the independent ground truth used to validate the general
machinery: everything here is computed with plain group theory on dense
multiplication tables, never through the datum/cocycle pipeline.  The
classical Z^2 is found by a depth-first search that checks each group
2-cocycle identity once, as soon as the four cells of f it reads are fixed;
it returns exactly the maps, in the same order, that testing every map
Q x Q -> K would (see classical_h2).
"""

from functools import lru_cache
from itertools import product

from .algebras import (AlgebraError, CapExceeded, FiniteAlgebra,
                       GROUP_SIGNATURE, find_isomorphism)
from .congruences import Congruence


def _group_from_mul(name, mul):
    """Build a group algebra {mul,inv,e} from a multiplication table."""
    n = len(mul)
    e = None
    for cand in range(n):
        if all(mul[cand][x] == x == mul[x][cand] for x in range(n)):
            e = cand
            break
    if e is None:
        raise AlgebraError("no identity element in %s" % name)
    inv = [None] * n
    for x in range(n):
        for y in range(n):
            if mul[x][y] == e and mul[y][x] == e:
                inv[x] = y
                break
        if inv[x] is None:
            raise AlgebraError("no inverse for %d in %s" % (x, name))
    flat = tuple(mul[i][j] for i in range(n) for j in range(n))
    alg = FiniteAlgebra(n, GROUP_SIGNATURE,
                        {"mul": flat, "inv": tuple(inv), "e": (e,)},
                        name=name)
    assert is_group(alg), name
    return alg


def is_group(alg):
    n = alg.size
    mul = alg.tables["mul"]
    inv = alg.tables["inv"]
    e = alg.tables["e"][0]
    for a in range(n):
        if mul[a * n + e] != a or mul[e * n + a] != a:
            return False
        if mul[a * n + inv[a]] != e or mul[inv[a] * n + a] != e:
            return False
        for b in range(n):
            for c in range(n):
                if mul[mul[a * n + b] * n + c] != mul[a * n + mul[b * n + c]]:
                    return False
    return True


def cyclic(k, name=None):
    mul = [[(i + j) % k for j in range(k)] for i in range(k)]
    return _group_from_mul(name or "Z%d" % k, mul)


def direct_product(g, h, name=None):
    ng, nh = g.size, h.size
    mulg, mulh = g.tables["mul"], h.tables["mul"]
    n = ng * nh
    mul = [[0] * n for _ in range(n)]
    for a, b in product(range(ng), range(nh)):
        for c, d in product(range(ng), range(nh)):
            mul[a * nh + b][c * nh + d] = mulg[a * ng + c] * nh + mulh[b * nh + d]
    return _group_from_mul(name or "%sx%s" % (g.name, h.name), mul)


def dihedral8(name="D4"):
    """Dihedral group of order 8: r^i s^j encoded as i*2+j."""
    def mul(x, y):
        i, j = divmod(x, 2)
        k, l = divmod(y, 2)
        ii = (i + (k if j == 0 else -k)) % 4
        return ii * 2 + (j + l) % 2
    return _group_from_mul(name, [[mul(x, y) for y in range(8)] for x in range(8)])


def quaternion8(name="Q8"):
    """Q8 presented as a^i b^j with a^4=e, b^2=a^2, bab^-1=a^-1; encoded i*2+j."""
    def mul(x, y):
        i, j = divmod(x, 2)
        k, l = divmod(y, 2)
        ii = (i + (k if j == 0 else -k)) % 4
        jj = j + l
        if jj == 2:
            ii = (ii + 2) % 4
            jj = 0
        return ii * 2 + jj
    return _group_from_mul(name, [[mul(x, y) for y in range(8)] for x in range(8)])


def symmetric3(name="S3"):
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    return _group_from_mul(name, mul)


@lru_cache(maxsize=None)
def _catalog_groups():
    z2 = cyclic(2)
    z4 = cyclic(4)
    return (
        cyclic(1, "Z1"),
        z2,
        cyclic(3),
        z4,
        direct_product(z2, z2, "Z2xZ2"),
        cyclic(5),
        cyclic(6, "Z6"),
        symmetric3(),
        cyclic(7),
        cyclic(8, "Z8"),
        direct_product(z2, z4, "Z2xZ4"),
        direct_product(z2, direct_product(z2, z2), "Z2xZ2xZ2"),
        dihedral8(),
        quaternion8(),
    )


def catalog():
    """Named groups of order <= 8 used across the test and verification suites.

    The groups are built once per import and shared: nothing changes a
    FiniteAlgebra's tables after construction, and their memos (such as
    the profiles iso_type compares) then serve every caller.  Each call
    returns a fresh dict, so a caller may add or drop names freely.
    """
    return {g.name: g for g in _catalog_groups()}


def identity_of(alg):
    return alg.tables["e"][0]


def mul_of(alg, a, b):
    return alg.tables["mul"][a * alg.size + b]


def inv_of(alg, a):
    return alg.tables["inv"][a]


def center(alg):
    n = alg.size
    mul = alg.tables["mul"]
    return [z for z in range(n)
            if all(mul[z * n + g] == mul[g * n + z] for g in range(n))]


def subgroup_generated(alg, gens):
    elems = {identity_of(alg)}
    frontier = list(elems)
    gens = list(gens)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                for y in (mul_of(alg, x, g), mul_of(alg, g, x), inv_of(alg, x)):
                    if y not in elems:
                        elems.add(y)
                        new.append(y)
        frontier = new
    return sorted(elems)


def is_normal(alg, sub):
    subset = set(sub)
    for g in range(alg.size):
        gi = inv_of(alg, g)
        for k in sub:
            if mul_of(alg, mul_of(alg, g, k), gi) not in subset:
                return False
    return True


def commutator_subgroup(alg, subA, subB):
    """[A,B]: subgroup generated by commutators a^-1 b^-1 a b."""
    comms = []
    for a in subA:
        ai = inv_of(alg, a)
        for b in subB:
            bi = inv_of(alg, b)
            comms.append(mul_of(alg, mul_of(alg, ai, bi), mul_of(alg, a, b)))
    return subgroup_generated(alg, comms)

def congruence_of_subgroup(alg, sub):
    """x ~ y iff x y^-1 in the (normal) subgroup."""
    if not is_normal(alg, sub):
        raise AlgebraError("subgroup is not normal")
    subset = set(sub)
    n = alg.size
    pairs = [(x, y) for x in range(n) for y in range(n)
             if mul_of(alg, x, inv_of(alg, y)) in subset]
    from .congruences import equivalence_from_pairs
    return equivalence_from_pairs(n, pairs)


def quotient_group(alg, sub, name=None):
    """Quotient by a normal subgroup; returns (group, projection list)."""
    cong = congruence_of_subgroup(alg, sub)
    blocks = cong.blocks()
    proj = [0] * alg.size
    for i, b in enumerate(blocks):
        for x in b:
            proj[x] = i
    mul = [[proj[mul_of(alg, blocks[i][0], blocks[j][0])] for j in range(len(blocks))]
           for i in range(len(blocks))]
    return _group_from_mul(name or "%s/%s" % (alg.name, len(sub)), mul), proj


def subgroup_as_group(alg, sub, name=None):
    index = {x: i for i, x in enumerate(sub)}
    mul = [[index[mul_of(alg, a, b)] for b in sub] for a in sub]
    return _group_from_mul(name or "%s|%d" % (alg.name, len(sub)), mul)


def iso_type(alg, cat=None):
    """Name of the catalog group isomorphic to alg, or None."""
    if cat is None:
        cat = catalog()
    for name in sorted(cat):
        g = cat[name]
        if g.size == alg.size and g.signature == alg.signature:
            if find_isomorphism(alg, g) is not None:
                return name
    return None


def trivial_action(k_alg, q_alg):
    return tuple(tuple(range(k_alg.size)) for _ in range(q_alg.size))


def inversion_action(k_alg, q_alg):
    """Non-identity elements of Q act by inversion on K."""
    e = identity_of(q_alg)
    inv = tuple(k_alg.tables["inv"])
    ident = tuple(range(k_alg.size))
    return tuple(ident if q == e else inv for q in range(q_alg.size))


def is_action(k_alg, q_alg, phi):
    """phi: per Q-element a permutation of K; must be a homomorphism to Aut K."""
    nk = k_alg.size
    for q in range(q_alg.size):
        perm = phi[q]
        if sorted(perm) != list(range(nk)):
            return False
        for a in range(nk):
            for b in range(nk):
                if perm[mul_of(k_alg, a, b)] != mul_of(k_alg, perm[a], perm[b]):
                    return False
    e = identity_of(q_alg)
    if tuple(phi[e]) != tuple(range(nk)):
        return False
    for q1 in range(q_alg.size):
        for q2 in range(q_alg.size):
            q12 = mul_of(q_alg, q1, q2)
            for a in range(nk):
                if phi[q12][a] != phi[q1][phi[q2][a]]:
                    return False
    return True


def classical_coboundary(k_alg, q_alg, phi, h):
    """f(x,y) = h(x) + x*h(y) - h(xy)."""
    nq = q_alg.size
    return tuple(tuple(
        mul_of(k_alg, mul_of(k_alg, h[x], phi[x][h[y]]),
               inv_of(k_alg, h[mul_of(q_alg, x, y)]))
        for y in range(nq)) for x in range(nq))


def semidirect_extension(k_alg, q_alg, phi, f=None, name=None):
    """K x_{phi,f} Q on pairs (a,x) -> a*|Q|+x with
    (a,x)(b,y) = (a + x*b + f(x,y), xy)."""
    nk, nq = k_alg.size, q_alg.size
    if f is None:
        ek = identity_of(k_alg)
        f = tuple(tuple(ek for _ in range(nq)) for _ in range(nq))
    n = nk * nq
    mul = [[0] * n for _ in range(n)]
    for a, x in product(range(nk), range(nq)):
        for b, y in product(range(nk), range(nq)):
            kk = mul_of(k_alg, mul_of(k_alg, a, phi[x][b]), f[x][y])
            mul[a * nq + x][b * nq + y] = kk * nq + mul_of(q_alg, x, y)
    return _group_from_mul(name or "ext(%s,%s)" % (k_alg.name, q_alg.name), mul)


class ClassicalH2:
    def __init__(self, k_alg, q_alg, phi, cocycles, coboundaries, classes):
        self.k_alg = k_alg
        self.q_alg = q_alg
        self.phi = phi
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.classes = classes  # list of (representative f, extension algebra, iso type)

    @property
    def order(self):
        return len(self.classes)

    def class_types(self):
        return sorted(t for _, _, t in self.classes)


def classical_h2(k_alg, q_alg, phi, cap=1 << 22, cat=None):
    """Classical H^2(Q,K;phi) with representative extensions.

    Z^2 is found by a depth-first search over the |Q|^2 cells of f: Q x Q
    -> K, assigned in row-major order with values in ascending order.  The
    cocycle identity f(x,y) + f(xy,z) = x*f(y,z) + f(x,yz) at (x,y,z) reads
    the cells (x,y), (xy,z), (y,z) and (x,yz); it is attached to the depth
    of the last of them and checked there.  So each identity is checked
    exactly once, as soon as all its cells are fixed, and a branch is cut
    only when an identity on its fixed cells fails, which every completion
    of it fails too.  The search therefore returns the same cocycles as
    testing every one of the |K|^(|Q|^2) maps, in the same lexicographic
    order as product(range(|K|), repeat=|Q|^2).

    The cocycles are partitioned by the coboundaries in that order: a
    cocycle not yet covered becomes the representative of its class and
    covers f + B2, its coset since B2 is a subgroup.  K x_{phi,f} Q is
    built for each representative.
    """
    if not is_abelian_group(k_alg):
        raise AlgebraError("kernel must be abelian")
    if not is_action(k_alg, q_alg, phi):
        raise AlgebraError("phi is not a homomorphism Q -> Aut K")
    nk, nq = k_alg.size, q_alg.size
    if nk ** (nq * nq) > cap:
        raise CapExceeded("classical_h2", nk ** (nq * nq), cap,
                          "{stage}: {size} candidate maps exceed cap {cap}")
    kmul, qmul = k_alg.tables["mul"], q_alg.tables["mul"]
    ncells = nq * nq
    # checks[depth]: the identities whose last cell is cell `depth` of the
    # row-major order, as phi[x] and the cells (x,y), (xy,z), (y,z), (x,yz)
    checks = [[] for _ in range(ncells)]
    for x, y, z in product(range(nq), repeat=3):
        cells = (x * nq + y, qmul[x * nq + y] * nq + z, y * nq + z,
                 x * nq + qmul[y * nq + z])
        checks[max(cells)].append((phi[x],) + cells)
    vals = [0] * ncells
    cocycles = []

    def search(depth):
        if depth == ncells:
            cocycles.append(tuple(tuple(vals[r:r + nq])
                                  for r in range(0, ncells, nq)))
            return
        here = checks[depth]
        for v in range(nk):
            vals[depth] = v
            if all(kmul[vals[xy] * nk + vals[xy_z]]
                   == kmul[act[vals[y_z]] * nk + vals[x_yz]]
                   for act, xy, xy_z, y_z, x_yz in here):
                search(depth + 1)

    search(0)
    coboundaries = sorted({classical_coboundary(k_alg, q_alg, phi, h)
                           for h in product(range(nk), repeat=nq)})
    covered = set()
    classes = []
    if cat is None:
        cat = catalog()
    for f in cocycles:
        if f in covered:
            continue
        covered.update(tuple(tuple(kmul[a * nk + b] for a, b in zip(frow, grow))
                             for frow, grow in zip(f, g))
                       for g in coboundaries)
        ext = semidirect_extension(k_alg, q_alg, phi, f)
        classes.append((f, ext, iso_type(ext, cat) or "unknown"))
    return ClassicalH2(k_alg, q_alg, phi, cocycles, coboundaries, classes)


def is_abelian_group(alg):
    n = alg.size
    mul = alg.tables["mul"]
    return all(mul[a * n + b] == mul[b * n + a] for a in range(n) for b in range(n))


def element_orders(alg):
    e = identity_of(alg)
    orders = []
    for x in range(alg.size):
        y, k = x, 1
        while y != e:
            y = mul_of(alg, y, x)
            k += 1
        orders.append(k)
    return orders


def _blocks_onto(pairalg, cong, target, image):
    """(map, class_of): map sends each block of cong to image(x, y) of its
    pairs [x//y] when that is one value per block, one-to-one onto the
    group target and multiplicative on block representatives, else None;
    class_of gives each pair's block."""
    blocks = cong.blocks()
    class_of = {p: ci for ci, block in enumerate(blocks) for p in block}
    images = [{image(*pairalg.pairs[p]) for p in block} for block in blocks]
    if any(len(i) != 1 for i in images):
        return None, class_of
    sigma = [i.pop() for i in images]
    mul, n = pairalg.tables["mul"], pairalg.size
    if not len(set(sigma)) == len(blocks) == target.size or any(
            sigma[class_of[mul[b1[0] * n + b2[0]]]] != mul_of(target, s1, s2)
            for b1, s1 in zip(blocks, sigma) for b2, s2 in zip(blocks, sigma)):
        return None, class_of
    return sigma, class_of


def verify_grp_lemma(g_alg, k_sub, cap=1 << 24):
    """Cross-check the pair-algebra quotients of a group against group theory.

    For K normal abelian in G (taking H = K):
      (a) [x//y]/Delta_{aK aK} -> (y x^-1, pi(x)) is an isomorphism onto
          K x_phi G/K with phi the conjugation action;
      (b) [x//y]/Delta_{aK 1} -> y x^-1 mod [K,G] is an isomorphism onto
          K/[K,G];
      (c) for central K, the extracted mul-transfer maps under (b) to the
          classical cocycle l(x)l(y)l(xy)^-1.
    Returns a report dict.
    """
    from .congruences import delta_with_pair_algebra, Congruence
    sub = sorted(k_sub)
    if not is_normal(g_alg, sub):
        raise AlgebraError("K is not normal")
    k_group = subgroup_as_group(g_alg, sub, name="K")
    if not is_abelian_group(k_group):
        raise AlgebraError("K is not abelian")
    alpha = congruence_of_subgroup(g_alg, sub)
    q_alg, proj = quotient_group(g_alg, sub, name="Q")
    report = {"claim": "group specialization of the pair-algebra quotients",
              "holds": True, "witness": None, "parts": {}}

    # lifting: least element of each coset
    lift = [min(x for x in range(g_alg.size) if proj[x] == q) for q in range(q_alg.size)]
    k_index = {x: i for i, x in enumerate(sub)}

    # (a) G(aK)/Delta_{aK aK} ~= K x_phi Q via sigma([x//y]) = (y x^-1, pi(x))
    pairalg, d_aa = delta_with_pair_algebra(g_alg, alpha, alpha, cap=cap)
    phi = tuple(tuple(k_index[mul_of(g_alg, mul_of(g_alg, lift[q], sub[i]),
                                     inv_of(g_alg, lift[q]))]
                      for i in range(len(sub)))
                for q in range(q_alg.size))
    if not is_action(k_group, q_alg, phi):
        report["holds"] = False
        report["parts"]["conjugation action"] = "not an action"
        return report
    semi = semidirect_extension(k_group, q_alg, phi, name="KxQ")
    sigma, _ = _blocks_onto(pairalg, d_aa, semi, lambda x, y: k_index[
        mul_of(g_alg, y, inv_of(g_alg, x))] * q_alg.size + proj[x])
    report["parts"]["sigma onto semidirect product"] = sigma is not None

    # (b) G(aK)/Delta_{aK 1} ~= K/[K,G] via [x//y] -> y x^-1 [K,G]
    from .congruences import delta as delta_fn
    d_a1 = delta_fn(g_alg, alpha, Congruence.all(g_alg.size), cap=cap, pairalg=pairalg)
    kg = commutator_subgroup(g_alg, sub, list(range(g_alg.size)))
    # quotient K/[K,G] computed inside K
    kg_in_k = [k_index[x] for x in kg]
    kq_group, kproj = quotient_group(k_group, sorted(kg_in_k), name="K/[K,G]")
    psi2, class_of_a1 = _blocks_onto(pairalg, d_a1, kq_group, lambda x, y: kproj[
        k_index[mul_of(g_alg, y, inv_of(g_alg, x))]])
    report["parts"]["K/[K,G] quotient"] = psi2 is not None

    # (c) central K: extracted transfer equals the classical cocycle
    if set(sub) <= set(center(g_alg)):
        ok3 = True
        for q1 in range(q_alg.size):
            for q2 in range(q_alg.size):
                top = lift[mul_of(q_alg, q1, q2)]
                bot = mul_of(g_alg, lift[q1], lift[q2])
                ci = class_of_a1[pairalg.pair_index[(top, bot)]]
                classical = kproj[k_index[mul_of(g_alg, bot, inv_of(g_alg, top))]]
                if psi2 is None or psi2[ci] != classical:
                    ok3 = False
        report["parts"]["transfer matches l(x)l(y)l(xy)^-1"] = ok3
    report["holds"] = all(bool(v) for v in report["parts"].values())
    if not report["holds"]:
        report["witness"] = report["parts"]
    return report
