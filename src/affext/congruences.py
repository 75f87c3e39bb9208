"""Congruences, the pair algebra A(alpha), M(alpha,beta) and Delta_{alpha beta}."""

from functools import lru_cache
from itertools import chain

from .algebras import (AlgebraError, CapExceeded, FiniteAlgebra, closure,
                       congruence_violation, DEFAULT_CAP)


class Congruence:
    """Partition of {0..n-1} normalized to least-representative form."""

    __slots__ = ("n", "rep")

    def __init__(self, n, rep):
        """rep[x] labels x's block; the labels are normalized to each block's
        least member, so equal partitions are equal."""
        key = {}
        self.n = n
        self.rep = tuple([key.setdefault(r, x) for x, r in enumerate(rep)])

    @classmethod
    def from_blocks(cls, n, blocks):
        rep = list(range(n))
        seen = set()
        for i, block in enumerate(blocks):
            if not block:
                raise AlgebraError("empty block")
            for x in block:
                # bool is an int subclass, so check the type exactly
                if type(x) is not int:
                    raise AlgebraError("element %r is not an integer" % (x,))
                if not 0 <= x < n:
                    raise AlgebraError("element %r outside 0..%d" % (x, n - 1))
                if x in seen:
                    raise AlgebraError("element %d in two blocks" % x)
                seen.add(x)
                rep[x] = n + i  # no element's label
        return cls(n, rep)

    @classmethod
    @lru_cache(maxsize=None)
    def equality(cls, n):
        """The least congruence, one shared instance per n: nothing changes
        a Congruence after construction, and results such as trivial
        commutators then share it."""
        return cls(n, range(n))

    @classmethod
    def all(cls, n):
        return cls(n, [0] * n)

    def blocks(self):
        by_rep = {}
        for x in range(self.n):
            by_rep.setdefault(self.rep[x], []).append(x)
        return [sorted(by_rep[r]) for r in sorted(by_rep)]

    def related(self, a, b):
        return self.rep[a] == self.rep[b]

    def pairs(self):
        return [(a, b) for a in range(self.n) for b in range(self.n)
                if self.rep[a] == self.rep[b]]

    def is_equality(self):
        return all(self.rep[x] == x for x in range(self.n))

    def is_all(self):
        return all(r == 0 for r in self.rep)

    def block_count(self):
        return len(set(self.rep))

    def meet(self, other):
        return kernel_of_map(list(zip(self.rep, other.rep)), self.n)

    def join(self, other):
        return equivalence_from_pairs(self.n, chain(enumerate(self.rep),
                                                    enumerate(other.rep)))

    def le(self, other):
        return self.meet(other) == self

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return "Congruence(%r)" % (self.blocks(),)


def equivalence_from_pairs(n, pairs):
    """The least equivalence relation on {0..n-1} holding pairs, joined
    by cg's quick-find merge."""
    label, members = list(range(n)), [[x] for x in range(n)]
    _merge(label, members, [], pairs)
    return Congruence(n, label)


def cg(alg, pairs):
    """Congruence of alg generated by pairs.

    Single-displacement closure: whenever two classes merge through (a, b),
    every operation is read with one argument at a and at b over all
    contexts, and the distinct pairs of results are joined, until stable.
    With the argument at position i of an arity-k table, the contexts form
    one slice per prefix of stride s = n**(k-1-i); the last position is the
    single strided slice tab[a::n].

    Classes are quick-find labels with member lists (the smaller class is
    relabelled), so a slice whose two sides already carry equal labels is
    skipped by one list comparison before any pair of it is walked.
    """
    n = alg.size
    label = list(range(n))
    members = [[x] for x in range(n)]
    queue = []
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise AlgebraError("pair (%d,%d) outside universe" % (a, b))
        _merge(label, members, queue, ((a, b),))
    tabs = [(alg.tables[sym], ar) for sym, ar in alg.signature.symbols if ar >= 1]
    get = label.__getitem__
    while queue:
        a, b = queue.pop()
        for tab, ar in tabs:
            for xs, ys in _translation_slices(tab, ar, n, a, b):
                if list(map(get, xs)) != list(map(get, ys)):
                    _merge(label, members, queue, zip(xs, ys))
    return Congruence(n, label)


def _merge(label, members, queue, pairs):
    """Join the classes of each pair, queueing the pairs that merged two."""
    for x, y in pairs:
        lx, ly = label[x], label[y]
        if lx == ly:
            continue
        if len(members[lx]) < len(members[ly]):
            lx, ly = ly, lx
        moved = members[ly]
        for z in moved:
            label[z] = lx
        members[lx] += moved
        members[ly] = None
        queue.append((x, y))


def _translation_slices(tab, ar, n, a, b):
    """The (values at a, values at b) slices of one table, one per argument
    position and prefix."""
    yield tab[a::n], tab[b::n]
    for i in range(ar - 1):
        s = n ** (ar - 1 - i)
        sa, sb = a * s, b * s
        for p in range(0, len(tab), n * s):
            yield tab[p + sa:p + sa + s], tab[p + sb:p + sb + s]


def kernel_of_map(mapping, n):
    """ker of mapping given as list of length n (not checked for compatibility)."""
    return Congruence(n, mapping)


def all_congruences(alg, cap=DEFAULT_CAP):
    """Every congruence of alg, sorted by rep: the equality closed under
    joins with the principal congruences Cg(a,b).  That is all of Con A,
    as each theta is the join of the Cg(a,b) with a theta b, and joins in
    Con A are joins of equivalence relations.  The joins of each round,
    |frontier| * |principals|, are held to cap before the round runs."""
    n = alg.size
    principals = {cg(alg, [(a, b)]) for a in range(n) for b in range(a + 1, n)}
    found = frontier = {Congruence.equality(n)}
    while frontier:
        joins = len(frontier) * len(principals)
        if joins > cap:
            raise CapExceeded("all_congruences", joins, cap,
                              "{stage}: {size} joins exceed cap {cap}")
        frontier = {c.join(p) for c in frontier for p in principals} - found
        found |= frontier
    return sorted(found, key=lambda c: c.rep)


class PairAlgebra(FiniteAlgebra):
    """alpha as a subalgebra of alg x alg, built by pair_algebra(); element
    i is self.pairs[i].

    Pairs are ordered lexicographically, which fixes all downstream class
    indexings.
    """

    def projection_kernel(self, coord):
        return kernel_of_map([p[coord] for p in self.pairs], self.size)

    def preimage(self, cong, coord):
        """p_coord^{-1}(cong) as a congruence on the pair universe."""
        return kernel_of_map([cong.rep[p[coord]] for p in self.pairs], self.size)


def pair_algebra(alg, alpha, cap=DEFAULT_CAP):
    pairs = _checked_pairs(alg, alpha, cap)
    name = "%s(alpha)" % alg.name if alg.name else None
    pa = PairAlgebra.subpower(alg, pairs, name=name)
    pa.base, pa.alpha, pa.pairs = alg, alpha, pairs
    pa.pair_index = {p: i for i, p in enumerate(pairs)}
    return pa


def _checked_pairs(alg, alpha, cap):
    """The alpha-pairs, once alpha is a congruence and A(alpha) fits cap."""
    witness = congruence_violation(alg, alpha)
    if witness is not None:
        raise AlgebraError("alpha is not a congruence: %s" % (witness,))
    pairs = alpha.pairs()
    P = len(pairs)
    max_ar = max((ar for _, ar in alg.signature.symbols), default=0)
    if P ** max(max_ar, 1) > cap:
        raise CapExceeded("pair_algebra", P, cap,
                          "pair algebra of size {size} exceeds cap {cap}")
    return pairs


def hat_alpha(pairalg):
    """[x//y] related to [u//v] iff all four coordinates share an alpha block."""
    return pairalg.preimage(pairalg.alpha, 0)


def m_matrices(alg, alpha, beta, cap=DEFAULT_CAP, pairalg=None):
    """M(alpha,beta): subalgebra of alg^4 generated by the alpha-column and
    beta-row matrices.

    A matrix [[q1,q2],[q3,q4]] is encoded as the quadruple (q1,q2,q3,q4);
    its rows (q1,q2),(q3,q4) are beta-pairs and its columns (q1,q3),(q2,q4)
    are alpha-pairs.  The generators (x,x,y,y), x alpha y, and (u,v,u,v),
    u beta v, are closed in alg**4; returns the set of quadruples.  A given
    pairalg = A(alpha) vouches for alpha, else alpha and the pair_algebra
    cap are checked here; then the P * P quadruples are held to cap.
    """
    pairs = pairalg.pairs if pairalg is not None else _checked_pairs(alg, alpha, cap)
    P = len(pairs)
    if P * P > cap:
        raise CapExceeded("m_matrices", P * P, cap,
                          "M(alpha,beta) universe {size} exceeds cap {cap}")
    gens = [(x, x, y, y) for x, y in pairs]
    gens += [(u, v, u, v) for u, v in beta.pairs()]
    return set(closure(alg, 4, gens))


def delta(alg, alpha, beta, cap=DEFAULT_CAP, pairalg=None, matrices=None):
    """Delta_{alpha beta} on A(alpha), computed two independent ways.

    (1) the congruence of A(alpha) generated by {((u,u),(v,v)) : u beta v}
        (delta_by_cg);
    (2) the transitive closure of M(alpha,beta) read as a relation joining
        the two columns of each matrix.  The columns (q1,q3) and (q2,q4)
        are read as pair codes a*n + b through one list of length n**2
        that holds each alpha-pair's index in A(alpha), and joined by
        cg's quick-find merge.
    Both must agree; the common congruence is returned.
    """
    if pairalg is None:
        pairalg = pair_algebra(alg, alpha, cap=cap)
    via_cg = delta_by_cg(pairalg, beta)
    if matrices is None:
        matrices = m_matrices(alg, alpha, beta, cap=cap, pairalg=pairalg)
    n = alg.size
    where = [None] * (n * n)
    for i, (a, b) in enumerate(pairalg.pairs):
        where[a * n + b] = i
    columns = ((where[a * n + c], where[b * n + d]) for a, b, c, d in matrices)
    if via_cg != equivalence_from_pairs(pairalg.size, columns):
        raise AlgebraError("Delta computed by Cg and by Tr M disagree")
    return via_cg


def delta_by_cg(pairalg, beta):
    """The Cg half of delta(): the congruence of A(alpha) generated by
    {((u,u),(v,v)) : u beta v}, from one generator ((r,r),(v,v)) per v
    with r = beta.rep[v], the least member of v's block, r != v: by
    transitivity the same congruence, from at most n - 1 generators."""
    index = pairalg.pair_index
    return cg(pairalg, [(index[(r, r)], index[(v, v)])
                        for v, r in enumerate(beta.rep) if r != v])


def delta_with_pair_algebra(alg, alpha, beta, cap=DEFAULT_CAP):
    pairalg = pair_algebra(alg, alpha, cap=cap)
    return pairalg, delta(alg, alpha, beta, cap=cap, pairalg=pairalg)
