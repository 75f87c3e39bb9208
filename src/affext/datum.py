"""Affine datum: the partial structure on Delta-classes, unary actions,
extraction from an extension with abelian kernel, and axiom validation."""

from itertools import chain, product
from math import prod
from operator import mul

from .algebras import (AlgebraError, FiniteAlgebra, Signature, congruence_violation,
                       is_homomorphism, satisfies, tuple_decode, DEFAULT_CAP)
from .commutator import (_translations_agree, is_abelian, is_malcev_on_blocks,
                         tc_commutator, verify_ternary_abelian_group_on_blocks)
from .congruences import (Congruence, delta_by_cg, kernel_of_map, m_matrices,
                          pair_algebra, delta as delta_congruence)
from .terms import eval_term, is_var, term_table, term_vars, TermError


class DatumError(AlgebraError):
    pass


def _layout(ar, nq, size, i=None):
    """The nested index ranges (outermost first) and the stride of each
    argument position 1..ar in the flat table of f-delta (i None) or of
    a(sym,i): f-delta nests [c1][q2]...[qk], a(sym,i) [the Q values at the
    other positions, in order]...[c]."""
    order = [p for p in range(1, ar + 1) if p != i] + ([i] if i else [])
    dims = [size if p == (i or 1) else nq for p in order]
    strides, step = [0] * ar, 1
    for p, n in zip(order[::-1], dims[::-1]):
        strides[p - 1], step = step, step * n
    return dims, tuple(strides)


def _level_codes(levels):
    """sum_p levels[p][x_p] for every tuple x, in product order."""
    codes = [0]
    for level in levels:
        codes = [s + c for s in codes for c in level]
    return codes


def _column(tab, strides, k, qs, size):
    """A flat datum table's size entries along position k, the others at qs."""
    start, step = sum(map(mul, strides, (*qs[:k - 1], 0, *qs[k:]))), strides[k - 1]
    return tab[start:start + step * size:step]


def _flat_ternary(seq, n):
    """A ternary table, nested or flat, as a flat tuple of n**3 entries."""
    if len(seq) and isinstance(seq[0], (list, tuple)):
        from .algebras import _flatten
        return _flatten(seq, 3, n)
    flat = tuple(seq)
    if len(flat) != n ** 3:
        raise DatumError("ternary table has %d entries, expected %d" % (len(flat), n ** 3))
    return flat


class DeltaClasses:
    """The universe A(alpha)/Delta with its bookkeeping maps.

    Pairs are the alpha-related pairs in lexicographic order; classes are
    indexed by their least pair, in pair order.  rho is given at pair level
    and must factor through the classes.
    """

    def __init__(self, asize, m_flat, pairs, delta_cong, rho_pair):
        self.asize = asize
        self.m_flat = m_flat
        self.pairs = list(pairs)
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        self.delta_cong = delta_cong
        blocks = delta_cong.blocks()
        blocks.sort(key=lambda b: b[0])
        self.classes = blocks
        self.size = len(blocks)
        self.class_of = [0] * len(self.pairs)
        for ci, block in enumerate(blocks):
            for p in block:
                self.class_of[p] = ci
        self.code_class = [None] * (asize * asize)  # at a*asize + b, None off alpha
        for (a, b), ci in zip(self.pairs, self.class_of):
            self.code_class[a * asize + b] = ci
        self.class_reps = [self.pairs[block[0]] for block in blocks]
        self.delta_of = [self.class_of[self.pair_index[(a, a)]] for a in range(asize)]
        self.rho_class = []
        for ci, block in enumerate(blocks):
            vals = {rho_pair[p] for p in block}
            if len(vals) != 1:
                raise DatumError("rho does not factor through Delta-classes")
            self.rho_class.append(vals.pop())
        self.fibers = {}
        for ci, q in enumerate(self.rho_class):
            self.fibers.setdefault(q, []).append(ci)
        self._m = None  # m_table()'s memo

    def m_elem(self, a, b, c):
        n = self.asize
        return self.m_flat[(a * n + b) * n + c]

    def class_of_pair(self, a, b):
        return self.class_of[self.pair_index[(a, b)]]

    def m_table(self):
        """m rowwise on the class representatives, a flat list with slot
        (x*size + y)*size + z (None where the results are no alpha-pair),
        built on first use a row of z at a time from two rows of m_flat."""
        if self._m is None:
            n, code, m_flat = self.asize, self.code_class, self.m_flat
            tops, bots = map(list, zip(*self.class_reps))
            table = []
            for a1, b1 in self.class_reps:
                for a2, b2 in zip(tops, bots):
                    t, u = (a1 * n + a2) * n, (b1 * n + b2) * n
                    top, bot = m_flat[t:t + n], m_flat[u:u + n]
                    table += [code[x * n + y] for x, y in
                              zip(map(top.__getitem__, tops), map(bot.__getitem__, bots))]
            self._m = table
        return self._m

    def m_class(self, x, y, z):
        """Slot (x*size + y)*size + z of m_table(); KeyError where it is
        None, as the two results are then no alpha-pair."""
        v = (self._m or self.m_table())[(x * self.size + y) * self.size + z]
        if v is None:
            raise KeyError((x, y, z))
        return v

    def is_diagonal(self, c):
        a, b = self.class_reps[c]
        return self.delta_of[a] == c


class AffineDatum:
    """(Q, partial structure on A, unary action) plus its lifting.

    The tables are the datum file's nested tables flattened.  fdelta[f]
    holds f-delta(c1, q2, ..., qk) at c1*|Q|^(k-1) + code(q2..qk), code the
    base-|Q| code (a diagonal delta(x) depends only on x/alpha); a nullary
    f has fdelta[f][0].  actions[f, i] holds a(f,i) with Q values qrest at
    the other positions at code(qrest)*|classes| + c.  layouts[key], for
    key f or (f, i), is the nested dims and the argument strides of that
    table (_layout).  Reading a None entry, a missing one, raises KeyError.
    """

    def __init__(self, q_alg, mq_flat, asize, m_flat, alpha, dc, lifting,
                 fdelta, actions, name=None):
        self.q_alg = q_alg
        self.signature = q_alg.signature
        self.mq_flat = tuple(mq_flat)
        self.asize = asize
        self.m_flat = tuple(m_flat)
        self.alpha = alpha
        self.dc = dc
        self.lifting = tuple(lifting)
        self.fdelta = fdelta
        self.actions = actions
        arity, nq, size = self.signature.arity, q_alg.size, dc.size
        self.layouts = {sym: _layout(arity(sym), nq, size) for sym in fdelta}
        self.layouts.update({(sym, i): _layout(arity(sym), nq, size, i) for sym, i in actions})
        self.name = name
        self._b2 = None  # coboundary_group's memo: (B2, coboundary table)
        self._fiber_tables = None  # fiber_tables()'s memo
        self._delta_kernel = None  # cohomology._delta_kernel's memo
        self._fiber_bases = None  # _linear.fiber_bases's memo
        self._cells = None  # cells()'s memo
        self._index = None  # cell_index()'s memo
        self._bases = None  # cell_bases()'s memo
        self._cell_fibers = None  # cell_fibers()'s memo
        self._sums = None  # sum_table()'s memo

    # --- basic maps -----------------------------------------------------
    def qsize(self):
        return self.q_alg.size

    def pi_of(self, a):
        """Canonical A -> Q map (rho composed with the diagonal)."""
        return self.dc.rho_class[self.dc.delta_of[a]]

    def delta_l(self, q):
        return self.dc.delta_of[self.lifting[q]]

    def fiber(self, q):
        return self.dc.fibers[q]

    # --- fiber group operations -----------------------------------------
    def plus_at(self, q, x, y):
        """x +_u y with u = l(q); arguments must share the fiber over q."""
        return self.dc.m_class(x, self.delta_l(q), y)

    def neg_at(self, q, x):
        ident = self.delta_l(q)
        return self.dc.m_class(ident, x, ident)

    def sum_at(self, q, values):
        acc = self.delta_l(q)
        for v in values:
            acc = self.dc.m_class(acc, self.delta_l(q), v)
        return acc

    def fiber_tables(self):
        """Per q, the fiber group (classes over q, +_{l(q)}) as a flat table:
        entry x*size+y is x +_{l(q)} y for x, y in the fiber and None off it.

        Each fiber is checked to be an abelian group with zero delta(l(q)),
        so sums of cochains that are looked up cell by cell in these tables
        live in a product of abelian groups.  Built once per datum.
        """
        if self._fiber_tables is not None:
            return self._fiber_tables
        size = self.dc.size
        tables = []
        for q in range(self.qsize()):
            fib = self.fiber(q)
            zero = self.delta_l(q)
            if zero not in fib:
                raise DatumError("delta(l(%d)) is not in the fiber over %d" % (q, q))
            plus = {(x, y): self.plus_at(q, x, y) for x in fib for y in fib}
            if any(s not in fib for s in plus.values()):
                raise DatumError("fiber over %d is not closed under +" % q)
            for x in fib:
                if plus[x, zero] != x:
                    raise DatumError("delta(l(%d)) is not a zero of its fiber" % q)
                if sum(1 for y in fib if plus[x, y] == zero) != 1:
                    raise DatumError("no unique inverse in the fiber over %d" % q)
                for y in fib:
                    if plus[x, y] != plus[y, x]:
                        raise DatumError("fiber over %d is not commutative" % q)
                    for z in fib:
                        if plus[plus[x, y], z] != plus[x, plus[y, z]]:
                            raise DatumError("fiber over %d is not associative" % q)
            tab = [None] * (size * size)
            for (x, y), s in plus.items():
                tab[x * size + y] = s
            tables.append(tuple(tab))
        self._fiber_tables = tables
        return tables

    # --- structure applications ------------------------------------------
    def fdelta_apply(self, sym, c, qrest):
        v = self.fdelta[sym][sum(map(mul, self.layouts[sym][1], (c, *qrest)))]
        if v is None:
            raise KeyError((sym, c, *qrest))
        return v

    def action_apply(self, sym, i, qrest, c):
        """Unary action a(sym,i) with Q values qrest at the other positions."""
        v = self.actions[sym, i][sum(map(mul, self.layouts[sym, i][1],
                                         (*qrest[:i - 1], c, *qrest[i - 1:])))]
        if v is None:
            raise KeyError((sym, i, *qrest, c))
        return v

    def _table(self, sym, k):
        """The flat table of f-delta (k = 1) or a(sym,k) and its argument
        strides."""
        if k == 1:
            return self.fdelta[sym], self.layouts[sym][1]
        return self.actions[sym, k], self.layouts[sym, k][1]

    def terms(self, sym, k, at, qs):
        """f-delta (k = 1) or a(sym,k) at every tuple x in product order, as
        a list, position k holding the class at[x_k] and each other p the Q
        value qs[x_p]: index codes built a position at a time."""
        tab, strides = self._table(sym, k)
        return list(map(tab.__getitem__, _level_codes(
            [[x * step for x in (at if p == k else qs)] for p, step in enumerate(strides, 1)])))

    def wrap(self, sym, k, qs):
        """c -> f-delta (k = 1) or a(sym,k) at c in position k, the others
        over qs (qs[k-1] unread): a slice of the flat table; KeyError when
        an entry is missing."""
        img = _column(*self._table(sym, k), k, qs, self.dc.size)
        if None in img:
            raise KeyError((sym, k, *qs))
        return img

    def trivial_cocycle(self):
        """The zero 2-cochain: delta(l(f^Q(qs))) at each cell."""
        return tuple(map(self.delta_l, self.cell_bases()))

    def cells(self):
        """All 2-cocycle cells in the documented deterministic order, as a
        tuple listed once per datum.  A 2-cochain is a tuple with one
        Delta-class per cell, in this order."""
        if self._cells is None:
            self._cells = tuple((sym, qs) for sym, ar in self.signature.symbols
                                for qs in product(range(self.qsize()), repeat=ar))
        return self._cells

    def cell_index(self, sym, qs):
        """The index of the cell (sym, qs) in cells()."""
        if self._index is None:
            self._index = {cell: i for i, cell in enumerate(self.cells())}
        return self._index[sym, qs]

    def cell_fiber(self, sym, qs):
        """The hat-alpha/Delta block (fiber) a cocycle value at this cell must
        lie in, per (C1)."""
        ar = self.signature.arity(sym)
        if ar == 0:
            base = self.fdelta[sym][0]
        else:
            c1 = self.fiber(qs[0])[0]
            base = self.fdelta_apply(sym, c1, qs[1:])
        return self.dc.rho_class[base]

    def cell_fibers(self):
        """cell_fiber of every cell, in cells() order, listed once per datum."""
        if self._cell_fibers is None:
            self._cell_fibers = tuple(self.cell_fiber(*cell) for cell in self.cells())
        return self._cell_fibers

    def cell_bases(self):
        """f^Q(qs) for each cell (f, qs), in cells() order, listed once per
        datum."""
        if self._bases is None:
            self._bases = tuple(self.q_alg.apply(sym, qs) for sym, qs in self.cells())
        return self._bases

    def sum_table(self):
        """The datum's SumTable, built on first use."""
        if self._sums is None:
            self._sums = SumTable(self)
        return self._sums

    def eval_q(self, term, qenv):
        return eval_term(self.q_alg, term, qenv)


class SumTable:
    """The transfer-free sums of a datum, the reconstructed operations
    without the cocycle: per symbol, one flat table over tuples cs of
    Delta-classes in the term-table layout.  The value at cs is f-delta of
    c1, then the action at each position 2..k, added left-associated
    through m_class at zero delta(l(f^Q(rho(cs)))); a nullary c has
    delta(l(c^Q)).  offsets[sym][i] is the slot of m(value, zero, 0) in
    dc.m_table() and cells[sym][i] the index in cells() of the cell over
    rho(cs), so a cocycle value t there is added by reading slot
    offsets[sym][i] + t.  When a sum meets a missing entry or no class,
    failure is (sym, KeyError) and the tables stop at that entry, where an
    entry-by-entry loop would raise.

    The datum is fibered when no sum raised and every value is a class
    over f^Q(rho(cs)); algebra is then the tables as a FiniteAlgebra on the
    classes, and None otherwise.  On a fibered datum a term's table in
    algebra is its transfer-free sum with Q tracked: by induction on the
    term, each subterm's value lies over the subterm's value in Q, so rho
    of the arguments is what tracking Q would give.  (D4) makes every
    datum that extract_datum builds fibered.
    """

    def __init__(self, d):
        dc, size, nq = d.dc, d.dc.size, d.qsize()
        rho, table, classes = dc.rho_class, dc.m_table(), range(dc.size)
        zero_of = [d.delta_l(q) for q in range(nq)]
        tables, self.offsets, self.cells = {}, {}, {}
        self.failure, self.algebra, fibered = None, None, True
        for sym, ar in d.signature.symbols:
            codes = _level_codes([[q * nq ** (ar - p) for q in rho] for p in range(1, ar + 1)])
            over = list(map(d.q_alg.tables[sym].__getitem__, codes))
            zeros = list(map(zero_of.__getitem__, over))
            vals = d.terms(sym, 1, classes, rho) if ar else zeros
            for k in range(2, ar + 1):
                vals = [None if v is None or t is None else table[(v * size + z) * size + t]
                        for v, z, t in zip(vals, zeros, d.terms(sym, k, classes, rho))]
            end = vals.index(None) if None in vals else len(vals)
            first = d.cell_index(sym, (0,) * ar)  # a symbol's cells are contiguous
            tables[sym], self.cells[sym] = vals[:end], [first + c for c in codes[:end]]
            self.offsets[sym] = [(v * size + z) * size for v, z in zip(vals[:end], zeros)]
            if end < len(vals):
                self.failure = sym, KeyError("no sum at entry %d of %s" % (end, sym))
                return
            fibered = fibered and [rho[v] for v in vals] == over
        if fibered:
            self.algebra = FiniteAlgebra(size, d.signature, {
                sym: tuple(vals) for sym, vals in tables.items()}, name="sums")


class ExtensionRecord:
    """A surjective homomorphism pi: B -> Q with its kernel and lifting."""

    def __init__(self, alg, pi, q_alg, m_flat, lifting=None, name=None, datum=None):
        self.alg = alg
        self.pi = tuple(pi)
        self.q_alg = q_alg
        self.m_flat = tuple(m_flat) if m_flat is not None else None
        self.name = name or alg.name
        self.datum = datum
        # stabilizing_isomorphism's search plans, keyed by the target pi;
        # they read only alg, pi and m_flat, which nothing changes later
        self._gamma_plans = {}
        if len(self.pi) != alg.size:
            raise DatumError("pi must assign every element of B")
        if set(self.pi) != set(range(q_alg.size)):
            raise DatumError("pi is not surjective")
        if not is_homomorphism(list(self.pi), alg, q_alg):
            raise DatumError("pi is not a homomorphism")
        self.beta = kernel_of_map(self.pi, alg.size)
        if lifting is None:
            lifting = [min(x for x in range(alg.size) if self.pi[x] == q)
                       for q in range(q_alg.size)]
        self.lifting = tuple(lifting)
        for q in range(q_alg.size):
            if self.pi[self.lifting[q]] != q:
                raise DatumError("lifting is not a section of pi")

    def trace(self, x):
        return self.lifting[self.pi[x]]

    def m_elem(self, a, b, c):
        n = self.alg.size
        return self.m_flat[(a * n + b) * n + c]

    @classmethod
    def from_kernel(cls, alg, beta, m_term_or_table, lifting=None, name=None):
        """Extension B -> B/beta with m given as a term or a raw ternary table."""
        from .algebras import quotient_algebra
        q_alg, blockmap = quotient_algebra(alg, beta)
        if isinstance(m_term_or_table, (str, tuple)) and not (
                isinstance(m_term_or_table, tuple) and m_term_or_table
                and isinstance(m_term_or_table[0], int)):
            term = m_term_or_table
            if isinstance(term, str):
                from .terms import parse_term
                term = parse_term(term)
            m_flat = term_table(alg, term, ("x0", "x1", "x2"))
        else:
            m_flat = _flat_ternary(m_term_or_table, alg.size)
        return cls(alg, blockmap, q_alg, m_flat, lifting=lifting, name=name)


def group_extension(alg, kernel_block, lifting=None, name=None):
    """Extension of a group algebra by the congruence of a normal subgroup,
    with the group difference term."""
    from .groups import congruence_of_subgroup
    from .terms import GROUP_DIFFERENCE_TERM
    beta = congruence_of_subgroup(alg, kernel_block)
    return ExtensionRecord.from_kernel(alg, beta, GROUP_DIFFERENCE_TERM,
                                       lifting=lifting, name=name)


def extract_datum(ext, cap=DEFAULT_CAP):
    """Decompose an extension with abelian kernel into affine datum and its
    2-cocycle.

    Requires the kernel abelian and m Mal'cev on kernel blocks.  The Delta
    congruence is computed in the full signature and cross-checked against
    the rule (a,b) ~ (c,d) iff d = m(b,a,c); representative independence of
    every extracted table is asserted, not assumed.
    """
    alg, beta, pi = ext.alg, ext.beta, ext.pi
    if ext.m_flat is None:
        raise DatumError("extension carries no ternary operation")
    # with no ternary operation is_abelian takes its tc route, whose
    # M(beta,beta) then serves Delta as well
    pairalg = matrices = None
    if not any(ar == 3 for _, ar in alg.signature.symbols):
        pairalg = pair_algebra(alg, beta, cap=cap)
        matrices = m_matrices(alg, beta, beta, cap=cap, pairalg=pairalg)
    if not (is_abelian(alg, beta, cap=cap) if matrices is None
            else tc_commutator(alg, beta, beta, cap=cap, matrices=matrices).is_equality()):
        raise DatumError("kernel congruence is not abelian")
    blocks = beta.blocks()
    if not verify_ternary_abelian_group_on_blocks(ext.m_elem, blocks):
        raise DatumError("m is not a ternary abelian group operation on kernel blocks")

    pairalg = pairalg or pair_algebra(alg, beta, cap=cap)
    d_bb = delta_congruence(alg, beta, beta, cap=cap, pairalg=pairalg, matrices=matrices)
    if m_rule_delta(beta, pairalg.pairs, ext.m_elem) != d_bb:
        # (AD1) holds, so the keyed partition is the pairwise rule; name
        # the first pair of pairs where it and Delta part
        for i, (a, b) in enumerate(pairalg.pairs):
            for j, (c, d) in enumerate(pairalg.pairs):
                rule = beta.related(a, c) and d == ext.m_elem(b, a, c)
                if rule != d_bb.related(i, j):
                    raise DatumError(
                        "Delta disagrees with the m-rule at %r,%r" % ((a, b), (c, d)))

    rho_pair = [pi[p[0]] for p in pairalg.pairs]
    dc = DeltaClasses(alg.size, ext.m_flat, pairalg.pairs, d_bb, rho_pair)
    q_alg = ext.q_alg
    nq = q_alg.size
    lifting = ext.lifting

    mq_flat = tuple(pi[ext.m_elem(lifting[a], lifting[b], lifting[c])]
                    for a, b, c in product(range(nq), repeat=3))

    # f-delta over every member of the other arguments' blocks, each action
    # a(f,i) at their lifting
    fdelta, actions, n = {}, {}, alg.size
    for sym, ar in q_alg.signature.symbols:
        tab = alg.tables[sym]
        if ar == 0:
            fdelta[sym] = (dc.class_of_pair(tab[0], tab[0]),)
            continue
        fdelta[sym] = _sweep(dc, tab, ar, 1, product(range(n), repeat=ar - 1), pi,
                             _layout(ar, nq, dc.size),
                             "f-delta for %r depends on representatives" % sym)
        if ar < 2:
            continue
        lifted = [tuple(map(lifting.__getitem__, qs))
                  for qs in product(range(nq), repeat=ar - 1)]
        for i in range(1, ar + 1):
            actions[sym, i] = _sweep(dc, tab, ar, i, lifted, pi,
                                     _layout(ar, nq, dc.size, i),
                                     "action (%s,%d) depends on representatives"
                                     % (sym, i))

    datum = AffineDatum(q_alg, mq_flat, alg.size, ext.m_flat, beta, dc,
                        lifting, fdelta, actions,
                        name="datum(%s)" % (ext.name or alg.name))
    ext.datum = datum

    fxs = (alg.apply(sym, tuple(lifting[q] for q in qs)) for sym, qs in datum.cells())
    return datum, tuple(dc.class_of_pair(ext.trace(fx), fx) for fx in fxs)


def _sweep(dc, tab, ar, i, others, pi, layout, error):
    """The flat table of the classes of (f(.., a, ..), f(.., b, ..)), a and b
    at position i and xs in others elsewhere, over the alpha-pairs (a, b):
    one pair-code lookup per entry of a column of tab.  Class c goes to the
    slot of pi(xs) with c at i in the table of that _layout, where all must
    agree."""
    (dims, strides), n, code = layout, dc.asize, dc.code_class
    step, rest = strides[i - 1], strides[:i - 1] + strides[i:]
    stride, out = n ** (ar - i), [None] * prod(dims)
    for xs in others:
        start = sum(x * n ** (ar - p) for p, x in enumerate((*xs[:i - 1], 0, *xs[i - 1:]), 1))
        col = tab[start:start + n * stride:stride]
        q = sum(map(mul, rest, map(pi.__getitem__, xs)))
        for (a, b), c in zip(dc.pairs, dc.class_of):
            v, s = code[col[a] * n + col[b]], c * step + q
            if out[s] is None:
                out[s] = v
            elif out[s] != v:
                raise DatumError(error)
    return tuple(out)


# --- validation ----------------------------------------------------------

def _additive_break(dc, img, fib, du, zero, missing):
    """The first (a, b) in fib x fib where img[a + b] != img[a] + img[b], + read
    in m_table() at du and at zero, or None.  Only a fiber that fails as a whole
    is walked, to name the pair or raise the KeyError (missing(c) for a missing
    img[c]) an entry-by-entry check meets first."""
    table, size = dc.m_table(), dc.size
    sums = [table[(a * size + du) * size + b] for a in fib for b in fib]
    cols = [img[b] for b in fib]
    if None not in img and None not in sums and list(map(img.__getitem__, sums)) == [
            table[(x * size + zero) * size + y] for x in cols for y in cols]:
        return None
    for (a, b), s in zip(product(fib, repeat=2), sums):
        if s is None:
            raise KeyError((a, du, b))
        for c in (s, a, b):
            if img[c] is None:
                raise missing(c)
        if (r := table[(img[a] * size + zero) * size + img[b]]) is None:
            raise KeyError((img[a], zero, img[b]))
        if img[s] != r:
            return a, b


def validate_datum(d, cap=DEFAULT_CAP):
    """Exhaustively check (D1)-(D4) and (AD1)-(AD2); returns a report list.

    Each entry is {"claim", "holds", "witness"}; the report never raises.
    Each check compares whole flat tables, columns or fiber slices; only where
    they part does a walk (the Delta rule's over pairs of pairs) name the
    failure an entry-by-entry check meets first.
    """
    report = []

    def add(claim, holds, witness=None):
        report.append({"claim": claim, "holds": bool(holds),
                       "witness": None if holds else witness})

    def guarded(claim, fn):  # fn returns the witness, None when the claim holds
        try:
            witness = fn()
        except Exception as exc:  # broken tables surface as failed claims, never raised
            witness = "check raised: %s" % exc
        add(claim, witness is None, witness)

    n, nq, dc, q_alg = d.asize, d.qsize(), d.dc, d.q_alg
    size, rho, m = dc.size, dc.rho_class, dc.m_elem

    # m-algebra and alpha; is_abelian reuses the congruence and (AD1) checks
    m_alg = FiniteAlgebra(n, _M_SIGNATURE, {"m": d.m_flat}, name="<A,m>")
    w = congruence_violation(m_alg, d.alpha)
    blocks = d.alpha.blocks()
    try:
        ad1, ad1_witness = verify_ternary_abelian_group_on_blocks(m, blocks), None
    except AlgebraError as exc:
        ad1, ad1_witness = False, str(exc)
    add("alpha is a congruence of <A,m>", w is None, w)
    if w is None:
        add("alpha is abelian in <A,m>",
            ad1 and _translations_agree(m_alg, d.alpha, d.m_flat, cap)
            if is_malcev_on_blocks(m, blocks) else is_abelian(m_alg, d.alpha, cap=cap))
    add("(AD1) m is a ternary abelian group operation on alpha-blocks", ad1, ad1_witness)

    # D3: rho and the idempotent interpretation of m in Q
    add("(D3) m idempotent in Q", list(d.mq_flat[::nq * nq + nq + 1]) == list(range(nq)))
    surj = set(rho) == set(range(nq))
    add("(D3) rho surjective", surj)

    def check_d3_hom():
        got = [None if v is None else rho[v] for v in dc.m_table()]
        want = list(map(d.mq_flat.__getitem__, _level_codes(
            [[r * nq * nq for r in rho], [r * nq for r in rho], rho])))
        if got != want:
            k = next(k for k, (g, x) in enumerate(zip(got, want)) if g != x)
            if got[k] is None:
                raise KeyError(tuple_decode(k, size, 3))
            return tuple_decode(k, size, 3)
    guarded("(D3) rho is a homomorphism A(alpha) -> <Q,m>", check_d3_hom)
    add("(D3) ker rho = hat-alpha", Congruence(len(dc.pairs), [rho[c] for c in dc.class_of])
        == Congruence(len(dc.pairs), [d.alpha.rep[a] for a, _ in dc.pairs]))

    add("lifting is a section (rho . delta . l = id)",
        all(rho[d.delta_l(q)] == q for q in range(nq)))
    add("rho . delta is the canonical map A -> A/alpha",
        Congruence(n, list(map(d.pi_of, range(n)))) == d.alpha)

    # D1: homomorphic structure, an f-delta column per (f, q1, qrest)
    def check_d1():
        for sym, ar in d.signature.symbols:
            for q1 in range(nq) if ar else ():
                fib, du = d.fiber(q1), dc.delta_of[next(x for x in range(n) if d.pi_of(x) == q1)]
                for qrest in product(range(nq), repeat=ar - 1):
                    if bad := _additive_break(
                            dc, _column(d.fdelta[sym], d.layouts[sym][1], 1, (0,) + qrest, size),
                            fib, du, d.delta_l(q_alg.apply(sym, (q1,) + qrest)),
                            lambda c: KeyError((sym, c, *qrest))):
                        return (sym, *bad, qrest)
    guarded("(D1) structure is homomorphic", check_d1)

    # D4 part 1: homomorphic action, an action column per (f, i, qrest)
    def check_d4_hom():
        for sym, i in sorted(d.actions):
            for qrest in product(range(nq), repeat=d.signature.arity(sym) - 1):
                img = _column(d.actions[sym, i], d.layouts[sym, i][1], i,
                              qrest[:i - 1] + (0,) + qrest[i - 1:], size)
                for qat in range(nq):
                    if bad := _additive_break(
                            dc, img, d.fiber(qat), d.delta_l(qat),
                            d.delta_l(q_alg.apply(sym, qrest[:i - 1] + (qat,) + qrest[i - 1:])),
                            lambda c: KeyError((sym, i, *qrest, c))):
                        return (sym, (i,), qrest, bad[:1], bad[1:])
    guarded("(D4) action is homomorphic", check_d4_hom)

    # D4 part 2: f-delta and action values lie over f^Q, rho of whole tables
    # against f^Q read at the Q values of their slots
    def check_d4_fibers():
        for sym, ar in d.signature.symbols:
            qtab, tab, w = q_alg.tables[sym], d.fdelta[sym], nq ** max(ar - 1, 0)
            if ar == 0 and (tab[0] is None or rho[tab[0]] != qtab[0]):
                return (sym, (), "fdelta")
            if ar > 1 and (not surj or None in tab or list(map(rho.__getitem__, tab))
                           != [q for r in rho for q in qtab[r * w:r * w + w]]):
                for r, qs in enumerate(product(range(nq), repeat=ar)):
                    for c in d.fiber(qs[0]):
                        if tab[c * w + r % w] is None:
                            raise KeyError((sym, c, *qs[1:]))
                        if rho[tab[c * w + r % w]] != qtab[r]:
                            return (sym, qs, "fdelta")
            for i in sorted(i for s, i in d.actions if s == sym and ar > 1):
                tab, want = d.actions[sym, i], list(map(qtab.__getitem__, _level_codes(
                    [[q * nq ** (ar - p) for q in range(nq)] for p in range(1, ar + 1) if p != i]
                    + [[r * nq ** (ar - i) for r in rho]])))
                if None in tab or list(map(rho.__getitem__, tab)) != want:
                    if (k := next((k for k, (v, x) in enumerate(zip(tab, want))
                                   if v is not None and rho[v] != x), None)) is not None:
                        return (sym, (i,), tuple_decode(k // size, nq, ar - 1), (k % size,))
    guarded("(D4) f-delta and action values lie over f^Q", check_d4_fibers)

    # AD2: unary action with a(f,1) equal to f-delta, read transposed
    def check_ad2():
        for sym, ar in d.signature.symbols:
            if ar < 2:
                continue
            positions = sorted((i,) for s, i in d.actions if s == sym)
            if positions != [(i,) for i in range(1, ar + 1)]:
                return (sym, positions)
            w, act = nq ** (ar - 1), d.actions[sym, 1]
            fd = tuple(chain.from_iterable(d.fdelta[sym][r::w] for r in range(w)))
            for k in range(len(fd)) if fd != act or None in act else ():
                qrest, c = tuple_decode(k // size, nq, ar - 1), k % size
                if None in (fd[k], act[k]):
                    raise KeyError((sym, c, *qrest) if fd[k] is None else (sym, 1, *qrest, c))
                if fd[k] != act[k]:
                    return (sym, qrest, c)
    guarded("(AD2) action is unary and a(f,1) agrees with f-delta", check_ad2)

    # Delta agrees with the m-rule (reconstructibility of the universe);
    # under (AD1) the rule is the partition m_rule_delta
    bad = [] if ad1 and m_rule_delta(d.alpha, dc.pairs, m) == dc.delta_cong else [
        ((a, b), (c, e)) for (a, b), i in zip(dc.pairs, dc.class_of)
        for (c, e), j in zip(dc.pairs, dc.class_of)
        if (d.alpha.related(a, c) and e == m(b, a, c)) != (i == j)]
    add("Delta matches the rule d = m(b,a,c)", not bad, bad and bad[-1])

    return report


_M_SIGNATURE = Signature([("m", 3)])


def m_rule_delta(alpha, pairs, m):
    """The m-rule partition of the alpha-pairs: (a,b) ~ (c,d) iff a alpha c
    and m(b,a,e) = m(d,c,e), with e the least element of a's block, as a
    congruence on the indices of pairs.

    When m is a ternary abelian group operation on every alpha-block,
    m(x,y,z) = x - y + z there, so the key equation says d = m(b,a,c), the
    rule extract_datum checks Delta against; for an affine datum this is
    Delta_{alpha,alpha} of <A,m>.  One pass, no M(alpha,alpha).
    """
    rep = alpha.rep
    return Congruence(len(pairs), [(rep[a], m(b, a, rep[a])) for a, b in pairs])


def datum_from_tables(q_tables, q_size, mq, asize, m_table, alpha_blocks,
                      rho_pair, lifting, fdelta_tables, action_tables,
                      signature, name=None, cap=DEFAULT_CAP):
    """Assemble an AffineDatum from raw serialized tables.

    Delta is recomputed from <A,m> and the class indexing is the documented
    least-representative order, so file indices are stable.  The tables are
    {index tuple: class} dicts of the file's nested tables, per symbol and
    per (symbol, position); each is checked whole before it is flattened.
    Delta is the
    Cg half of congruences.delta() checked against m_rule_delta, with no
    M(alpha,alpha); only when the two part (m is then not affine on the
    blocks) does delta() decide, Cg against Tr M, as for any algebra.
    """
    q_alg = FiniteAlgebra(q_size, signature, q_tables, name="Q")
    m_flat = _flat_ternary(m_table, asize)
    alpha = Congruence.from_blocks(asize, alpha_blocks)
    m_alg = FiniteAlgebra(asize, _M_SIGNATURE, {"m": m_flat}, name="<A,m>")
    pairalg = pair_algebra(m_alg, alpha, cap=cap)
    d_aa = delta_by_cg(pairalg, alpha)
    m = lambda a, b, c: m_flat[(a * asize + b) * asize + c]
    if d_aa != m_rule_delta(alpha, pairalg.pairs, m):
        # not an affine datum; Cg and Tr M(alpha,alpha) decide as before
        d_aa = delta_congruence(m_alg, alpha, alpha, cap=cap, pairalg=pairalg)
    dc = DeltaClasses(asize, m_flat, pairalg.pairs, d_aa, rho_pair)
    mq_flat = _flat_ternary(mq, q_size)
    missing = sorted({(sym, i) for sym, ar in signature.symbols if ar >= 2
                      for i in range(1, ar + 1)} - set(action_tables))
    if missing:
        raise DatumError("no action table for %s" % ", ".join("%s:%d" % m for m in missing))
    for sym, pos in action_tables:
        if not 0 < pos <= (signature.arity(sym) or 0):
            raise DatumError("action %s:%d is at no argument position of %s" % (sym, pos, sym))
    def flat(tab, layout, name, what):
        keys = list(product(*map(range, layout[0])))
        if set(tab) != set(keys):
            raise DatumError("%s lacks a value for some %s, or has extra ones" % (name, what))
        for v in map(tab.__getitem__, keys):  # bool is an int subclass
            if type(v) is not int or not 0 <= v < dc.size:
                raise DatumError("%s has value %r, not a class in 0..%d"
                                 % (name, v, dc.size - 1))
        return tuple(map(tab.__getitem__, keys))
    fdelta = {sym: flat(fdelta_tables[sym], _layout(ar, q_size, dc.size),
                        "fdelta of %r" % sym, "class and Q arguments")
              for sym, ar in signature.symbols}
    actions = {(sym, pos): flat(tab, _layout(signature.arity(sym), q_size, dc.size, pos),
                                "action %s:%d" % (sym, pos), "Q arguments and class")
               for (sym, pos), tab in action_tables.items()}
    return AffineDatum(q_alg, mq_flat, asize, m_flat, alpha, dc, lifting,
                       fdelta, actions, name=name)


# --- compatibility of actions with equation sets --------------------------

Q_KIND, U_KIND = "q", "u"


def compatible_value(d, term, assignment):
    """Evaluate a term on a mixed (Q | Delta-class) assignment per the
    compatible-sequence rules; None when the sequence is not compatible.

    Values are tagged pairs ("q", element of Q) or ("u", class index).
    Patterns with one class among Q values use the action; a leading class
    followed by diagonal classes uses the partial f-delta operation; other
    mixtures are not compatible and are excluded.
    """
    if is_var(term):
        return assignment[term]
    sym = term[0]
    subs = term[1:]
    ar = d.signature.arity(sym)
    if ar is None:
        raise TermError("symbol %r not in signature" % sym)
    vals = [compatible_value(d, s, assignment) for s in subs]
    if any(v is None for v in vals):
        return None
    kinds = [k for k, _ in vals]
    if all(k == Q_KIND for k in kinds):
        return (Q_KIND, d.q_alg.apply(sym, tuple(v for _, v in vals)))
    if kinds[0] == U_KIND and all(
            k == U_KIND and d.dc.is_diagonal(c) for k, c in vals[1:]):
        qrest = tuple(d.dc.rho_class[c] for _, c in vals[1:])
        return (U_KIND, d.fdelta_apply(sym, vals[0][1], qrest))
    upos = [i + 1 for i, k in enumerate(kinds) if k == U_KIND]
    if len(upos) == 1 < ar and (sym, upos[0]) in d.actions:
        qrest = tuple(v for k, v in vals if k == Q_KIND)
        return (U_KIND, d.action_apply(sym, upos[0], qrest, vals[upos[0] - 1][1]))
    return None


def _weak_columns(d, term, qenv, cols, n):
    """(t^Q, the column of t's transfer-free sum) on n class assignments.

    All n assignments lie over the Q assignment qenv; cols maps a variable
    to its column of classes.  Each node slices its f-delta and action maps
    once and adds through the m table: position 1 goes through
    f-delta and positions >= 2 through the action, left to right.  Q is
    tracked by the subterms' values in Q, not read off the classes, which
    is the only exact route on a datum that is not fibered (SumTable).
    """
    if is_var(term):
        return qenv[term], cols[term]
    sym, subs = term[0], term[1:]
    if not subs:
        q = d.q_alg.tables[sym][0]
        return q, [d.delta_l(q)] * n
    args = [_weak_columns(d, s, qenv, cols, n) for s in subs]
    qs = tuple(q for q, _ in args)
    uq = d.q_alg.apply(sym, qs)
    img = d.wrap(sym, 1, qs)
    val = [img[x] for x in args[0][1]]
    zero, size, m = d.delta_l(uq), d.dc.size, d.dc.m_class
    table, off = d.dc.m_table(), zero * size
    for k in range(2, len(subs) + 1):
        img = d.wrap(sym, k, qs)
        val = [s if (s := table[x * size * size + off + img[y]]) is not None
               else m(x, zero, img[y]) for x, y in zip(val, args[k - 1][1])]
    return uq, val


def _weak_failures(d, lhs, rhs, varnames):
    """Where the transfer-free sums of lhs and rhs differ, per class assignment
    in product(range(size)) order, grouped by the Q assignment underneath."""
    found = []
    for qvals in product(range(d.qsize()), repeat=len(varnames)):
        envs = list(product(*(d.dc.fibers.get(q, ()) for q in qvals)))
        if not envs:
            continue
        qenv = dict(zip(varnames, qvals))
        cols = {v: [e[i] for e in envs] for i, v in enumerate(varnames)}
        lcol = _weak_columns(d, lhs, qenv, cols, len(envs))[1]
        rcol = _weak_columns(d, rhs, qenv, cols, len(envs))[1]
        found += [(env, lv, rv) for env, lv, rv in zip(envs, lcol, rcol)
                  if lv != rv]
    found.sort()
    return [{"equation": (lhs, rhs), "env": dict(zip(varnames, env)),
             "lhs": lv, "rhs": rv} for env, lv, rv in found]


def _table_failures(alg, lhs, rhs, varnames):
    """Where the term tables of lhs and rhs in alg differ, in index order,
    which is the order of the class assignments in product(range(size))."""
    left, right = term_table(alg, lhs, varnames), term_table(alg, rhs, varnames)
    if left == right:
        return []
    n, k = alg.size, len(varnames)
    return [{"equation": (lhs, rhs), "env": dict(zip(varnames, tuple_decode(i, n, k))),
             "lhs": lv, "rhs": rv}
            for i, (lv, rv) in enumerate(zip(left, right)) if lv != rv]


def check_action_compatible(d, equations, mode="weak"):
    """Compatibility of the datum's action with a set of equations.

    weak mode compares the transfer-free sums of the two sides on every
    class assignment.  On a fibered datum (SumTable) these are the term
    tables of the sides over the datum's sum table, and the failures are
    the positions where they part, in index order.  On any other datum the
    classes alone would misplace Q, so the sums are evaluated with Q
    tracked through the subterms, a whole product of fibers per Q
    assignment, and sorted into the same order.  full mode enumerates
    compatible sequences and appropriate pairs per the pairing rules.
    Returns a report dict with failure witnesses.
    """
    if mode not in ("weak", "full"):
        raise DatumError("mode must be 'weak' or 'full'")
    failures = []
    excluded = 0
    q_fail = satisfies(d.q_alg, equations)
    if q_fail is not None:
        return {"claim": "action %s-compatible" % mode, "holds": False,
                "witness": {"reason": "Q does not satisfy the equations",
                            "equation": q_fail[:2], "env": q_fail[2]}}
    sums = d.sum_table().algebra if mode == "weak" else None
    for lhs, rhs in equations:
        varnames = term_vars(lhs, rhs)
        if mode == "weak":
            failures += (_weak_failures(d, lhs, rhs, varnames) if sums is None
                         else _table_failures(sums, lhs, rhs, varnames))
        else:
            domain = [(Q_KIND, q) for q in range(d.qsize())]
            domain += [(U_KIND, c) for c in range(d.dc.size)]
            for vals in product(domain, repeat=len(varnames)):
                assignment = dict(zip(varnames, vals))
                lv = compatible_value(d, lhs, assignment)
                rv = compatible_value(d, rhs, assignment)
                if lv is None or rv is None:
                    excluded += 1  # sequence not compatible: reported, not guessed
                    continue
                if (lv[0] == U_KIND) != (rv[0] == U_KIND):
                    continue  # pair is not appropriate
                if lv != rv:
                    failures.append({"equation": (lhs, rhs),
                                     "env": assignment, "lhs": lv, "rhs": rv})
    report = {"claim": "action %s-compatible" % mode,
              "holds": not failures, "witness": failures or None}
    if mode == "full":
        report["excluded_sequences"] = excluded
    return report
