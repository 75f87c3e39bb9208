"""Finite algebras on {0..n-1} with dense operation tables.

Tables are stored flat: an arity-k table is a tuple of length n**k indexed
by base-n positional encoding with the leftmost argument most significant.
The same encoding fixes tuple indexing in power algebras.
"""

from functools import partial, reduce
from itertools import chain, product, repeat
from operator import add, getitem, itemgetter, mul

DEFAULT_CAP = 1 << 24


class AlgebraError(ValueError):
    pass


class CapExceeded(AlgebraError):
    """A search or enumeration outgrew its configured cap.

    stage names the search, size is the figure it reached (or would reach)
    and cap the limit it was held to; the message is template filled from
    them and from any further named fields.
    """

    def __init__(self, stage, size, cap, template, **fields):
        super().__init__(template.format(stage=stage, size=size, cap=cap, **fields))
        self.stage, self.size, self.cap = stage, size, cap


class Signature:
    def __init__(self, symbols):
        self.symbols = tuple((str(name), ar) for name, ar in symbols)
        for name, ar in self.symbols:
            # bool is an int subclass, and int() would truncate a float
            if type(ar) is not int or ar < 0:
                raise AlgebraError("arity of %r must be a non-negative integer, not %r"
                                   % (name, ar))
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate symbol names in signature")
        self.arities = dict(self.symbols)

    def arity(self, name):
        return self.arities.get(name)

    def names(self):
        return [name for name, _ in self.symbols]

    def __eq__(self, other):
        return isinstance(other, Signature) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return "Signature(%r)" % (self.symbols,)


GROUP_SIGNATURE = Signature([("mul", 2), ("inv", 1), ("e", 0)])


def _flatten(nested, arity, size):
    """Flatten a nested table (k-deep lists) to the flat tuple layout."""
    if arity == 0:
        if isinstance(nested, (list, tuple)):
            raise AlgebraError("arity-0 table must be a bare integer")
        return (nested,)
    flat = []
    _flatten_into(flat, nested, arity, size)
    return tuple(flat)


def _flatten_into(flat, node, depth, size):
    """Append the leaves of node, nested depth more levels, to flat."""
    if depth == 0:
        flat.append(node)
        return
    if len(node) != size:
        raise AlgebraError("table row has length %d, expected %d" % (len(node), size))
    for child in node:
        _flatten_into(flat, child, depth - 1, size)


class FiniteAlgebra:
    def __init__(self, size, signature, tables, name=None):
        """tables: dict symbol -> flat tuple (len size**arity) or nested lists."""
        self.size = int(size)
        if self.size <= 0:
            raise AlgebraError("algebra size must be positive")
        self.signature = signature
        self.name = name
        self.tables = {}
        for sym, ar in signature.symbols:
            if sym not in tables:
                raise AlgebraError("missing table for symbol %r" % sym)
            tab = tables[sym]
            if isinstance(tab, tuple) and (ar == 0 or not isinstance(tab[0], (list, tuple))):
                flat = tab
            else:
                flat = _flatten(tab, ar, self.size)
            if len(flat) != self.size ** ar:
                raise AlgebraError("table for %r has %d entries, expected %d"
                                   % (sym, len(flat), self.size ** ar))
            # bools and floats compare equal to ints, so check types first
            if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= self.size:
                bad = next(v for v in flat if type(v) is not int or not 0 <= v < self.size)
                raise AlgebraError("table entry %r for %r is not an element of the universe"
                                   % (bad, sym))
            self.tables[sym] = flat
        self._associative = None  # associative_ops()'s memo
        self._latin = {}  # is_group_op()'s memo
        self._inverses = {}  # group_inverses()'s memo
        self._profile_memo = None  # (_profiles(), _invariant())

    def associative_ops(self):
        """The symbols of the associative binary operations, in signature
        order; each table is tested once per algebra."""
        if self._associative is None:
            self._associative = tuple(
                sym for sym, ar in self.signature.symbols
                if ar == 2 and _is_associative(self.tables[sym], self.size))
        return self._associative

    def is_group_op(self, sym):
        """Whether sym is a group operation: associative, and each row and
        column tab[x::n] of its table holds n distinct values (a Latin
        square); tested once per algebra and symbol."""
        if sym not in self._latin:
            tab, n = self.tables[sym], self.size
            self._latin[sym] = sym in self.associative_ops() and all(
                len(set(tab[x * n:x * n + n])) == n == len(set(tab[x::n])) for x in range(n))
        return self._latin[sym]

    def group_inverses(self, mul):
        """The unary symbols whose table is the inverse of the group
        operation mul: x * inv(x) is e, mul's one idempotent, for every x;
        tested once per algebra and mul."""
        if mul not in self._inverses:
            tab, n = self.tables[mul], self.size
            e = next(x for x in range(n) if tab[x * n + x] == x)
            self._inverses[mul] = {sym for sym, ar in self.signature.symbols if ar == 1 and all(
                tab[x * n + y] == e for x, y in enumerate(self.tables[sym]))}
        return self._inverses[mul]

    @classmethod
    def subpower(cls, base, elements, name=None):
        """The subalgebra of base**k whose universe is the list elements of
        k-tuples, element i standing for elements[i], as a cls: the power
        and pair algebras.  Its tables skip the constructor's scan: each
        entry is an index into elements by construction (a list that is
        not closed raises KeyError).  It satisfies every identity of base, so
        associative_ops() is read off base instead of tested on the new
        tables.  So is each group operation of base, a finite subset of
        G**k closed under * being a subgroup, and its inverses."""
        if not elements:
            raise AlgebraError("algebra size must be positive")
        sub = cls.__new__(cls)
        sub.size, sub.signature, sub.name = len(elements), base.signature, name
        sub.tables = subpower_tables(base, elements)
        sub._associative = base.associative_ops()
        sub._latin = {sym: True for sym in sub._associative if base.is_group_op(sym)}
        sub._inverses = {sym: base.group_inverses(sym) for sym in sub._latin}
        sub._profile_memo = None
        return sub

    def op(self, sym, *args):
        return self.apply(sym, args)

    def apply(self, sym, args):
        tab = self.tables[sym]
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return tab[idx]

    def elements(self):
        return range(self.size)

    def constants(self):
        return [self.tables[sym][0] for sym, ar in self.signature.symbols if ar == 0]

    def __repr__(self):
        return "FiniteAlgebra(%s, n=%d)" % (self.name or "?", self.size)


def _row_getters(pool):
    """For each coordinate j of the k-tuples in pool, a function that picks
    their j-th coordinates, in pool order, out of a table row as a tuple."""
    # itemgetter of a single index returns the bare item, not a 1-tuple
    return [itemgetter(*col) if len(col) > 1 else (lambda row, x=col[0]: (row[x],))
            for col in zip(*pool)]


def _apply_rows(tab, n, prefix, getters):
    """Coordinatewise values of a flat table on prefix + (t,) for every t in
    the pool that getters (from _row_getters) were made for; the results
    are k-tuples in pool order."""
    offsets = [0] * len(getters)
    for t in prefix:
        offsets = [(o + x) * n for o, x in zip(offsets, t)]
    return zip(*[get(tab[o:o + n]) for o, get in zip(offsets, getters)])


def _is_associative(tab, n):
    """(x*y)*z = x*(y*z) for the flat binary table tab, one row pair at a
    time: row x*y must equal row x read at the entries of row y."""
    if n == 1:
        return True
    rows = [tab[x * n:x * n + n] for x in range(n)]
    reads = [itemgetter(*row) for row in rows]
    return all(rows[tab[x * n + y]] == reads[y](rows[x])
               for x in range(n) for y in range(n))


def _images(ops, n, old, frontier, elems, found):
    """Add to found the values of ops on the argument tuples over elems that
    hold an element of frontier; old is elems without frontier."""
    frontier_rows = _row_getters(frontier)
    elem_rows = _row_getters(elems) if any(ar > 1 for _, ar in ops) else None
    for tab, ar in ops:
        # argument tuples whose first frontier element sits at position i
        for i in range(ar):
            pools = [old] * i + [frontier] + [elems] * (ar - i - 1)
            last = frontier_rows if i == ar - 1 else elem_rows
            for prefix in product(*pools[:-1]):
                found.update(_apply_rows(tab, n, prefix, last))


def closure(alg, k, generators):
    """Subuniverse of alg**k generated by a set of k-tuples.

    An element of alg**k is a plain tuple of k elements of alg, and every
    operation acts on it coordinatewise through alg's flat tables; nullary
    operations contribute their constant k-tuples to the generators (the
    seeds).  Returns the elements: the seeds sorted, then the others in the
    order they were found.

    With an associative binary operation * in alg (alg.associative_ops()),
    the closure is the semigroup path (_semigroup_closure): it multiplies
    on the right by kept generators only, which suffices because
    x*(g0*...*gm) = ((x*g0)*...)*gm, and runs the other operations
    semi-naively.  When * is a group operation (alg.is_group_op), each
    generator after the first adds whole right cosets of the span, and the
    group's inverse is skipped.
    Otherwise round r evaluates every operation on the argument tuples
    holding an element found in round r-1, each round's new elements come
    sorted, and the closure stops when a round finds nothing new; before
    each round the elements seen are held to DEFAULT_CAP.
    """
    n = alg.size
    ops = [(alg.tables[sym], ar) for sym, ar in alg.signature.symbols]
    seeds = set(map(tuple, generators))
    seeds.update((tab[0],) * k for tab, ar in ops if ar == 0)
    seeds = sorted(seeds)
    associative = alg.associative_ops()
    if associative:
        return _semigroup_closure(alg, seeds, associative[0])
    seen = set(seeds)
    elems = frontier = seeds
    while frontier:
        if len(elems) > DEFAULT_CAP:
            raise CapExceeded("closure", len(elems), DEFAULT_CAP,
                              "{stage}: {size} elements exceed cap {cap}")
        found = set(seen)
        _images(ops, n, elems[:len(elems) - len(frontier)], frontier, elems, found)
        frontier = sorted(found - seen)
        seen.update(frontier)
        elems = elems + frontier
    return elems


def _semigroup_closure(alg, seeds, mul):
    """closure() when mul is associative: the seeds sorted, then the rest
    of the subuniverse in the order found.

    The span is the subsemigroup generated by the kept generators, kept
    closed under right multiplication by each of them.  A generator that
    is not yet in the span is kept: every old x gives x*g, and every new y
    gives y*h for every kept h, a batch of new elements at a time.  Each
    right multiplication by h is one column tab[h_j::n] per coordinate,
    read at the whole batch through itemgetter.  The span is then closed
    under * by associativity.  The other operations run semi-naively over
    the span, and their new values arrive as further generators.  In a
    finite group each kept generator at least doubles the span.

    When mul is a group operation and the span H is not empty, H is a
    subgroup, and a kept generator g adds right cosets (Dimino's method):
    H*r for r = g, then for each r*h by a kept h outside the span so far,
    each coset one column read per coordinate as above.  That is exact: a
    union S of right cosets of H is closed under right multiplication by
    h iff every r*h lies in S, as H*r*h = H*(r*h); S holds the kept
    generators, so S is the subsemigroup they span, in a finite group the
    subgroup <H, g>.  It costs |S| - |H| products read through columns
    and #cosets * #kept single products, not (|S| - |H|) * #kept.  The
    inverses of mul (alg.group_inverses) are not run: a subgroup is
    closed under them.
    """
    n, tab = alg.size, alg.tables[mul]
    group = alg.is_group_op(mul)
    inverses = alg.group_inverses(mul) if group else ()
    others = [(alg.tables[sym], ar) for sym, ar in alg.signature.symbols
              if sym != mul and ar > 0 and sym not in inverses]
    span, seen = [], set()
    kept = []  # per kept generator h, the column tab[h_j::n] of each coordinate
    done = 0   # span[:done] has been through every other operation
    pending = seeds
    while pending:
        for g in pending:
            if g in seen:
                continue
            cols = [tab[x::n] for x in g]
            kept.append(cols)
            if group and span:
                getters, reps = _row_getters(span), [g]
                while reps:
                    r = reps.pop()
                    if r in seen:
                        continue
                    coset = list(zip(*[get(tab[x::n]) for get, x in zip(getters, r)]))
                    span += coset
                    seen.update(coset)
                    reps += [tuple(map(getitem, h, r)) for h in kept]
                continue
            products = chain([g], _right_products(span, [cols]))
            while True:
                batch = list(dict.fromkeys(t for t in products if t not in seen))
                if not batch:
                    break
                span += batch
                seen.update(batch)
                products = _right_products(batch, kept)
        if not others or done == len(span):
            break
        found = set()
        _images(others, n, span[:done], span[done:], span, found)
        done = len(span)
        pending = sorted(found - seen)
    seeded = set(seeds)
    return seeds + [t for t in span if t not in seeded]


def _right_products(pool, kept):
    """x*h for every x in pool and every kept h given by its columns, in
    kept order and pool order, one h at a time."""
    getters = _row_getters(pool)
    for cols in kept:
        yield from zip(*[get(col) for get, col in zip(getters, cols)])


def subpower_tables(alg, elements):
    """Flat tables of the subalgebra of alg**k whose universe is the list
    elements of k-tuples, element i standing for elements[i].

    A k-tuple is keyed by its base-n code, sum x_j * n**(k-1-j), so no
    tuple is built or hashed per entry: each row of the table scaled by
    n**(k-1-j) is read once, per base prefix, at the pool's j-th
    coordinates; the entries after a prefix p of pool elements are the
    rows at p's coordinates summed by map(add), looked up by code.  A
    list that is not closed raises KeyError.
    """
    n, k = alg.size, len(elements[0])
    codes = [0] * len(elements)
    for col in zip(*elements):
        codes = [c * n + x for c, x in zip(codes, col)]
    index = dict(zip(codes, range(len(codes)))).__getitem__
    getters = _row_getters(elements)
    tables = {}
    for sym, ar in alg.signature.symbols:
        tab = alg.tables[sym]
        if ar == 0:
            tables[sym] = (index(sum(tab[0] * n ** j for j in range(k))),)
            continue
        rows = []
        for j, get in enumerate(getters):
            scaled = [v * n ** (k - 1 - j) for v in tab]
            rows.append([get(scaled[r:r + n]) for r in range(0, len(tab), n)])
        # per prefix of pool elements, the base prefix code of each coordinate
        prefixes = [(0,) * k]
        for _ in range(ar - 1):
            prefixes = [tuple(map(add, map(mul, p, repeat(n)), t))
                        for p in prefixes for t in elements]
        tables[sym] = tuple(chain.from_iterable(
            map(index, reduce(partial(map, add), map(getitem, rows, p)))
            for p in prefixes))
    return tables


def subalgebra_generate(alg, gens):
    """Least subuniverse of alg containing gens (plus all constants)."""
    for g in gens:
        if not 0 <= g < alg.size:
            raise AlgebraError("generator %d outside universe" % g)
    return sorted(t[0] for t in closure(alg, 1, [(g,) for g in gens]))


def power_algebra(alg, k, cap=DEFAULT_CAP):
    """Direct power alg**k with base-n tuple encoding (leftmost most significant)."""
    if k < 1:
        raise AlgebraError("power exponent must be >= 1")
    n = alg.size
    size = n ** k
    max_ar = max((ar for _, ar in alg.signature.symbols), default=0)
    if size ** max(max_ar, 1) > cap:
        raise CapExceeded("power_algebra", size, cap,
                          "power algebra of size {size} exceeds cap {cap}")
    # product lists the k-tuples in base-n order, so tuple i has code i
    name = "%s^%d" % (alg.name, k) if alg.name else None
    return FiniteAlgebra.subpower(alg, list(product(range(n), repeat=k)), name=name)


def tuple_decode(idx, n, k):
    coords = []
    for _ in range(k):
        idx, r = divmod(idx, n)
        coords.append(r)
    coords.reverse()
    return tuple(coords)


def quotient_algebra(alg, cong):
    """Quotient by a congruence; blocks are labeled by their least member.

    Returns (quotient, blockmap) where blockmap[a] is the index of a's block.
    Raises AlgebraError with a witness if cong is not compatible with some
    operation.
    """
    witness = congruence_violation(alg, cong)
    if witness is not None:
        raise AlgebraError("not a congruence: %s" % (witness,))
    blocks = cong.blocks()
    reps = [b[0] for b in blocks]
    blockmap = [0] * alg.size
    for i, b in enumerate(blocks):
        for x in b:
            blockmap[x] = i
    tables = {sym: tuple(blockmap[alg.apply(sym, args)] for args in product(reps, repeat=ar))
              for sym, ar in alg.signature.symbols}
    name = "%s/%s" % (alg.name, "theta") if alg.name else None
    return FiniteAlgebra(len(blocks), alg.signature, tables, name=name), blockmap


def congruence_violation(alg, cong):
    """Witness (sym, position, (a, b), context) if cong is incompatible, else None.

    The witness is the first in the order symbol, pair a < b in one block,
    position, context.  Each table is read once through the block labels;
    then, as in congruences.cg, position i of an arity-k table is one slice
    of stride s = n**(k-1-i) per prefix of the arguments before it, or at
    the last position the single strided slice tab[a::n], and a and b are
    compared a slice at a time.  The context at entry j of the q-th slice
    has code q*s + j.
    """
    rep = cong.rep
    n = alg.size
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rep[a] == rep[b]]
    for sym, ar in alg.signature.symbols:
        if ar == 0:
            continue
        labels = [rep[v] for v in alg.tables[sym]]
        for a, b in pairs:
            for i in range(ar):
                s = n ** (ar - 1 - i)
                if s == 1:
                    rows = [(labels[a::n], labels[b::n])]
                else:
                    rows = ((labels[p + a * s:p + a * s + s],
                             labels[p + b * s:p + b * s + s])
                            for p in range(0, len(labels), n * s))
                for q, (row_a, row_b) in enumerate(rows):
                    if row_a != row_b:
                        j = next(j for j in range(len(row_a)) if row_a[j] != row_b[j])
                        return (sym, i, (a, b), tuple_decode(q * s + j, n, ar - 1))
    return None


def _profiles(alg):
    """Iterated invariant colors for isomorphism pruning, computed once per
    algebra."""
    if alg._profile_memo is None:
        colors = tuple(_iterate_colors(alg))
        alg._profile_memo = colors, tuple(sorted(colors))
    return alg._profile_memo[0]


def _invariant(alg):
    """The sorted profile colors.  Each color is the rank of data read off
    the tables through earlier colors, so isomorphic algebras have equal
    invariants; find_isomorphism returns None when they differ."""
    _profiles(alg)
    return alg._profile_memo[1]


def _iterate_colors(alg):
    n = alg.size
    colors = [0] * n
    for _ in range(n):
        data = []
        for a in range(n):
            row = [colors[a]]
            for sym, ar in alg.signature.symbols:
                tab = alg.tables[sym]
                if ar == 0:
                    row.append(int(tab[0] == a))
                elif ar == 1:
                    row.append(colors[tab[a]])
                    row.append(int(tab[a] == a))
                elif ar == 2:
                    row.append(tuple(sorted(colors[tab[a * n + x]] for x in range(n))))
                    row.append(tuple(sorted(colors[tab[x * n + a]] for x in range(n))))
                    row.append(colors[tab[a * n + a]])
                else:
                    vals = sorted(colors[alg.apply(sym, (a,) * ar)] for _ in (0,))
                    row.append(tuple(vals))
            data.append(tuple(row))
        ranking = {v: i for i, v in enumerate(sorted(set(data), key=repr))}
        new = [ranking[d] for d in data]
        if new == colors:
            break
        colors = new
    return colors


def find_isomorphism(a, b):
    """A bijection list (a-element -> b-element) commuting with all tables, or None.

    The block search (_block_maps) on one-element blocks, those with the
    fewest same-colored candidates first, each x trying the b-elements of
    its profile color in ascending order, no image taken twice.  Every
    table entry of a is checked once its arguments and value all have
    images, so the map returned is the first isomorphism in that order.
    """
    if a.signature != b.signature or a.size != b.size or _invariant(a) != _invariant(b):
        return None
    n, ca, cb = a.size, _profiles(a), _profiles(b)
    cand = [[[y] for y in range(n) if cb[y] == ca[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: (len(cand[x]), x))
    return next(_block_maps(_search_plan(a, [[x] for x in order]),
                            [cand[x] for x in order], b, injective=True), None)


def _search_plan(alg, blocks):
    """(spans, where, checks): the block search's plan for maps out of alg
    assigned a block at a time.  Images are kept by position, the blocks'
    elements in order: x at where[x], block i at spans[i], and one last
    position that holds 0.  checks[i] holds, per symbol, the table entries
    of alg whose deepest argument or value lies in blocks[i], by position:
    (v, x, y) up to arity 2, shorter argument lists padded on the left
    with the last position, else (v, args)."""
    n = alg.size
    depth, where, spans, zero = [0] * n, [0] * n, [], 0
    for i, block in enumerate(blocks):
        spans.append(slice(zero, zero + len(block)))
        for x in block:
            depth[x], where[x], zero = i, zero, zero + 1
    checks = [[] for _ in blocks]
    for sym, ar in alg.signature.symbols:
        by_depth = [[] for _ in blocks]
        for args, v in zip(product(range(n), repeat=ar), alg.tables[sym]):
            ps = tuple(map(where.__getitem__, args))
            by_depth[max(map(depth.__getitem__, args + (v,)))].append(
                (where[v],) + (zero,) * (2 - ar) + ps if ar <= 2 else (where[v], ps))
        for i, entries in enumerate(by_depth):
            if entries:
                checks[i].append((sym, ar > 2, entries))
    return spans, where, checks


def _block_maps(plan, pools, target, injective=False):
    """Every map out of a _search_plan's algebra into target that takes, on
    each block, one of its pool's image lists and commutes with every
    table, each as a list: depth-first, blocks in order and each pool in
    order, so least first in that order.  An entry is checked once, when
    the deepest block it reads is assigned.  With injective, no image is
    taken twice: each pool is filtered, as it is read, to the lists that
    avoid the images above it."""
    spans, where, checks = plan
    n, tables = target.size, target.tables
    g = [0] * (len(where) + 1)
    stack = [iter(pools[0])]
    while stack:
        i = len(stack) - 1
        for images in stack[i]:
            g[spans[i]] = images
            if _entries_hold(checks[i], g, tables, n):
                break
        else:
            stack.pop()
            continue
        if i + 1 == len(spans):
            yield list(map(g.__getitem__, where))
            continue
        pool = iter(pools[i + 1])
        if injective:
            pool = filter(set(g[:spans[i].stop]).isdisjoint, pool)
        stack.append(pool)


def _entries_hold(checks, g, tables, n):
    """f(g(args)) = g(v) in the target tables, of size n, for every entry."""
    for sym, wide, entries in checks:
        tab = tables[sym]
        if wide:
            for v, args in entries:
                k = 0
                for x in args:
                    k = k * n + g[x]
                if tab[k] != g[v]:
                    return False
        else:
            for v, x, y in entries:
                if tab[g[x] * n + g[y]] != g[v]:
                    return False
    return True


def is_homomorphism(mapping, a, b):
    """Check mapping (list a -> b) commutes with every operation.

    A table is compared a row at a time: for each prefix p of all but the
    last argument, mapping applied to a's row at p must equal b's row at
    mapping(p) read at mapping(0), ..., mapping(n-1).
    """
    if a.signature != b.signature:
        return False
    n, m = a.size, b.size
    read = itemgetter(*mapping)
    for sym, ar in a.signature.symbols:
        ta, tb = a.tables[sym], b.tables[sym]
        if ar == 0:
            if mapping[ta[0]] != tb[0]:
                return False
            continue
        for p, prefix in enumerate(product(range(n), repeat=ar - 1)):
            q = 0
            for x in prefix:
                q = q * m + mapping[x]
            # with n == 1 both sides are bare items, not 1-tuples
            if itemgetter(*ta[p * n:p * n + n])(mapping) != read(tb[q * m:q * m + m]):
                return False
    return True


def satisfies(alg, equations):
    """First failing (lhs, rhs, env) for the equation set, or None: the
    first place, in product order, where the sides' term tables part."""
    from .terms import term_table, term_vars
    for lhs, rhs in equations:
        varnames = term_vars(lhs, rhs)
        left, right = term_table(alg, lhs, varnames), term_table(alg, rhs, varnames)
        if left != right:
            k = next(k for k, (a, b) in enumerate(zip(left, right)) if a != b)
            return (lhs, rhs, dict(zip(varnames, tuple_decode(k, alg.size, len(varnames)))))
    return None
