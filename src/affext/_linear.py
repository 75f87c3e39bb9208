"""Linear systems over the fibers of an affine datum: by (D1)/(D4) every
f-delta and action map is a homomorphism of fibers, so a (C2) instance, or
delta at a cell, is linear in fiber coordinates (fiber_basis).  A System
takes each instance as maps to coefficients, per prime p rows over Z/p^K
whose kernel, in Howell form (Howell, "Spans in the module (Z_m)^s", 1986),
has its order read off the pivots before anything is listed.  A map that
is not a homomorphism leaves its instance to the caller."""

from .datum import DatumError


def factor(n):
    """The prime factors of n with multiplicity, ascending."""
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + [n] if n > 1 else out


def fiber_basis(d, q):
    """(gens, coords, members) of the fiber group over q: gens lists
    (g, p, k), the fiber being the direct sum of the <g> with g of order
    p**k; coords maps each member to its coefficients, one per generator,
    and members is its inverse.

    On the table: each step takes the first member x of prime-power order
    with the largest order e modulo the span; e*x has coefficients
    divisible by e, and x minus the member with them divided by e has
    order e and meets the span in zero.
    """
    size, zero, fib = d.dc.size, d.delta_l(q), d.fiber(q)
    tab = d.fiber_tables()[q]

    def multiples(x, within):
        """x, 2x, ... up to the first multiple in within."""
        out = [x]
        while out[-1] not in within:
            out.append(tab[out[-1] * size + x])
        return out

    candidates = [x for x in fib
                  if len(set(factor(len(multiples(x, {zero}))))) == 1]
    coords, members, gens = {zero: ()}, {(): zero}, []
    while len(coords) < len(fib):
        x, steps = max(((x, multiples(x, coords)) for x in candidates),
                       key=lambda c: len(c[1]))
        e, shift = len(steps), coords[steps[-1]]
        if any(c % e for c in shift):
            raise DatumError("fiber over %d has no cyclic decomposition" % q)
        y = members[tuple(c // e for c in shift)]
        g = next(z for z in fib if tab[z * size + y] == x)  # x - y
        grown = {}
        for y, c in coords.items():
            for j in range(e):
                grown[y] = c + (j,)
                y = tab[y * size + g]
        coords, members = grown, {c: y for y, c in grown.items()}
        gens.append((g, factor(e)[0], len(factor(e))))
    return gens, coords, members


def fiber_bases(d):
    """fiber_basis of each q in turn, listed once per datum."""
    if d._fiber_bases is None:
        d._fiber_bases = [fiber_basis(d, q) for q in range(d.qsize())]
    return d._fiber_bases


class System:
    """Linear constraints on tuples v with v[i] in the fiber over bases[i]:
    a column per generator j of each value i (fiber_bases), and per prime p
    rows over Z/p^K, K the largest exponent of p in a fiber.  Z/p^a sits in
    Z/p^K as the multiples of p^(K-a), the x with p^a x = 0, so an entry at
    a column of order p^a is read modulo p^a."""

    def __init__(self, d, bases):
        self.d, self.bases, self.basis = d, bases, fiber_bases(d)
        self.start, self.columns = [], []  # i's first column; (i, j, p, a)
        for i, q in enumerate(bases):
            self.start.append(len(self.columns))
            self.columns += [(i, j, p, a)
                             for j, (_, p, a) in enumerate(self.basis[q][0])]
        self.mods = [p ** a for _, _, p, a in self.columns]
        self.top = dict(sorted({g[1:] for gens, _, _ in self.basis for g in gens}))
        self.rows = {p: [{c: m} for c, (m, (_, _, r, a)) in
                         enumerate(zip(self.mods, self.columns))
                         if r == p and a < k] for p, k in self.top.items()}

    def coefficients(self, img, src, dst, sign):
        """sign times img, from the fiber over src to that over dst, as (t,
        j, e): e is the coefficient at factor t of dst of generator j of src
        in Z/p^a, p^a the order of j (an image of order p^a in Z/p^b, a < b,
        is a multiple of p^(b-a)); None if img is no fiber homomorphism."""
        size, tables, fib = self.d.dc.size, self.d.fiber_tables(), self.d.fiber(src)
        a, b = tables[src], tables[dst]
        if any(img[a[x * size + y]] != b[img[x] * size + img[y]]
               for x in fib for y in fib):
            return None
        factors, coords, _ = self.basis[dst]
        return [(t, j, sign * (c * p ** (e - f) if e >= f else c // p ** (f - e)))
                for j, (g, _, e) in enumerate(self.basis[src][0])
                for t, c in enumerate(coords[img[g]]) if c for _, p, f in [factors[t]]]

    def add(self, dst, terms):
        """The rows saying that the sum of the terms (i, coefficients of a
        map from value i) is zero in the fiber over dst, one per factor."""
        factors, start, mods = self.basis[dst][0], self.start, self.mods
        acc = [{} for _ in factors]
        for i, coeffs in terms:
            first = start[i]
            for t, j, e in coeffs:
                row = acc[t]
                row[first + j] = row.get(first + j, 0) + e
        for (_, p, _), row in zip(factors, acc):
            row = {c: r for c, e in row.items() if (r := e % mods[c])}
            if row:
                self.rows[p].append(row)

    def kernel(self):
        """(order, generators as value tuples) of the tuples every row sends
        to zero, the order read off each prime's Howell form."""
        order, solutions = 1, []
        for p, k in self.top.items():
            cols = [c for c, col in enumerate(self.columns) if col[2] == p]
            o, gens = howell_kernel(howell(self.rows[p], p, k), cols, p, k)
            order *= o
            for x in gens:
                values = [[0] * len(self.basis[q][0]) for q in self.bases]
                for c, v in x.items():
                    i, j, _, a = self.columns[c]
                    values[i][j] = v // p ** (k - a)
                solutions.append(tuple(self.basis[q][2][tuple(v)]
                                       for q, v in zip(self.bases, values)))
        return order, solutions


def howell(rows, p, k):
    """An echelon basis {leading column: (row, v)} of the span of the rows
    (dicts column -> entry) over Z/p^k, each led by p**v, in Howell form:
    p**(k-v) times a basis row is in the span of those leading further
    right."""
    mod, basis, pending = p ** k, {}, list(rows)
    while pending:
        row = pending.pop()
        while row:
            c = min(row)
            x, v = row[c], 0
            while x % p == 0:
                x, v = x // p, v + 1
            if x != 1:
                u = pow(x, -1, mod)
                row = {col: y * u % mod for col, y in row.items()}
            old = basis.get(c)
            if old is None or old[1] > v:
                basis[c] = row, v
                if v:
                    pending.append({col: z for col, y in row.items()
                                    if (z := y * p ** (k - v) % mod)})
                if old is None:
                    break
                row = old[0]  # led by a higher power: reduce it by the new row
                continue
            t, row = p ** (v - old[1]), dict(row)  # row -= t * old row
            for col, y in old[0].items():
                if (z := (row.get(col, 0) - t * y) % mod):
                    row[col] = z
                else:
                    row.pop(col, None)
    return basis


def howell_kernel(basis, cols, p, k):
    """(order, generators) of the x in (Z/p^k)^cols a Howell basis sends to
    zero: a free column takes any of p**k values and one led by p**v any of
    p**v, and each seed, solved back leftwards, leads one generator."""
    mod, gens, order = p ** k, [], 1
    pivots = sorted(basis, reverse=True)
    for s in cols:
        v = basis[s][1] if s in basis else k
        order *= p ** v
        if not v:
            continue
        x = {s: p ** (k - v)}
        for c in pivots:
            if c < s:
                row, w = basis[c]
                t = sum(y * x[col] for col, y in row.items() if col in x) % mod
                if t:
                    x[c] = -(t // p ** w) % p ** (k - w)
        gens.append(x)
    return order, gens
