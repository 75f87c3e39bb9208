"""Linear systems over the fibers of an affine datum: by (D1)/(D4) every
f-delta and action map is a homomorphism of fibers, so a (C2) instance, or
delta at a cell, is linear in fiber coordinates (fiber_basis), per prime p
rows over Z/p^K whose kernel, in Howell form (Howell, "Spans in the module
(Z_m)^s", 1986), has its order read off the pivots before anything is
listed.  A map that is not a homomorphism leaves its constraint to the
caller."""

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


def _linear_map(d, img, src, dst, basis, seen):
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


def kernel(d, bases, constraints):
    """(order, generators, nonlinear) of constraints (lhs, rhs) on tuples v
    whose value i lies in the fiber over bases[i]; a side (base, [(i, img)])
    is the sum of the img[v[i]] at base.  The constraints whose maps are
    homomorphisms cut out the subgroup of that order spanned by the
    generators (value tuples); nonlinear lists the others' indices.
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
        maps = [(i, _linear_map(d, img, bases[i], lhs[0], basis, seen), sign)
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
    return order, solutions, nonlinear


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
