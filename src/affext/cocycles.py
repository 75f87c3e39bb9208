"""2-cocycles, derived term operations, reconstruction and realization."""

from itertools import product
from math import prod

from .algebras import (AlgebraError, CapExceeded, FiniteAlgebra, _block_maps,
                       _search_plan, DEFAULT_CAP)
from .congruences import kernel_of_map, pair_algebra, delta as delta_congruence
from .datum import DatumError, ExtensionRecord
from .terms import is_var, term_vars, term_to_str


def _check_cochain(d, *cochains):
    """Raise DatumError unless each 2-cochain has one value per cell, each
    a class: an int (bool is a subclass, so the type is checked exactly)."""
    size = d.dc.size
    for T in cochains:
        if len(T) != len(d.cells()):
            raise DatumError("2-cochain has %d values for %d cells"
                             % (len(T), len(d.cells())))
        if T and (set(map(type, T)) != {int} or min(T) < 0 or max(T) >= size):
            v = next(v for v in T if type(v) is not int or not 0 <= v < size)
            raise DatumError("2-cochain value %r is not a class in 0..%d"
                             % (v, size - 1))


def _serialized_sub(d, a, b):
    """a - b on serialized 2-cochains, in one pass over the cells.

    The value at a cell over q is plus_at(q, x, neg_at(q, y)), that is
    m(x, z, m(z, y, z)) with z = delta(l(q)), read inline from the m table,
    so it is the same sum on the fibers and off them.
    """
    size, table, m = d.dc.size, d.dc.m_table(), d.dc.m_class
    zeros = [d.delta_l(q) for q in range(d.qsize())]
    out = []
    for q, x, y in zip(d.cell_bases(), a, b):
        z = zeros[q]
        neg = table[(z * size + y) * size + z]
        if neg is None:
            neg = m(z, y, z)
        v = table[(x * size + z) * size + neg]
        out.append(v if v is not None else m(x, z, neg))
    return tuple(out)


# --- the derived operation t^{d,T} ----------------------------------------

def e_paths(term):
    """The operation set E_t as wrap paths.

    Each entry is (frames, node): node is the subterm whose head symbol owns
    the transfer cell, frames the chain of (parent, position) wrappers from
    the root down.  Order: the node's own cell first, then subterm sets left
    to right (position 1 wraps through f-delta, positions >= 2 through the
    action).
    """
    if is_var(term):
        return []
    out = [([], term)]
    for k, sub in enumerate(term[1:], start=1):
        if is_var(sub):
            continue
        for frames, node in e_paths(sub):
            out.append(([(term, k)] + frames, node))
    return out


def eval_path(d, T, frames, node, qenv):
    """Evaluate one member of E_t at a Q assignment."""
    args = tuple(d.eval_q(s, qenv) for s in node[1:])
    val = T[d.cell_index(node[0], args)]
    for parent, k in reversed(frames):
        qs = tuple(d.eval_q(s, qenv) for s in parent[1:])
        if k == 1:
            val = d.fdelta_apply(parent[0], val, qs[1:])
        else:
            val = d.action_apply(parent[0], k, qs[:k - 1] + qs[k:], val)
    return val


def partial_derivative(d, T, term, qenv):
    """t^{d,T}: the left-associated sum of E_t at base l(t^Q(q)).

    A bare variable has the empty sum, which is the fiber identity
    delta(l(q)).
    """
    base = d.eval_q(term, qenv)
    values = [eval_path(d, T, frames, node, qenv)
              for frames, node in e_paths(term)]
    return d.sum_at(base, values)


def check_cocycle(d, T, equations):
    """(C1) fiber condition plus (C2) equational compatibility, exhaustively.

    Returns a report dict; C2 failures carry (equation, assignment, sides).
    """
    _check_cochain(d, T)
    failures = []
    for (sym, qs), expected, v in zip(d.cells(), d.cell_fibers(), T):
        got = d.dc.rho_class[v]
        if got != expected:
            failures.append({"condition": "C1", "symbol": sym, "args": qs,
                             "fiber": got, "expected": expected})
    for lhs, rhs in equations:
        varnames = term_vars(lhs, rhs)
        for vals in product(range(d.qsize()), repeat=len(varnames)):
            qenv = dict(zip(varnames, vals))
            lv = partial_derivative(d, T, lhs, qenv)
            rv = partial_derivative(d, T, rhs, qenv)
            if lv != rv:
                failures.append({"condition": "C2",
                                 "equation": (term_to_str(lhs), term_to_str(rhs)),
                                 "env": qenv, "lhs": lv, "rhs": rv})
    return {"claim": "2-cocycle compatible with the equations",
            "holds": not failures, "witness": failures or None}


# --- reconstruction --------------------------------------------------------

def _check_fibers(d, T):
    """Raise DatumError at the first cell, in cells() order, where the
    2-cochain T leaves the fiber (C1) fixes, cell_fibers()."""
    rho = d.dc.rho_class
    for (sym, qs), fib, v in zip(d.cells(), d.cell_fibers(), T):
        if rho[v] != fib:
            raise DatumError("cocycle violates (C1) at %s%r" % (sym, qs))


def reconstruct(d, T, name=None, verify=True):
    """The algebra on the Delta-class universe built from datum and cocycle.

    Operations are the f-delta term, then the action terms for positions
    2..n, then T_f, summed left-associated at base l(f^Q(q)).  The first
    part does not depend on T and is the datum's sum table (SumTable),
    built once per datum; each entry adds T's value at the cell over
    rho(cs) at the table's offset into the m table.  A sum that failed in
    the table raises here at the same entry.  Each value of T must be a
    class; (C1) is checked against the datum's cell_fibers().  The
    canonical projection onto Q is verified to be a homomorphism.
    """
    U, nq, rho = d.dc.size, d.qsize(), d.dc.rho_class
    _check_cochain(d, T)
    if verify:
        _check_fibers(d, T)
    sums = d.sum_table()
    table, m = d.dc.m_table(), d.dc.m_class
    tables = {}
    for sym, ar in d.signature.symbols:
        ts = map(T.__getitem__, sums.cells[sym])
        if ar == 0:
            tables[sym] = (next(ts),)
        else:
            tables[sym] = tuple([v if (v := table[o + t]) is not None
                                 else m(o // U // U, o // U % U, t)
                                 for o, t in zip(sums.offsets[sym], ts)])
        if sums.failure and sums.failure[0] == sym:
            raise sums.failure[1]
    alg = FiniteAlgebra(U, d.signature, tables, name=name or "A_T")
    if None in table:  # raised at the first triple that is no class
        i = table.index(None)
        m(i // U // U, i // U % U, i % U)
    m_flat = tuple(table)
    lifting = tuple(d.delta_l(q) for q in range(nq))
    return ExtensionRecord(alg, rho, d.q_alg, m_flat,
                           lifting=lifting, name=alg.name, datum=d)


# --- realization -----------------------------------------------------------

REALIZATION_CAP = 32


def check_realization(ext, d):
    """Search for a bijection i and lifting l realizing the datum in ext.

    The bijection is fiber-preserving; the search runs over per-fiber
    bijections and liftings with early pruning, on extensions of at most
    REALIZATION_CAP elements.  Returns a report with the witness or with
    "exhausted".
    """
    if ext.q_alg.size != d.qsize():
        return {"claim": "realizes datum", "holds": False,
                "witness": {"reason": "different quotients"}}
    if ext.alg.size > REALIZATION_CAP:
        raise DatumError("realization search capped at %d elements" % REALIZATION_CAP)
    if ext.m_flat is None:
        raise DatumError("extension carries no ternary operation")
    alg, beta = ext.alg, ext.beta
    pairalg = pair_algebra(alg, beta)
    d_bb = delta_congruence(alg, beta, beta, pairalg=pairalg)
    rho_pair = [ext.pi[p[0]] for p in pairalg.pairs]
    from .datum import DeltaClasses
    dcb = DeltaClasses(alg.size, ext.m_flat, pairalg.pairs, d_bb, rho_pair)
    if dcb.size != d.dc.size:
        return {"claim": "realizes datum", "holds": False,
                "witness": {"reason": "class counts differ"}}
    nq = d.qsize()

    def quotient_apply(sym, cls_args):
        reps = [dcb.class_reps[c] for c in cls_args]
        top = alg.apply(sym, tuple(r[0] for r in reps))
        bot = alg.apply(sym, tuple(r[1] for r in reps))
        return dcb.class_of_pair(top, bot)

    fibers_b = {q: dcb.fibers[q] for q in range(nq)}
    fibers_a = {q: d.fiber(q) for q in range(nq)}
    if any(len(fibers_b[q]) != len(fibers_a[q]) for q in range(nq)):
        return {"claim": "realizes datum", "holds": False,
                "witness": {"reason": "fiber sizes differ"}}
    blocks = beta.blocks()
    block_of_q = {q: blocks[[ext.pi[b[0]] for b in blocks].index(q)] for q in range(nq)}

    def bij_candidates(q):
        from itertools import permutations
        fb, fa = fibers_b[q], fibers_a[q]
        return [dict(zip(fb, perm)) for perm in permutations(fa)]

    def check(i_map, lift):
        dl = {q: dcb.delta_of[lift[q]] for q in range(nq)}
        for sym, ar in d.signature.symbols:
            if ar >= 2:
                for pos in range(1, ar + 1):
                    for qs in product(range(nq), repeat=ar - 1):
                        for x in range(dcb.size):
                            args = [dl[q] for q in qs[:pos - 1]] + [x] + \
                                   [dl[q] for q in qs[pos - 1:]]
                            rhs = i_map[quotient_apply(sym, args)]
                            lhs = d.action_apply(sym, pos, qs, i_map[x])
                            if lhs != rhs:
                                return False
            elif ar == 1:
                for x in range(dcb.size):
                    if d.fdelta_apply(sym, i_map[x], ()) != i_map[quotient_apply(sym, [x])]:
                        return False
            else:
                cls = dcb.class_of_pair(alg.tables[sym][0], alg.tables[sym][0])
                if d.fdelta[sym][0] != i_map[cls]:
                    return False
        return True

    lift_pools = [block_of_q[q] for q in range(nq)]
    bij_pools = [bij_candidates(q) for q in range(nq)]
    for lift in product(*lift_pools):
        for parts in product(*bij_pools):
            i_map = {}
            for part in parts:
                i_map.update(part)
            if check(i_map, lift):
                return {"claim": "realizes datum", "holds": True,
                        "witness": {"bijection": [i_map[c] for c in range(dcb.size)],
                                    "lifting": list(lift)}}
    return {"claim": "realizes datum", "holds": False,
            "witness": {"reason": "exhausted"}}


# --- semidirect test --------------------------------------------------------

def is_semidirect(ext):
    """A retraction r with r.r = r, ker r = beta, r a homomorphism, or None.

    Retractions constant on kernel blocks are exactly the choices of one
    representative per block, so the search is over those, Pi |block| of
    them, held to DEFAULT_CAP before the first is tried: the block search
    (_block_maps) with the constant lists [r] * |block|, r in block order,
    as each block's pool, so the least retraction is returned.
    """
    alg, beta = ext.alg, ext.beta
    blocks = beta.blocks()
    space = prod(map(len, blocks))
    if space > DEFAULT_CAP:
        raise CapExceeded("is_semidirect", space, DEFAULT_CAP,
                          "{stage}: {size} candidate retractions exceed cap {cap}")
    pools = [[[r] * len(block) for r in block] for block in blocks]
    return next(_block_maps(_search_plan(alg, blocks), pools, alg), None)


# --- transfer products ------------------------------------------------------

def tensor_product(b_alg, q_alg, plus_table, transfers, name=None):
    """Algebra on B x Q with f((b1,q1),..) = (f(b) + T_f(q), f(q)).

    plus_table is a flat binary table on B; transfers maps each symbol to a
    dict Q-tuple -> B.  Pair (b,q) is encoded b*|Q|+q; the right projection
    is a homomorphism onto Q by construction.
    """
    if b_alg.signature != q_alg.signature:
        raise AlgebraError("factors must share the signature")
    nb, nq = b_alg.size, q_alg.size
    n = nb * nq
    tables = {}
    for sym, ar in b_alg.signature.symbols:
        tf = transfers[sym]
        if ar == 0:
            b = plus_table[b_alg.tables[sym][0] * nb + tf[()]]
            tables[sym] = (b * nq + q_alg.tables[sym][0],)
            continue
        flat = []
        for args in product(range(n), repeat=ar):
            bs = tuple(a // nq for a in args)
            qs = tuple(a % nq for a in args)
            b = plus_table[b_alg.apply(sym, bs) * nb + tf[qs]]
            flat.append(b * nq + q_alg.apply(sym, qs))
        tables[sym] = tuple(flat)
    return FiniteAlgebra(n, b_alg.signature, tables,
                         name=name or "%s(x)%s" % (b_alg.name, q_alg.name))


def tensor_right_kernel(b_alg, q_alg):
    """ker of the right projection of a tensor product, as a congruence."""
    nb, nq = b_alg.size, q_alg.size
    return kernel_of_map([x % nq for x in range(nb * nq)], nb * nq)


# --- coboundary difference ---------------------------------------------------

def coboundary_of(d, h):
    """The 2-coboundary G_f produced by a fiber-respecting h: Q -> classes.

    G_f(x) = f-delta(h(x1), l(x2..)) -_u h(f(x)) +_u sum of action terms,
    left-associated at u = l(f(x)).  A symbol's cells go at once, each term
    read by AffineDatum.terms and each sum off the m table.  KeyError when
    an entry or a sum is missing.
    """
    size, table, qs, out = d.dc.size, d.dc.m_table(), range(d.qsize()), []
    zero_of = [d.delta_l(q) for q in qs]
    missing = "coboundary_of: a missing entry or a sum that is no class"
    for sym, ar in d.signature.symbols:
        bases = d.q_alg.tables[sym]
        zeros = list(map(zero_of.__getitem__, bases))
        vals = [table[(z * size + h[b]) * size + z] for b, z in zip(bases, zeros)]
        for k in range(1, ar + 1):
            terms = d.terms(sym, k, h, qs)
            if None in vals or None in terms:
                raise KeyError(missing)
            pairs = zip(terms, vals) if k == 1 else zip(vals, terms)
            vals = [table[(x * size + z) * size + y] for (x, y), z in zip(pairs, zeros)]
        if None in vals:
            raise KeyError(missing)
        out += vals
    return tuple(out)


def fiber_respecting_maps(d):
    """All h: Q -> Delta-classes with h(q) in the fiber over q, Pi |fiber|
    of them, held to DEFAULT_CAP before the list is built."""
    pools = [d.fiber(q) for q in range(d.qsize())]
    space = prod(map(len, pools))
    if space > DEFAULT_CAP:
        raise CapExceeded("fiber_respecting_maps", space, DEFAULT_CAP,
                          "{stage}: {size} fiber-respecting maps exceed cap {cap}")
    return [tuple(h) for h in product(*pools)]


def cocycle_difference_coboundary(d, T, Tp):
    """The first h in fiber_respecting_maps order with coboundary(h) =
    T' - T, or None: a lookup in the datum's coboundary table."""
    from .cohomology import _coboundary_table
    _check_cochain(d, T, Tp)
    witnesses = _coboundary_table(d).get(_serialized_sub(d, Tp, T))
    return witnesses[0] if witnesses else None


# --- the A(alpha)/Delta_{alpha 1} transfer decomposition ---------------------

def delta_quotient(alg, alpha, beta, cap=DEFAULT_CAP):
    """A(alpha)/Delta_{alpha beta} as an algebra, with the pair algebra and
    the pair-index -> class map."""
    from .algebras import quotient_algebra
    pairalg = pair_algebra(alg, alpha, cap=cap)
    dcong = delta_congruence(alg, alpha, beta, cap=cap, pairalg=pairalg)
    qalg, classmap = quotient_algebra(pairalg, dcong)
    return qalg, pairalg, classmap


def central_tensor_decomposition(alg, alpha, difference_term, cap=DEFAULT_CAP):
    """A/[alpha,1] as B (x)^T Q with B = A(alpha)/Delta_{alpha 1}, Q = A/alpha.

    The transfer is T_f(q) = [r(f(l(q))) // f(l(q))]/Delta_{alpha 1} and the
    sum on B is d(x, 0, y) at the diagonal class 0.  Representative
    independence of the transfer is asserted.  Returns a dict with the
    factors, the product and the isomorphism (None if not found).
    """
    from .algebras import quotient_algebra, find_isomorphism
    from .commutator import tc_commutator, is_abelian
    from .congruences import Congruence
    from .terms import eval_term

    n = alg.size
    if not is_abelian(alg, alpha, cap=cap):
        raise DatumError("alpha is not abelian")
    b_alg, pairalg, classmap = delta_quotient(alg, alpha, Congruence.all(n), cap=cap)
    diag = {classmap[pairalg.pair_index[(u, u)]] for u in range(n)}
    if len(diag) != 1:
        raise DatumError("diagonal is not a single Delta_{alpha 1} class")
    zero = diag.pop()
    plus = tuple(eval_term(b_alg, difference_term, {"x0": x, "x1": zero, "x2": y})
                 for x in range(b_alg.size) for y in range(b_alg.size))
    q_alg, blockmap = quotient_algebra(alg, alpha)
    lifting = [min(x for x in range(n) if blockmap[x] == q)
               for q in range(q_alg.size)]
    blocks_by_q = {}
    for x in range(n):
        blocks_by_q.setdefault(blockmap[x], []).append(x)
    transfers = {}
    for sym, ar in alg.signature.symbols:
        tf = {}
        for qs in product(range(q_alg.size), repeat=ar):
            vals = set()
            for xs in product(*(blocks_by_q[q] for q in qs)):
                fx = alg.apply(sym, xs)
                rfx = lifting[blockmap[fx]]
                frx = alg.apply(sym, tuple(lifting[blockmap[x]] for x in xs))
                vals.add(classmap[pairalg.pair_index[(rfx, frx)]])
            if len(vals) != 1:
                raise DatumError("transfer for %r depends on representatives" % sym)
            tf[qs] = vals.pop()
        transfers[sym] = tf
    prod_alg = tensor_product(b_alg, q_alg, plus, transfers)
    comm = tc_commutator(alg, alpha, Congruence.all(n), cap=cap)
    target, _ = quotient_algebra(alg, comm)
    iso = find_isomorphism(target, prod_alg)
    return {"B": b_alg, "Q": q_alg, "plus": plus, "zero": zero,
            "transfers": transfers, "product": prod_alg, "target": target,
            "iso": iso}


def two_step_decomposition(alg, difference_term, cap=DEFAULT_CAP):
    """Represent a 2-step nilpotent algebra as a right-associated transfer
    product of two abelian algebras.  Returns the decomposition dict with a
    'nilpotent' flag for [1,[1,1]] = 0."""
    from .commutator import tc_commutator
    from .congruences import Congruence
    one = Congruence.all(alg.size)
    derived = tc_commutator(alg, one, one, cap=cap)
    step2 = tc_commutator(alg, one, derived, cap=cap)
    if not step2.is_equality():
        return {"nilpotent": False, "derived": derived, "step2": step2}
    out = central_tensor_decomposition(alg, derived, difference_term, cap=cap)
    out["nilpotent"] = True
    out["derived"] = derived
    return out


def is_two_step_nilpotent(alg, cap=DEFAULT_CAP):
    from .commutator import tc_commutator
    from .congruences import Congruence
    one = Congruence.all(alg.size)
    derived = tc_commutator(alg, one, one, cap=cap)
    return tc_commutator(alg, one, derived, cap=cap).is_equality()


def lower_central_series(alg, cap=DEFAULT_CAP, max_steps=8):
    """[1]_1 = [1,1], [1]_{k+1} = [1,[1]_k] until equality or stabilization.

    Returns (series, nilpotent); series[k] is [1]_k (series[0] = 1)."""
    from .commutator import tc_commutator
    from .congruences import Congruence
    one = Congruence.all(alg.size)
    series = [one]
    while len(series) <= max_steps:
        nxt = tc_commutator(alg, one, series[-1], cap=cap)
        if nxt.is_equality():
            series.append(nxt)
            return series, True
        if nxt == series[-1]:
            series.append(nxt)
            return series, False
        series.append(nxt)
    return series, False


def nilpotent_decomposition(alg, difference_term, cap=DEFAULT_CAP):
    """Right-associated transfer-product decomposition of a nilpotent
    algebra into abelian factors.

    Each step peels the last nonzero lower-central term alpha, which is
    central and abelian, giving alg ~= B (x)^T (alg/alpha); the quotient is
    decomposed recursively and the transfer is re-indexed along the
    recursive isomorphism.  Returns a dict with the factor list, the nested
    product and the isomorphism, or nilpotent=False.
    """
    from .algebras import find_isomorphism
    from .commutator import is_abelian
    from .congruences import Congruence
    if is_abelian(alg, Congruence.all(alg.size), cap=cap):
        return {"nilpotent": True, "factors": [alg], "product": alg,
                "iso": list(range(alg.size)), "steps": 1}
    series, nilpotent = lower_central_series(alg, cap=cap)
    if not nilpotent:
        return {"nilpotent": False, "series": series}
    alpha = series[-2]  # last nonzero term; [1, alpha] = 0 so alpha is central
    out = central_tensor_decomposition(alg, alpha, difference_term, cap=cap)
    sub = nilpotent_decomposition(out["Q"], difference_term, cap=cap)
    if not sub["nilpotent"]:
        return {"nilpotent": False, "series": series}
    psi = sub["iso"]  # out["Q"] -> sub["product"]
    psi_inv = [0] * len(psi)
    for q, p in enumerate(psi):
        psi_inv[p] = q
    transfers = {}
    for sym, tf in out["transfers"].items():
        transfers[sym] = {tuple(ps): tf[tuple(psi_inv[p] for p in ps)]
                          for ps in (tuple(k) for k in
                                     product(range(len(psi)),
                                             repeat=alg.signature.arity(sym)))}
    prod_alg = tensor_product(out["B"], sub["product"], out["plus"], transfers)
    iso = find_isomorphism(alg, prod_alg)
    if iso is None:
        raise DatumError("nilpotent decomposition lost the isomorphism")
    return {"nilpotent": True, "factors": [out["B"]] + sub["factors"],
            "product": prod_alg, "iso": iso, "steps": 1 + sub["steps"]}
