"""Term-condition commutator and abelianness/centrality tests."""

from functools import partial
from itertools import product

from .algebras import AlgebraError, CapExceeded, congruence_violation
from .congruences import Congruence, cg, m_matrices, DEFAULT_CAP
from .terms import eval_term, term_vars


def tc_commutator(alg, alpha, beta, cap=DEFAULT_CAP, matrices=None):
    """[alpha,beta]: least congruence delta such that every matrix
    (q1,q2,q3,q4) in M(alpha,beta) with q1 delta q2 also has q3 delta q4.

    Fixpoint: start from equality, scan matrices, add violated bottom rows,
    close under cg, repeat until stable.
    """
    if matrices is None:
        matrices = m_matrices(alg, alpha, beta, cap=cap)
    delta_c = Congruence.equality(alg.size)
    while True:
        rep = delta_c.rep
        added = []
        for (q1, q2, q3, q4) in matrices:
            if rep[q1] == rep[q2] and rep[q3] != rep[q4]:
                added.append((q3, q4))
        if not added:
            return delta_c
        delta_c = cg(alg, added + [(x, rep[x]) for x in range(alg.size)])


def is_abelian(alg, alpha, cap=DEFAULT_CAP):
    """[alpha,alpha] = 0: tc_commutator, unless some basic ternary m is
    Mal'cev on every alpha-block.  Then alpha must be a congruence, m must
    be x - y + z for an abelian group on every block (else False), and
    for every basic f, position i and context c, the translation tau_c
    must take each alpha-pair (x, y) to the same increment tau_c(y) -
    tau_c(x) as tau_c' takes (rep x, y - x) to, c' the reps of c; a - b
    is m(a, b, rep a).  The cap counts the entries before any is read.

    Why it is exact.  Let theta be the kernel of (x,y) -> (rep x, y - x)
    on A(alpha), and Delta the Cg there of ((u,u),(v,v)), u alpha v.
    - theta <= Delta: m applied to (x,y), (x,x) and a generator
      ((x,x),(x',x')) joins (x,y) and (x', y - x + x').
    - Abelian means no Delta-class holds (x,y), (x,y') with y != y', and
      no theta-class does; if (x,y) Delta (x',y'), m of (x',y'), (x',x'),
      (x,x) adds (x, y' - x' + x) to the class.  So alpha is abelian iff
      Delta = theta iff theta (it holds the generators) is a congruence.
    - f(b) - f(a) on pairs (a_j, b_j) is the sum over i of the steps
      tau_c(b_i) - tau_c(a_i), c = (b_1..b_{i-1}, a_{i+1}..).  Steps equal
      to those at the canonical base make it depend on the theta-classes
      alone; conversely each step is f of theta-related tuples of pairs.
    - An abelian Mal'cev block is affine (Herrmann 1979), so when m is
      not x - y + z on a block, alpha is not abelian.
    """
    blocks = alpha.blocks()
    m = next((alg.tables[sym] for sym, ar in alg.signature.symbols
              if ar == 3 and is_malcev_on_blocks(partial(alg.op, sym), blocks)), None)
    if m is None:
        return tc_commutator(alg, alpha, alpha, cap=cap).is_equality()
    witness = congruence_violation(alg, alpha)
    if witness is not None:
        raise AlgebraError("alpha is not a congruence: %s" % (witness,))
    return (verify_ternary_abelian_group_on_blocks(m, blocks, alg.size)
            and _translations_agree(alg, alpha, m, cap))


def _translations_agree(alg, alpha, m, cap):
    """is_abelian's translation test, once m is x - y + z on every block."""
    n, rep = alg.size, alpha.rep
    pairs = [(x, y) for x, y in alpha.pairs() if x != y]
    ops = [(alg.tables[sym], ar) for sym, ar in alg.signature.symbols if ar]
    entries = sum(ar * n ** (ar - 1) for _, ar in ops) * len(pairs)
    if entries > cap:
        raise CapExceeded("is_abelian", entries, cap,
                          "{stage}: {size} translation entries exceed cap {cap}")
    diff = [m[(a * n + b) * n + rep[a]] for a in range(n) for b in range(n)]
    canonical = [(rep[x], diff[y * n + x]) for x, y in pairs]
    for tab, ar in ops:
        hat = [0]  # hat[k]: the code k with each base-n digit sent to its rep
        for _ in range(ar):
            hat = [h * n + r for h in hat for r in rep]
        for i in range(ar):
            s, want = n ** (ar - 1 - i), {}
            for b in (p + j for p in range(0, len(tab), n * s) for j in range(s)):
                col, h = tab[b:b + n * s:s], hat[b]
                if h not in want:
                    base = tab[h:h + n * s:s]
                    want[h] = [diff[base[y] * n + base[x]] for x, y in canonical]
                if [diff[col[y] * n + col[x]] for x, y in pairs] != want[h]:
                    return False
    return True


def is_right_central(alg, alpha, cap=DEFAULT_CAP):
    """[1,alpha] = 0."""
    return tc_commutator(alg, Congruence.all(alg.size), alpha, cap=cap).is_equality()


def is_left_central(alg, alpha, cap=DEFAULT_CAP):
    """[alpha,1] = 0."""
    return tc_commutator(alg, alpha, Congruence.all(alg.size), cap=cap).is_equality()


def verify_difference_term(algebras, term, congruences=None, weak=False, cap=DEFAULT_CAP):
    """Check a ternary term behaves as a (weak-)difference term on each algebra.

    Difference case: t(x,y,y) = x everywhere, and for each supplied
    congruence theta, (t(y,y,x), x) in [theta,theta] whenever x theta y.
    Weak case demands both memberships modulo [theta,theta] and, because the
    downstream extraction depends on it, the exact Mal'cev identities on
    every theta-block.  Returns a report dict; failures carry witnesses.

    A bare variable from x0,x1,x2 is accepted as a projection candidate;
    otherwise the term must use all three variables.
    """
    vs = set(term_vars(term))
    if not (vs == {"x0", "x1", "x2"}
            or (isinstance(term, str) and vs <= {"x0", "x1", "x2"})):
        raise AlgebraError("term is not ternary")
    failures = []
    for idx, alg in enumerate(algebras):
        thetas = [Congruence.all(alg.size)]
        if congruences is not None:
            thetas = list(congruences[idx])
        if not weak:
            for x in range(alg.size):
                for y in range(alg.size):
                    v = eval_term(alg, term, {"x0": x, "x1": y, "x2": y})
                    if v != x:
                        failures.append({"algebra": alg.name, "identity": "t(x,y,y)=x",
                                         "witness": {"x": x, "y": y, "value": v}})
        for theta in thetas:
            comm = tc_commutator(alg, theta, theta, cap=cap)
            for x in range(alg.size):
                for y in range(alg.size):
                    if not theta.related(x, y):
                        continue
                    v = eval_term(alg, term, {"x0": y, "x1": y, "x2": x})
                    if not comm.related(v, x):
                        failures.append({"algebra": alg.name,
                                         "identity": "t(y,y,x) [th,th] x",
                                         "witness": {"x": x, "y": y, "value": v}})
                    if weak:
                        w = eval_term(alg, term, {"x0": x, "x1": y, "x2": y})
                        if not comm.related(w, x):
                            failures.append({"algebra": alg.name,
                                             "identity": "t(x,y,y) [th,th] x",
                                             "witness": {"x": x, "y": y, "value": w}})
                        if v != x or w != x:
                            failures.append({"algebra": alg.name,
                                             "identity": "Mal'cev on theta-blocks",
                                             "witness": {"x": x, "y": y}})
    return {"claim": "weak-difference term" if weak else "difference term",
            "holds": not failures, "witness": failures or None}


def is_malcev_on_blocks(m_func, blocks):
    """m(x,y,y)=x and m(y,y,x)=x for all x,y inside each block."""
    for block in blocks:
        for x in block:
            for y in block:
                if m_func(x, y, y) != x or m_func(y, y, x) != x:
                    return False
    return True


def verify_ternary_abelian_group_on_blocks(m_table_or_func, blocks, size=None):
    """Whether m is a ternary abelian group operation x - y + z on each block.

    m_table_or_func is a flat ternary table (with size given) or a callable.
    Blocks must be preserved by m; a non-block-preserving m is an error.

    Theorem (Freese & McKenzie 1987; Gumm): m is Mal'cev on a block B and
    commutes with itself there iff, for e in B, x + y := m(x, e, y) is an
    abelian group on B and m(x, y, z) = x - y + z.  Given Mal'cev, e is the
    zero of +, and -x := m(e, x, e) is its inverse once x + (-x) = e holds,
    so the test below is O(|B|^3) instead of the |B|^9 enumeration of the
    3x3 self-commuting identity.
    """
    if callable(m_table_or_func):
        m = m_table_or_func
    else:
        tab = m_table_or_func
        n = size
        m = lambda a, b, c: tab[(a * n + b) * n + c]
    block_of = {}
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    for block in blocks:
        for x, y, z in product(block, repeat=3):
            if block_of[m(x, y, z)] != block_of[x]:
                raise AlgebraError("m is not block-preserving at (%d,%d,%d)" % (x, y, z))
    if not is_malcev_on_blocks(m, blocks):
        return False
    for block in blocks:
        e = block[0]
        add = {(x, y): m(x, e, y) for x in block for y in block}
        neg = {x: m(e, x, e) for x in block}
        for x in block:
            if add[x, neg[x]] != e:
                return False
            for y in block:
                xy = add[x, y]
                if xy != add[y, x]:
                    return False
                x_y = add[x, neg[y]]
                for z in block:
                    if add[xy, z] != add[x, add[y, z]] or m(x, y, z) != add[x_y, z]:
                        return False
    return True
