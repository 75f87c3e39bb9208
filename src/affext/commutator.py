"""Term-condition commutator and abelianness/centrality tests."""

from functools import partial
from itertools import product

from .algebras import AlgebraError
from .congruences import Congruence, cg, m_matrices, pair_algebra, DEFAULT_CAP
from .terms import eval_term, term_vars


def tc_commutator(alg, alpha, beta, cap=DEFAULT_CAP, matrices=None):
    """[alpha,beta]: least congruence delta such that every matrix
    (q1,q2,q3,q4) in M(alpha,beta) with q1 delta q2 also has q3 delta q4.

    Fixpoint: start from equality, scan matrices, add violated bottom rows,
    close under cg, repeat until stable.
    """
    if matrices is None:
        matrices = m_matrices(alg, alpha, beta, cap=cap)
    matrices = sorted(matrices)
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
    """[alpha,alpha] = 0.

    When some basic ternary operation m of alg is Mal'cev on every
    alpha-block, this is one Cg on A(alpha) instead of the M(alpha,alpha)
    closure; otherwise (group signatures, for one) it is tc_commutator.

    Why the Cg route is exact: let R, a relation on A(alpha), join the two
    columns of each matrix of M(alpha,alpha).  R is reflexive and
    compatible, and the four entries of a matrix share one alpha-block.
    For (u,v) in R, applying m to (v,v), (u,v), (u,u) in R gives
    (m(v,u,u), m(v,v,u)) = (v,u), so R is symmetric; for (u,v), (v,w) in
    R, applying m to (u,v), (v,v), (v,w) gives (u,w), so R is transitive.
    Both steps use only m(x,y,y) = x = m(y,y,x) on alpha-pairs.  So R is a
    congruence, and R = Tr M = Delta_{alpha,alpha}, the Cg on A(alpha) of
    {((u,u),(v,v)) : u alpha v}.  [alpha,alpha] = 0 says that no matrix
    has q1 = q2 but q3 != q4: no Delta-class holds two pairs (x,y) and
    (x,y') with y != y'.
    """
    blocks = alpha.blocks()
    if not any(ar == 3 and is_malcev_on_blocks(partial(alg.op, sym), blocks)
               for sym, ar in alg.signature.symbols):
        return tc_commutator(alg, alpha, alpha, cap=cap).is_equality()
    pairalg = pair_algebra(alg, alpha, cap=cap)
    index = pairalg.pair_index
    delta_c = cg(pairalg, [(index[(u, u)], index[(v, v)]) for u, v in alpha.pairs()])
    first = {}
    for i, (x, _) in enumerate(pairalg.pairs):
        if first.setdefault((delta_c.rep[i], x), i) != i:
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
