"""Terms over a finite signature, written as s-expressions.

A term is either a variable name ("x0", "x1", ...) or a tuple whose head is
an operation symbol and whose remaining entries are subterms.  Nullary
symbols may be written bare ("e") or in parentheses ("(e)"); both parse to
the one-element tuple ("e",).
"""

import re

_VAR_RE = re.compile(r"^x\d+$")


class TermError(ValueError):
    pass


def is_var(t):
    return isinstance(t, str)


def parse_term(text):
    """Parse an s-expression like "(mul x0 (inv x1))" into a term."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise TermError("empty term")
    term, pos = _read(tokens, 0, text)
    if pos != len(tokens):
        raise TermError("trailing input in %r" % text)
    return term


def _read(tokens, pos, text):
    """The term starting at tokens[pos], and the position after it."""
    if pos >= len(tokens):
        raise TermError("unexpected end of term: %r" % text)
    tok = tokens[pos]
    pos += 1
    if tok == "(":
        if pos >= len(tokens):
            raise TermError("unbalanced parenthesis in %r" % text)
        head = tokens[pos]
        pos += 1
        if head in ("(", ")"):
            raise TermError("expected symbol after '(' in %r" % text)
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            arg, pos = _read(tokens, pos, text)
            args.append(arg)
        if pos >= len(tokens):
            raise TermError("unbalanced parenthesis in %r" % text)
        return (head,) + tuple(args), pos + 1  # consume ')'
    if tok == ")":
        raise TermError("unexpected ')' in %r" % text)
    if _VAR_RE.match(tok):
        return tok, pos
    return (tok,), pos  # bare nullary symbol


def term_to_str(t):
    if is_var(t):
        return t
    if len(t) == 1:
        return t[0]
    return "(" + " ".join([t[0]] + [term_to_str(s) for s in t[1:]]) + ")"


def term_vars(*terms):
    """Distinct variables of the terms in left-to-right leaf order, those of
    the first term first: term_vars(lhs, rhs) names an equation's variables."""
    out = []
    for t in terms:
        _collect_vars(t, out)
    return out


def _collect_vars(t, out):
    if is_var(t):
        if t not in out:
            out.append(t)
    else:
        for c in t[1:]:
            _collect_vars(c, out)


def check_term(t, signature):
    """Raise TermError unless every node of t matches the signature's arities."""
    if is_var(t):
        return
    name = t[0]
    ar = signature.arity(name)
    if ar is None:
        raise TermError("symbol %r not in signature" % name)
    if len(t) - 1 != ar:
        raise TermError("symbol %r expects %d arguments, got %d" % (name, ar, len(t) - 1))
    for s in t[1:]:
        check_term(s, signature)


def eval_term(alg, t, env):
    """Interpret t in alg under the variable assignment env (dict var -> element)."""
    if is_var(t):
        if t not in env:
            raise TermError("unbound variable %r" % t)
        return env[t]
    name = t[0]
    if name not in alg.signature.arities:
        raise TermError("symbol %r not in signature" % name)
    args = [eval_term(alg, s, env) for s in t[1:]]
    return alg.apply(name, args)


def term_table(alg, t, variables):
    """The values of t in alg at every assignment to variables, as one flat
    tuple in the layout of an arity-len(variables) table: the assignment
    (v0, v1, ...) sits at base-n position v0 v1 ..., leftmost most
    significant.  Each node's tuple is built from its children's through
    the node's flat table, so eval_term runs on no single assignment; a
    variable outside variables or a symbol outside the signature raises
    the TermError eval_term would raise, in the same order, and a node
    with the wrong number of arguments raises TermError too.
    """
    return term_tables(alg, [t], variables)[t]


def term_tables(alg, terms, variables):
    """{subterm: term_table} for every subterm of each of terms and every
    variable, from one walk of the terms in turn: a subterm met again is
    read back, not walked again.  The TermErrors are term_table's on each
    term in turn."""
    n, k = alg.size, len(variables)
    tables = {v: tuple([x for x in range(n) for _ in range(n ** (k - 1 - j))]) * n ** j
              for j, v in enumerate(variables)}
    for t in terms:
        _node_table(alg, t, tables, n, n ** k)
    return tables


def _node_table(alg, t, tables, n, size):
    """term_table of t, filed in tables, which holds each variable's table
    and each subterm's already made."""
    if t in tables:
        return tables[t]
    if is_var(t):
        raise TermError("unbound variable %r" % t)
    name = t[0]
    ar = alg.signature.arity(name)
    if ar is None:
        raise TermError("symbol %r not in signature" % name)
    if len(t) - 1 != ar:
        raise TermError("symbol %r expects %d arguments, got %d" % (name, ar, len(t) - 1))
    tab = alg.tables[name]
    if ar == 0:
        out = (tab[0],) * size
    else:
        codes = _node_table(alg, t[1], tables, n, size)
        for s in t[2:]:
            codes = [c * n + x for c, x in zip(codes, _node_table(alg, s, tables, n, size))]
        out = tuple(map(tab.__getitem__, codes))
    tables[t] = out
    return out


def linearize_term(t):
    """Rename leaves of t to x0,x1,... left-to-right with no repeats.

    Returns (t_sigma, sigma) where sigma maps each fresh variable onto the
    variable of t it replaced, so that substituting sigma into t_sigma
    recovers t.
    """
    sigma = {}
    return _linearize(t, sigma), sigma


def _linearize(s, sigma):
    """s with each leaf renamed to the next fresh variable, recorded in sigma."""
    if is_var(s):
        fresh = "x%d" % len(sigma)
        sigma[fresh] = s
        return fresh
    return (s[0],) + tuple(_linearize(c, sigma) for c in s[1:])


GROUP_DIFFERENCE_TERM = parse_term("(mul x0 (mul (inv x1) x2))")
