"""JSON file formats and the named workspace used by the CLI.

Algebra files: {"name", "size", "signature": [{"symbol","arity"}...],
"operations": {symbol: nested-array}} with an arity-k table a k-deep nested
array (arity 0 is a bare integer).  Congruence files: {"algebra", "blocks"}.
Equation files: a JSON array of two-element arrays of term strings.
"""

import json
import os
from itertools import chain, product

from .algebras import AlgebraError, FiniteAlgebra, Signature
from .congruences import Congruence
from .terms import TermError, check_term, parse_term, term_table, term_to_str


class InputError(ValueError):
    """Malformed file or reference; maps to CLI exit code 2."""


def algebra_to_json(alg):
    ops = {}
    for sym, ar in alg.signature.symbols:
        ops[sym] = _nested(alg.tables[sym], [alg.size] * ar)
    return {"name": alg.name or "algebra", "size": alg.size,
            "signature": [{"symbol": s, "arity": a}
                          for s, a in alg.signature.symbols],
            "operations": ops}


def algebra_from_json(data):
    try:
        sig = Signature([(entry["symbol"], entry["arity"])
                         for entry in data["signature"]])
        return FiniteAlgebra(data["size"], sig, data["operations"],
                             name=data.get("name"))
    except (KeyError, TypeError, AlgebraError) as exc:
        raise InputError("bad algebra file: %s" % exc)


def congruence_to_json(cong, algebra_name):
    return {"algebra": algebra_name, "blocks": cong.blocks()}


def congruence_from_json(data, alg):
    if not isinstance(data, dict):
        raise InputError("bad congruence file: expected an object with \"blocks\", "
                         "not %s" % type(data).__name__)
    try:
        if data.get("algebra") not in (None, alg.name):
            raise InputError("congruence file names algebra %r, expected %r"
                             % (data.get("algebra"), alg.name))
        return Congruence.from_blocks(alg.size, data["blocks"])
    except (KeyError, TypeError, AlgebraError) as exc:
        raise InputError("bad congruence file: %s" % exc)


def equations_to_json(equations):
    return [[term_to_str(l), term_to_str(r)] for l, r in equations]


def equations_from_json(data):
    try:
        return [(parse_term(l), parse_term(r)) for l, r in data]
    except (TypeError, ValueError) as exc:
        raise InputError("bad equations file: %s" % exc)


GROUP_EQUATIONS = [
    ("(mul (mul x0 x1) x2)", "(mul x0 (mul x1 x2))"),
    ("(mul e x0)", "x0"),
    ("(mul x0 e)", "x0"),
    ("(mul (inv x0) x0)", "e"),
    ("(mul x0 (inv x0))", "e"),
]

ABELIAN_GROUP_EQUATIONS = GROUP_EQUATIONS + [("(mul x0 x1)", "(mul x1 x0)")]

BUILTIN_EQUATIONS = {
    "groups": GROUP_EQUATIONS,
    "abelian-groups": ABELIAN_GROUP_EQUATIONS,
}


def builtin_equations(name):
    if name not in BUILTIN_EQUATIONS:
        raise InputError("unknown builtin equation set %r (have: %s)"
                         % (name, ", ".join(sorted(BUILTIN_EQUATIONS))))
    return [(parse_term(l), parse_term(r)) for l, r in BUILTIN_EQUATIONS[name]]


def datum_to_json(d):
    """Serialize a datum; class indices refer to the least-representative
    ordering, action tables are keyed "symbol:position"; f-delta nests as
    [class][q2]...[qk] and an action as [q at the other positions]...[class]."""
    fdelta = {sym: _nested(d.fdelta[sym], d.layouts[sym][0]) for sym in d.signature.names()}
    actions = {"%s:%d" % key: _nested(tab, d.layouts[key][0])
               for key, tab in sorted(d.actions.items())}
    rho = [d.dc.rho_class[d.dc.class_of[p]] for p in range(len(d.dc.pairs))]
    return {
        "name": d.name or "datum",
        "q_algebra": algebra_to_json(d.q_alg),
        "mq": _nested(d.mq_flat, [d.qsize()] * 3),
        "carrier_size": d.asize,
        "m": _nested(d.m_flat, [d.asize] * 3),
        "alpha_blocks": d.alpha.blocks(),
        "rho": rho,
        "lifting": list(d.lifting),
        "fdelta": fdelta,
        "actions": actions,
    }


def _nested(flat, dims):
    """The flat table as nested lists over the index ranges dims, the first
    the outermost; its one entry when dims is empty."""
    if not dims:
        return flat[0]
    step = len(flat) // dims[0]
    return [_nested(flat[i * step:(i + 1) * step], dims[1:]) for i in range(dims[0])]


def datum_from_json(data):
    from .datum import datum_from_tables
    try:
        qdata = data["q_algebra"]
        sig = Signature([(e["symbol"], e["arity"]) for e in qdata["signature"]])
        nq = qdata["size"]
        m_table = data["m"]
        if isinstance(m_table, str):
            # a term needs the bundled source algebra to evaluate over
            if "source_algebra" not in data:
                raise InputError("datum gives m as a term but bundles no "
                                 "source_algebra to interpret it in")
            src = algebra_from_json(data["source_algebra"])
            term = parse_term(m_table)
            if src.size != data["carrier_size"]:
                raise InputError("source_algebra size differs from carrier_size")
            m_table = term_table(src, term, ("x0", "x1", "x2"))
        fdelta = {sym: _leaves(data["fdelta"][sym], ar) for sym, ar in sig.symbols}
        actions = {}
        for key, raw in data["actions"].items():
            sym, pos = key.split(":")
            actions[sym, int(pos)] = _leaves(raw, sig.arity(sym))
        # datum_from_tables checks every table at its full length
        return datum_from_tables(
            qdata["operations"], nq, data["mq"], data["carrier_size"],
            m_table, data["alpha_blocks"], data["rho"], data["lifting"],
            fdelta, actions, sig, name=data.get("name"))
    except (KeyError, TypeError, ValueError, AlgebraError) as exc:
        raise InputError("bad datum file: %s" % exc)


def _leaves(node, depth, key=()):
    """{index tuple: leaf} of a depth-deep nested list, however ragged."""
    if depth == 0:
        return {key: node}
    out = {}
    for i, child in enumerate(node):
        out.update(_leaves(child, depth - 1, key + (i,)))
    return out


def cocycle_to_json(d, T, datum_name=None):
    """A 2-cochain, one class per cell in cells() order, as nested tables
    per symbol."""
    nq, tables = d.qsize(), {}
    for sym, ar in d.signature.symbols:
        first = d.cell_index(sym, (0,) * ar)
        tables[sym] = _nested(T[first:first + nq ** ar], [nq] * ar)
    return {"datum": datum_name or d.name or "datum", "tables": tables}


def cocycle_from_json(d, data):
    """The 2-cochain of a cocycle file, each value checked to be a class."""
    try:
        tables = {sym: _leaves(data["tables"][sym], ar)
                  for sym, ar in d.signature.symbols}
        for sym, ar in d.signature.symbols:
            if set(tables[sym]) != set(product(range(d.qsize()), repeat=ar)):
                raise InputError("bad cocycle file: table of %r lacks a value for "
                                 "some Q arguments, or has extra ones" % sym)
    except (KeyError, TypeError) as exc:
        raise InputError("bad cocycle file: %s" % exc)
    T = tuple(tables[sym][qs] for sym, qs in d.cells())
    for (sym, qs), v in zip(d.cells(), T):
        # bool is an int subclass, so check the type exactly
        if type(v) is not int or not 0 <= v < d.dc.size:
            raise InputError("bad cocycle file: value %r of %s%r is not a class "
                             "in 0..%d" % (v, sym, qs, d.dc.size - 1))
    return T


def dump_json(data, path=None):
    """Canonical JSON emission: sorted keys, no whitespace drift."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


class Workspace:
    """Named store of loaded inputs; file references resolved eagerly."""

    def __init__(self):
        self.algebras = {}
        self.congruences = {}
        self.data = {}

    def load_algebra(self, path):
        alg = algebra_from_json(self._read(path))
        if alg.name in self.algebras:
            raise InputError("duplicate algebra name %r" % alg.name)
        self.algebras[alg.name] = alg
        return alg

    def load_congruence(self, path, alg):
        return congruence_from_json(self._read(path), alg)

    def load_equations(self, ref, signature):
        """The equations at ref, each side checked against signature."""
        eqs = (builtin_equations(ref.split(":", 1)[1]) if ref.startswith("builtin:")
               else equations_from_json(self._read(ref)))
        try:
            for side in chain.from_iterable(eqs):
                check_term(side, signature)
        except TermError as exc:
            raise InputError("bad equations: %s" % exc)
        return eqs

    def _read(self, path):
        if not os.path.exists(path):
            raise InputError("no such file: %s" % path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError("%s: invalid JSON at line %d column %d"
                             % (path, exc.lineno, exc.colno))
