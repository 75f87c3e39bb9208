"""Batch command-line front end.

Exit codes: 0 success / property holds, 1 property fails (witness printed),
2 usage or input error, 3 cap exceeded.  JSON output is the stable contract;
text output is human-oriented.
"""

import argparse
import json
import sys

from .algebras import AlgebraError
from .cohomology import CapExceeded
from .serialization import InputError, Workspace, dump_json, read_json
from .terms import GROUP_DIFFERENCE_TERM, parse_term


def _parser():
    p = argparse.ArgumentParser(prog="affext",
                                description="Commutator invariants and extension "
                                            "cohomology for finite algebras")
    p.add_argument("command", help="subcommand (con, delta, commutator, abelian, "
                                   "central, datum, rebuild, realize, semidirect, "
                                   "cocycle, h2, h1, equiv, stab, oracle, "
                                   "verify-paper)")
    p.add_argument("action", nargs="?", default=None,
                   help="second word for con/datum/cocycle/oracle commands")
    p.add_argument("--alg", help="algebra file")
    p.add_argument("--con", help="congruence file (alpha)")
    p.add_argument("--con2", help="second congruence file (beta); 'all' or 'eq'")
    p.add_argument("--sigma", help="equations file or builtin:<name>")
    p.add_argument("--m", help="ternary term for the (weak-)difference operation")
    p.add_argument("--lift", help="lifting as 'q:a,q:a,...'")
    p.add_argument("--pairs", help="generating pairs 'a,b;c,d'")
    p.add_argument("--datum", help="datum file")
    p.add_argument("--cocycle", help="cocycle file")
    p.add_argument("--cocycle2", help="second cocycle file")
    p.add_argument("--kernel", help="catalog group name for oracle h2")
    p.add_argument("--quot", help="catalog group name for oracle h2")
    p.add_argument("--phi", default="trivial", choices=["trivial", "inversion"],
                   help="action for oracle h2")
    p.add_argument("--out", help="write the JSON result to this file")
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.add_argument("--cap", type=int, default=1 << 24,
                   help="search/enumeration cap")
    return p


def _emit(args, payload, text_lines):
    if args.out:
        dump_json(payload, args.out)
    if args.format == "json":
        sys.stdout.write(dump_json(payload))
    else:
        for line in text_lines:
            print(line)


def _require(args, *fields):
    for f in fields:
        if getattr(args, f) is None:
            raise InputError("--%s is required for this command" % f)


def _load_alpha(ws, args, alg):
    _require(args, "con")
    return _load_congruence(ws, args.con, alg)


def _load_beta(ws, args, alg):
    return _load_congruence(ws, "all" if args.con2 is None else args.con2, alg)


def _load_congruence(ws, value, alg):
    from .congruences import Congruence
    if value in ("all", "eq"):
        return (Congruence.all if value == "all" else Congruence.equality)(alg.size)
    return ws.load_congruence(value, alg)


def _parse_lift(args, alg, q_size):
    if not args.lift:
        return None
    lift = [None] * q_size
    try:
        for part in args.lift.split(","):
            q, a = part.split(":")
            lift[int(q)] = int(a)
    except (ValueError, IndexError):
        raise InputError("bad --lift syntax, expected 'q:a,q:a,...'")
    if any(v is None for v in lift):
        raise InputError("--lift must assign every block")
    return lift


def _extension(ws, args):
    _require(args, "alg")
    alg = ws.load_algebra(args.alg)
    alpha = _load_alpha(ws, args, alg)
    m = parse_term(args.m) if args.m else GROUP_DIFFERENCE_TERM
    for sym in ("mul", "inv", "e"):
        if args.m is None and alg.signature.arity(sym) is None:
            raise InputError("no --m given and the signature is not group-like")
    from .datum import ExtensionRecord
    lift = _parse_lift(args, alg, alpha.block_count())
    return ExtensionRecord.from_kernel(alg, alpha, m, lifting=lift, name=alg.name)


def _datum(ws, args):
    if args.datum:
        from .serialization import datum_from_json
        return datum_from_json(read_json(args.datum)), None
    from .datum import extract_datum
    ext = _extension(ws, args)
    d, T = extract_datum(ext, cap=args.cap)
    return d, T


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (AlgebraError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


def _dispatch(args):
    ws = Workspace()
    cmd = args.command

    if cmd == "con":
        if args.action != "gen":
            raise InputError("unknown con action %r (expected 'gen')" % args.action)
        _require(args, "alg", "pairs")
        alg = ws.load_algebra(args.alg)
        try:  # a chunk that is not two integers fails to unpack
            pairs = [(a, b) for a, b in (map(int, chunk.split(","))
                                         for chunk in args.pairs.split(";") if chunk)]
        except ValueError:
            raise InputError("bad --pairs syntax, expected 'a,b;c,d'")
        from .congruences import cg
        cong = cg(alg, pairs)
        payload = {"algebra": alg.name, "blocks": cong.blocks()}
        _emit(args, payload, ["blocks: %s" % cong.blocks()])
        return 0

    if cmd == "delta":
        _require(args, "alg")
        alg = ws.load_algebra(args.alg)
        alpha = _load_alpha(ws, args, alg)
        beta = _load_beta(ws, args, alg)
        from .congruences import delta_with_pair_algebra
        pairalg, cong = delta_with_pair_algebra(alg, alpha, beta, cap=args.cap)
        blocks = [[list(pairalg.pairs[i]) for i in block]
                  for block in cong.blocks()]
        payload = {"algebra": alg.name, "pair_count": pairalg.size,
                   "class_count": cong.block_count(), "classes": blocks}
        _emit(args, payload, ["pairs: %d, classes: %d" % (pairalg.size,
                                                          cong.block_count()),
                              "classes: %s" % blocks])
        return 0

    if cmd == "commutator":
        _require(args, "alg")
        alg = ws.load_algebra(args.alg)
        alpha = _load_alpha(ws, args, alg)
        beta = _load_beta(ws, args, alg)
        from .commutator import tc_commutator
        comm = tc_commutator(alg, alpha, beta, cap=args.cap)
        payload = {"algebra": alg.name, "blocks": comm.blocks(),
                   "is_equality": comm.is_equality()}
        _emit(args, payload, ["[alpha,beta] blocks: %s" % comm.blocks()])
        return 0

    if cmd == "abelian":
        _require(args, "alg")
        alg = ws.load_algebra(args.alg)
        alpha = _load_alpha(ws, args, alg)
        from .commutator import is_abelian
        value = is_abelian(alg, alpha, cap=args.cap)
        _emit(args, {"algebra": alg.name, "abelian": value},
              ["abelian: %s" % value])
        return 0

    if cmd == "central":
        _require(args, "alg")
        alg = ws.load_algebra(args.alg)
        alpha = _load_alpha(ws, args, alg)
        from .commutator import is_left_central, is_right_central
        left = is_left_central(alg, alpha, cap=args.cap)
        right = is_right_central(alg, alpha, cap=args.cap)
        _emit(args, {"algebra": alg.name, "left_central": left,
                     "right_central": right},
              ["left-central: %s, right-central: %s" % (left, right)])
        return 0

    if cmd == "datum":
        if args.action == "extract":
            from .serialization import datum_to_json, cocycle_to_json
            ext = _extension(ws, args)
            from .datum import extract_datum
            d, T = extract_datum(ext, cap=args.cap)
            payload = {"datum": datum_to_json(d),
                       "cocycle": cocycle_to_json(d, T)}
            _emit(args, payload,
                  ["extracted datum with %d classes over Q of size %d"
                   % (d.dc.size, d.qsize())])
            return 0
        if args.action == "validate":
            d, _ = _datum(ws, args)
            from .datum import validate_datum
            report = validate_datum(d, cap=args.cap)
            holds = all(r["holds"] for r in report)
            payload = {"holds": holds, "checks": report}
            lines = ["%-55s %s" % (r["claim"], "pass" if r["holds"] else "FAIL")
                     for r in report]
            if not holds:
                lines.append("witness: " + json.dumps(
                    [r for r in report if not r["holds"]], default=repr))
            _emit(args, payload, lines)
            return 0 if holds else 1
        raise InputError("unknown datum action %r" % args.action)

    if cmd == "rebuild":
        d, T = _datum(ws, args)
        if args.cocycle:
            from .serialization import cocycle_from_json
            T = cocycle_from_json(d, read_json(args.cocycle))
        if T is None:
            T = d.trivial_cocycle()
        from .cocycles import reconstruct
        ext = reconstruct(d, T)
        from .serialization import algebra_to_json
        payload = {"algebra": algebra_to_json(ext.alg),
                   "projection": list(ext.pi)}
        _emit(args, payload, ["reconstructed %d-element algebra" % ext.alg.size])
        return 0

    if cmd == "realize":
        _require(args, "datum")
        d, _ = _datum(ws, argparse.Namespace(**{**vars(args), "alg": None,
                                                "con": None}))
        ext = _extension(ws, args)
        from .cocycles import check_realization
        rep = check_realization(ext, d)
        payload = {"holds": rep["holds"], "witness": rep["witness"]}
        lines = ["realizes: %s" % rep["holds"]]
        if not rep["holds"]:
            lines.append("witness: " + json.dumps(rep["witness"], default=repr))
        _emit(args, payload, lines)
        return 0 if rep["holds"] else 1

    if cmd == "semidirect":
        ext = _extension(ws, args)
        from .cocycles import is_semidirect
        r = is_semidirect(ext)
        payload = {"algebra": ext.alg.name, "splits": r is not None,
                   "retraction": r}
        _emit(args, payload,
              ["retraction: %s" % (r,) if r is not None else "no retraction"])
        return 0

    if cmd == "cocycle":
        if args.action != "check":
            raise InputError("unknown cocycle action %r (expected 'check')"
                             % args.action)
        _require(args, "sigma")
        d, T = _datum(ws, args)
        if args.cocycle:
            from .serialization import cocycle_from_json
            T = cocycle_from_json(d, read_json(args.cocycle))
        if T is None:
            raise InputError("no cocycle given (use --cocycle or extract one)")
        eqs = ws.load_equations(args.sigma, d.signature)
        from .cocycles import check_cocycle
        rep = check_cocycle(d, T, eqs)
        payload = {"holds": rep["holds"], "witness": rep["witness"]}
        lines = ["cocycle check: %s" % ("pass" if rep["holds"] else "FAIL")]
        if not rep["holds"]:
            lines.append("witness: " + json.dumps(rep["witness"][:3], default=repr))
        _emit(args, payload, lines)
        return 0 if rep["holds"] else 1

    if cmd == "h2":
        _require(args, "sigma")
        d, _ = _datum(ws, args)
        eqs = ws.load_equations(args.sigma, d.signature)
        from .cohomology import h2 as h2_fn
        res = h2_fn(d, eqs, cap=args.cap)
        payload = res.to_json()
        if not res.classes:
            lines = ["H2 empty: the equations do not contain the datum"]
        else:
            names = ", ".join(
                "%s%s" % (c["extension_iso_type"], " (split)" if c["is_zero"] else "")
                for c in res.classes)
            factors = payload["invariant_factors"]
            desc = " x ".join("Z/%d" % f for f in factors) if factors else "0"
            lines = ["H2 = %s, classes: [%s]" % (desc, names)]
        _emit(args, payload, lines)
        return 0

    if cmd == "h1":
        d, _ = _datum(ws, args)
        from .cohomology import h1 as h1_fn
        res = h1_fn(d)
        payload = dict(res)
        desc = " x ".join("Z/%d" % f for f in res["invariant_factors"]) \
            if res["invariant_factors"] else "0"
        _emit(args, payload,
              ["H1 = %s (|Z1|=%d, |PDer|=%d, exact=%s)"
               % (desc, res["Z1_order"], res["PDer_order"], res["exact"])])
        return 0

    if cmd == "equiv":
        _require(args, "cocycle", "cocycle2")
        d, _ = _datum(ws, args)
        from .serialization import cocycle_from_json
        T1 = cocycle_from_json(d, read_json(args.cocycle))
        T2 = cocycle_from_json(d, read_json(args.cocycle2))
        from .cohomology import are_equivalent
        eq = are_equivalent(d, T1, T2)
        _emit(args, {"equivalent": eq}, ["equivalent: %s" % eq])
        return 0

    if cmd == "stab":
        ext = _extension(ws, args)
        from .cohomology import stabilizers
        stabs = stabilizers(ext)
        payload = {"count": len(stabs), "automorphisms": [list(g) for g in stabs]}
        _emit(args, payload, ["stabilizing automorphisms: %d" % len(stabs)])
        return 0

    if cmd == "oracle":
        if args.action != "h2":
            raise InputError("unknown oracle action %r (expected 'h2')" % args.action)
        _require(args, "kernel", "quot")
        from .groups import catalog, classical_h2, trivial_action, inversion_action
        cat = catalog()
        if args.kernel not in cat or args.quot not in cat:
            raise InputError("kernel and quot must be catalog names: %s"
                             % ", ".join(sorted(cat)))
        K, Q = cat[args.kernel], cat[args.quot]
        act = trivial_action if args.phi == "trivial" else inversion_action
        res = classical_h2(K, Q, act(K, Q), cap=args.cap)
        payload = {"order": res.order, "types": res.class_types(),
                   "Z2_order": len(res.cocycles),
                   "B2_order": len(res.coboundaries)}
        _emit(args, payload, ["classical H2 order %d, classes: %s"
                              % (res.order, res.class_types())])
        return 0

    if cmd == "verify-paper":
        from .verify import run_all, results_to_json
        results, ok = run_all(cap=args.cap)
        payload = results_to_json(results)
        lines = ["%-20s %-5s %6.2fs" % (r["id"],
                                        "pass" if r["holds"] else "FAIL",
                                        r["runtime"])
                 for r in results]
        lines.append("all checks hold" if ok else "SOME CHECKS FAILED")
        _emit(args, payload, lines)
        if not ok:
            bad = [r for r in results if not r["holds"]]
            print("witnesses: %s" % json.dumps(
                [{"id": r["id"], "witness": str(r["witness"])[:500]}
                 for r in bad]), file=sys.stderr)
        return 0 if ok else 1

    raise InputError("unknown command %r" % cmd)


if __name__ == "__main__":
    sys.exit(main())
