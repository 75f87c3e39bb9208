"""The four workloads: seeded inputs, oracle answers, one batch pass, gates.

Every workload is a closed loop in one thread: the next library call is made
only when the previous one returns.  ``setup(seed)`` builds the inputs and
every oracle answer; ``run(state)`` is the timed pass and returns
``(label, summary)`` pairs; ``check(state, results)`` compares them with the
oracle answers and returns ``(attempted, failed)``.  A call that raises
inside the pass is recorded as its exception and counted as one failed
check; it never stops the pass.

Library functions are looked up in their modules at call time, so the traced
run sees the wrapped versions.
"""

import hashlib
import io
import json
import random
import sys
import traceback
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations, product
from math import gcd


# --- seeded inputs -----------------------------------------------------------

def permutation(seed, label, n):
    """A permutation of range(n) fixed by the seed and the input's label."""
    perm = list(range(n))
    random.Random("%d:%s" % (seed, label)).shuffle(perm)
    return perm


def relabel(alg, perm):
    """The same algebra with element x renamed perm[x], on fresh flat tables."""
    from affext.algebras import FiniteAlgebra
    n = alg.size
    tables = {}
    for sym, ar in alg.signature.symbols:
        new = [0] * n ** ar
        for args in product(range(n), repeat=ar):
            old_idx = new_idx = 0
            for x in args:
                old_idx = old_idx * n + x
                new_idx = new_idx * n + perm[x]
            new[new_idx] = perm[alg.tables[sym][old_idx]]
        tables[sym] = tuple(new)
    return FiniteAlgebra(n, alg.signature, tables, name=alg.name)


def relabeled_extension(group, kernel, perm):
    """(group, kernel, lifting) renamed through perm.

    The lifting picks the least element of each coset in the original labels;
    it is indexed the way the library numbers quotient elements (cosets in
    order of their least new label), which the library checks on receipt.
    """
    n = group.size
    mul = group.tables["mul"]
    cosets = {frozenset(mul[k * n + x] for k in kernel) for x in range(n)}
    cosets = sorted(cosets, key=lambda c: min(perm[x] for x in c))
    lifting = [perm[min(c)] for c in cosets]
    return relabel(group, perm), sorted(perm[k] for k in kernel), lifting


def fail(results, label, exc):
    """Record an exception raised by the library as one result."""
    traceback.print_exception(exc, file=sys.stderr)
    results.append((label, exc))


def tally(results, checks_of):
    """(attempted, failed) over the bools checks_of(label, result) returns;
    a recorded exception is one failed check."""
    attempted = failed = 0
    for label, res in results:
        checks = [False] if isinstance(res, Exception) else checks_of(label, res)
        attempted += len(checks)
        failed += checks.count(False)
    return attempted, failed


# --- independent references --------------------------------------------------

def cyclic_product_orders(factors):
    """Sorted element orders of Z_f1 x ... x Z_fk."""
    orders = []
    for xs in product(*(range(f) for f in factors)):
        k = 1
        for x, f in zip(xs, factors):
            c = f // gcd(x, f)
            k = k * c // gcd(k, c)
        orders.append(k)
    return sorted(orders)


def classical_h1(k_alg, q_alg, phi):
    """(|Z1|, |H1|) of Q acting on abelian K, by brute force over K^Q."""
    from affext.groups import inv_of, mul_of
    nk, nq = k_alg.size, q_alg.size
    z1 = [h for h in product(range(nk), repeat=nq)
          if all(h[mul_of(q_alg, x, y)] == mul_of(k_alg, h[x], phi[x][h[y]])
                 for x in range(nq) for y in range(nq))]
    b1 = {tuple(mul_of(k_alg, phi[x][a], inv_of(k_alg, a)) for x in range(nq))
          for a in range(nk)}
    return len(z1), len(z1) // len(b1)


def classical_h2_reference(k_alg, q_alg, phi):
    """H2 element orders and class iso types from the classical oracle."""
    from affext.groups import classical_h2, mul_of
    res = classical_h2(k_alg, q_alg, phi)
    nq = q_alg.size
    coboundaries = set(res.coboundaries)

    def add(f, g):
        return tuple(tuple(mul_of(k_alg, f[x][y], g[x][y]) for y in range(nq))
                     for x in range(nq))

    orders = []
    for f, _, _ in res.classes:
        acc, k = f, 1
        while acc not in coboundaries:
            acc, k = add(acc, f), k + 1
        orders.append(k)
    return sorted(orders), res.class_types()


def cyclic_h2_reference(n, m):
    """H2(Z_m, Z_n) = Z_gcd(m,n) under the trivial action, with the
    multiplicities of the extension iso types, told apart by element orders
    (the extensions are abelian)."""
    from affext.groups import cyclic, element_orders, semidirect_extension, \
        trivial_action
    g = gcd(m, n)
    k_alg, q_alg = cyclic(n), cyclic(m)
    profiles = Counter()
    for c in range(g):
        f = tuple(tuple(c if x + y >= m else 0 for y in range(m)) for x in range(m))
        ext = semidirect_extension(k_alg, q_alg, trivial_action(k_alg, q_alg), f)
        profiles[tuple(sorted(element_orders(ext)))] += 1
    return cyclic_product_orders([g] if g > 1 else []), sorted(profiles.values())


def check_extension_rung(ref, res):
    """Checks shared by the h2-wide and datum-deep rungs; one bool each."""
    checks = [
        cyclic_product_orders(res["h2_factors"]) == ref["h2_orders"],
        res["z2"] == res["b2"] * res["h2"],
        res["h1"] == ref["h1"],
    ]
    if "types" in ref:
        checks.append(res["types"] == ref["types"])
    else:
        checks.append(sorted(Counter(res["types"]).values()) == ref["multiplicities"])
    return checks


# --- paper-suite ---------------------------------------------------------------

# sha256 of `affext verify-paper --format json` at the commit that defined
# this benchmark; the JSON report is a byte-identical contract.
PAPER_DIGEST = "a4f840ab5161badb320a65ab35aa53a012d286657b8dedd3f1f33194fb4bfc6f"
PAPER_CLAIMS = 14


class PaperSuite:
    """`affext verify-paper --format json` in-process.  The seed changes
    nothing here: the suite's inputs are fixed by the paper."""

    def setup(self, seed):
        return {}

    def run(self, state):
        from affext import cli
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = cli.main(["verify-paper", "--format", "json"])
        except Exception as exc:
            results = []
            fail(results, "verify-paper", exc)
            return results
        return [("verify-paper", (code, buf.getvalue()))]

    def check(self, state, results):
        return tally(results, self._checks)

    @staticmethod
    def _checks(label, res):
        code, text = res
        try:
            report = json.loads(text)
        except ValueError:
            report = {"all_hold": False, "checks": []}
        holds = [c["holds"] is True for c in report["checks"]]
        return [code == 0, report["all_hold"] is True, len(holds) == PAPER_CLAIMS,
                hashlib.sha256(text.encode()).hexdigest() == PAPER_DIGEST] + holds


# --- h2-wide and datum-deep ------------------------------------------------------

def _ladder_inputs(seed, ladder):
    """Relabeled extensions plus oracle answers for (label, group, kernel,
    K, Q, action, reference) rungs."""
    inputs = []
    for label, group, kernel, k_alg, q_alg, phi, ref in ladder:
        alg, kern, lifting = relabeled_extension(
            group, kernel, permutation(seed, label, group.size))
        z1, h1 = classical_h1(k_alg, q_alg, phi)
        ref = dict(ref, z1=z1, h1=h1)
        inputs.append((label, alg, kern, lifting, ref))
    return inputs


def _summary(r, hh):
    return {"h2_factors": list(r.invariant_factors), "z2": r.z2.order,
            "b2": r.b2.order, "h2": r.order, "types": r.class_types(),
            "h1": hh["order"]}


class H2Wide:
    """Z2 search, B2 enumeration and the H2 quotient on many cells with
    fibers of size 2 or 3."""

    def setup(self, seed):
        from affext.groups import catalog, cyclic, trivial_action
        cat = catalog()
        z2, v4 = cat["Z2"], cat["Z2xZ2"]
        orders, types = classical_h2_reference(z2, v4, trivial_action(z2, v4))
        ladder = [("Z2xZ2xZ2/Z2", cat["Z2xZ2xZ2"], [0, 1], z2, v4,
                   trivial_action(z2, v4), {"h2_orders": orders, "types": types})]
        for n, k in ((10, 2), (12, 2), (12, 3), (14, 2)):
            m = n // k
            h2_orders, mult = cyclic_h2_reference(k, m)
            k_alg, q_alg = cyclic(k), cyclic(m)
            ladder.append(("Z%d/Z%d" % (n, k), cyclic(n), list(range(0, n, m)),
                           k_alg, q_alg, trivial_action(k_alg, q_alg),
                           {"h2_orders": h2_orders, "multiplicities": mult}))
        return {"rungs": _ladder_inputs(seed, ladder)}

    def run(self, state):
        from affext.cohomology import h1, h2
        from affext.datum import extract_datum, group_extension
        from affext.serialization import builtin_equations
        results = []
        for label, alg, kernel, lifting, _ in state["rungs"]:
            try:
                ext = group_extension(alg, kernel, lifting=lifting)
                d, _ = extract_datum(ext)
                r = h2(d, builtin_equations("groups"))
                results.append((label, _summary(r, h1(d))))
            except Exception as exc:
                fail(results, label, exc)
        return results

    def check(self, state, results):
        refs = {label: ref for label, _, _, _, ref in state["rungs"]}
        return tally(results, lambda label, res: check_extension_rung(refs[label], res))


def is_isomorphism(mapping, a, b):
    """mapping is a bijection carrying every table of a onto b's."""
    n = a.size
    if mapping is None or sorted(mapping) != list(range(n)):
        return False
    for sym, ar in a.signature.symbols:
        for args in product(range(n), repeat=ar):
            ia = ib = 0
            for x in args:
                ia, ib = ia * n + x, ib * n + mapping[x]
            if mapping[a.tables[sym][ia]] != b.tables[sym][ib]:
                return False
    return True


class DatumDeep:
    """Datum extraction and validation on kernels of order 4, where the
    ternary-group check and M(alpha,beta) dominate and cohomology is small."""

    def setup(self, seed):
        from affext.groups import (catalog, inversion_action, trivial_action)
        cat = catalog()
        z4, z2 = cat["Z4"], cat["Z2"]
        ladder = []
        for label, name, act in (("Z8/Z4", "Z8", trivial_action),
                                 ("D4/rotations", "D4", inversion_action),
                                 ("Q8/Z4", "Q8", inversion_action)):
            phi = act(z4, z2)
            orders, types = classical_h2_reference(z4, z2, phi)
            ladder.append((label, cat[name], [0, 2, 4, 6], z4, z2, phi,
                           {"h2_orders": orders, "types": types}))
        return {"rungs": _ladder_inputs(seed, ladder)}

    def run(self, state):
        from affext.algebras import find_isomorphism
        from affext.cocycles import reconstruct
        from affext.cohomology import h1, h2, stabilizers
        from affext.datum import extract_datum, group_extension, validate_datum
        from affext.serialization import builtin_equations
        results = []
        for label, alg, kernel, lifting, _ in state["rungs"]:
            try:
                ext = group_extension(alg, kernel, lifting=lifting)
                d, cocycle = extract_datum(ext)
                claims = [c["holds"] for c in validate_datum(d)]
                res = _summary(h2(d, builtin_equations("groups")), h1(d))
                rebuilt = reconstruct(d, cocycle).alg
                res.update(claims=claims, stabilizers=len(stabilizers(ext)),
                           roundtrip=is_isomorphism(
                               find_isomorphism(alg, rebuilt), alg, rebuilt))
                results.append((label, res))
            except Exception as exc:
                fail(results, label, exc)
        return results

    def check(self, state, results):
        refs = {label: ref for label, _, _, _, ref in state["rungs"]}

        def checks_of(label, res):
            ref = refs[label]
            return check_extension_rung(ref, res) + res["claims"] + [
                bool(res["claims"]), res["stabilizers"] == ref["z1"],
                res["roundtrip"]]

        return tally(results, checks_of)


# --- commutator-lattice --------------------------------------------------------

LATTICE_GROUPS = ("Z4", "Z2xZ2", "S3", "Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8")


def canonical(rep):
    """A partition given by any representative array, as least members."""
    least = {}
    for x, r in enumerate(rep):
        least.setdefault(r, x)
    return tuple(least[r] for r in rep)


def below_meet(c, a, b):
    n = len(c)
    return all(a[x] == a[y] and b[x] == b[y]
               for x in range(n) for y in range(n) if c[x] == c[y])


class CommutatorLattice:
    """[alpha,beta] for every pair of non-trivial congruences of eight groups:
    pair algebra, M(alpha,beta), Delta both ways and the commutator fixpoint,
    with no datum and no cohomology."""

    def setup(self, seed):
        from affext.groups import (catalog, commutator_subgroup,
                                   congruence_of_subgroup, is_normal,
                                   subgroup_generated)
        cat = catalog()
        groups = []
        for name in LATTICE_GROUPS:
            g = relabel(cat[name], permutation(seed, name, cat[name].size))
            # groups of order <= 8 have rank <= 3
            normal = {tuple(s) for r in range(4)
                      for gens in combinations(range(g.size), r)
                      for s in [subgroup_generated(g, gens)] if is_normal(g, s)}
            congruence = {s: canonical(congruence_of_subgroup(g, s).rep)
                          for s in normal}
            commutator = {(congruence[a], congruence[b]): canonical(
                congruence_of_subgroup(g, commutator_subgroup(g, a, b)).rep)
                for a in normal for b in normal}
            groups.append((name, g, set(congruence.values()), commutator))
        return {"groups": groups}

    def run(self, state):
        from affext.commutator import tc_commutator
        from affext.congruences import (all_congruences, delta, m_matrices,
                                        pair_algebra)
        results = []
        for name, g, _, _ in state["groups"]:
            try:
                lattice = all_congruences(g)
            except Exception as exc:
                fail(results, name, exc)
                continue
            results.append((name, [c.rep for c in lattice]))
            proper = [c for c in lattice if not c.is_equality()]
            for a, b in product(proper, repeat=2):
                label = (name, a.rep, b.rep)
                try:
                    pa = pair_algebra(g, a)
                    mats = m_matrices(g, a, b, pairalg=pa)
                    delta(g, a, b, pairalg=pa, matrices=mats)
                    results.append((label, tc_commutator(g, a, b, matrices=mats).rep))
                except Exception as exc:
                    fail(results, label, exc)
        return results

    def check(self, state, results):
        refs = {name: (lattice, comm) for name, _, lattice, comm in state["groups"]}
        found = dict(results)

        def checks_of(label, res):
            if isinstance(label, str):
                return [{canonical(r) for r in res} == refs[label][0]]
            name, a, b = label
            c = canonical(res)
            twin = found.get((name, b, a))
            return [c == refs[name][1].get((canonical(a), canonical(b))),
                    below_meet(c, canonical(a), canonical(b)),
                    isinstance(twin, tuple) and canonical(twin) == c]

        return tally(results, checks_of)


WORKLOADS = {
    "paper-suite": PaperSuite(),
    "h2-wide": H2Wide(),
    "datum-deep": DatumDeep(),
    "commutator-lattice": CommutatorLattice(),
}
