"""The full cross-validation suite: every documented claim as a named check.

Each claim returns {"claim", "holds", "witness"}; run_all wraps them with
timings and a machine-readable summary.  The CLI's verify-paper command and
the acceptance tests both run through here.
"""

import time

from .algebras import find_isomorphism, quotient_algebra, satisfies
from .cocycles import (central_tensor_decomposition, check_cocycle,
                       is_semidirect, is_two_step_nilpotent,
                       reconstruct, tensor_product, tensor_right_kernel,
                       two_step_decomposition, check_realization)
from .cohomology import (_cosets, _two_cochains, are_equivalent,
                         cocycle_group, coboundary_group,
                         central_extension_suite, compare_variety_subgroups,
                         h2, stabilizer_derivation_isomorphism,
                         stabilizing_isomorphism, trivial_action_check)
from .commutator import is_abelian, is_right_central, tc_commutator
from .congruences import (Congruence, delta, delta_with_pair_algebra, hat_alpha,
                          m_matrices)
from .datum import extract_datum, group_extension, validate_datum
from .groups import (catalog, center, classical_h2, congruence_of_subgroup,
                     identity_of, inversion_action, semidirect_extension,
                     subgroup_generated, trivial_action, verify_grp_lemma)
from .serialization import builtin_equations
from .terms import GROUP_DIFFERENCE_TERM


def _cat():
    return catalog()


def catalog_extensions(cat=None):
    """The named extension instances used throughout the suite."""
    cat = cat or _cat()
    out = []
    out.append(("Z4/Z2", group_extension(cat["Z4"], [0, 2], name="Z4/Z2")))
    out.append(("Z2xZ2/Z2", group_extension(cat["Z2xZ2"], [0, 1], name="Z2xZ2/Z2")))
    d4 = cat["D4"]
    out.append(("D4/center",
                group_extension(d4, subgroup_generated(d4, center(d4)),
                                name="D4/center")))
    q8 = cat["Q8"]
    out.append(("Q8/center",
                group_extension(q8, subgroup_generated(q8, center(q8)),
                                name="Q8/center")))
    # Z2xZ4 elements are encoded a*4+b; the two order-2 central kernels
    out.append(("Z2xZ4/K1", group_extension(cat["Z2xZ4"], [0, 4], name="Z2xZ4/K1")))
    out.append(("Z2xZ4/K2", group_extension(cat["Z2xZ4"], [0, 2], name="Z2xZ4/K2")))
    out.append(("S3/Z3", group_extension(cat["S3"], [0, 3, 4], name="S3/Z3")))
    return out


def oracle_cases(cat=None):
    cat = cat or _cat()
    return [
        ("Z2", "Z2", "trivial", trivial_action),
        ("Z2", "Z2xZ2", "trivial", trivial_action),
        ("Z3", "Z2", "inversion", inversion_action),
        ("Z2", "Z3", "trivial", trivial_action),
    ]


def datum_for_oracle_case(cat, k_name, q_name, action_builder):
    """Extract datum from the split extension K x_phi Q."""
    K, Q = cat[k_name], cat[q_name]
    phi = action_builder(K, Q)
    e0 = semidirect_extension(K, Q, phi, name="%s:%s" % (k_name, q_name))
    eq = identity_of(Q)
    kernel = [a * Q.size + eq for a in range(K.size)]
    ext = group_extension(e0, kernel, name=e0.name)
    return extract_datum(ext)


# --- criteria ---------------------------------------------------------------

def claim_roundtrip(cap=1 << 24):
    """Extract datum + cocycle from each catalog extension, reconstruct, and
    find an isomorphism to the original."""
    cat = _cat()
    failures = []
    for name, ext in catalog_extensions(cat):
        d, T = extract_datum(ext, cap=cap)
        rec = reconstruct(d, T)
        if find_isomorphism(ext.alg, rec.alg) is None:
            failures.append(name)
        rep = validate_datum(d)
        bad = [r["claim"] for r in rep if not r["holds"]]
        if bad:
            failures.append({name: bad})
    return {"claim": "roundtrip reconstruction on the catalog",
            "holds": not failures, "witness": failures or None}


def claim_cohomology_oracle(cap=1 << 24):
    """|H^2| and class-wise extension types match the classical brute force."""
    cat = _cat()
    eqs = builtin_equations("groups")
    failures = []
    details = {}
    for k_name, q_name, act_name, act in oracle_cases(cat):
        d, _ = datum_for_oracle_case(cat, k_name, q_name, act)
        res = h2(d, eqs, cap=cap)
        cla = classical_h2(cat[k_name], cat[q_name], act(cat[k_name], cat[q_name]))
        details["%s-by-%s" % (k_name, q_name)] = {
            "h2": res.order, "classical": cla.order,
            "types": res.class_types()}
        if res.order != cla.order or res.class_types() != cla.class_types():
            failures.append((k_name, q_name, act_name))
    return {"claim": "H2 matches the classical group oracle",
            "holds": not failures, "witness": failures or None,
            "details": details}


def claim_split_test(cap=1 << 24):
    """Z2xZ2 reports a retraction; Z4 reports none."""
    cat = _cat()
    v4 = group_extension(cat["Z2xZ2"], [0, 1])
    z4 = group_extension(cat["Z4"], [0, 2])
    r1 = is_semidirect(v4)
    r2 = is_semidirect(z4)
    holds = r1 is not None and r2 is None
    return {"claim": "semidirect test: Z2xZ2 splits, Z4 does not",
            "holds": holds,
            "witness": None if holds else {"Z2xZ2": r1, "Z4": r2}}


def claim_coboundary_lemma(cap=1 << 24):
    """Every coboundary is a cocycle compatible with each equation set
    containing the datum, and B2 <= Z2 exactly."""
    cat = _cat()
    ext = group_extension(cat["Z4"], [0, 2])
    d, _ = extract_datum(ext)
    sets = [builtin_equations("groups"), builtin_equations("abelian-groups")]
    b2 = coboundary_group(d)
    failures = []
    for i, eqs in enumerate(sets):
        z2 = cocycle_group(d, eqs, cap=cap)
        zset = set(z2.serialized)
        for g in b2.serialized:
            if g not in zset:
                failures.append({"set": i, "coboundary": g})
            if not check_cocycle(d, g, eqs)["holds"]:
                failures.append({"set": i, "check_cocycle": g})
    return {"claim": "coboundaries are cocycles for every containing variety",
            "holds": not failures, "witness": failures or None}


def claim_equivalence_gamma(cap=1 << 24):
    """are_equivalent agrees with the direct gamma-isomorphism search on all
    cocycle pairs of the oracle instances."""
    cat = _cat()
    eqs = builtin_equations("groups")
    failures = []
    for k_name, q_name, act_name, act in oracle_cases(cat):
        d, _ = datum_for_oracle_case(cat, k_name, q_name, act)
        z2 = cocycle_group(d, eqs, cap=cap)
        exts = {s: reconstruct(d, s) for s in z2.serialized}
        for s1 in z2.serialized:
            for s2 in z2.serialized:
                eq = are_equivalent(d, s1, s2)
                gam = stabilizing_isomorphism(exts[s1], exts[s2])
                if eq != (gam is not None):
                    failures.append((k_name, q_name, s1, s2, eq))
    return {"claim": "cocycle equivalence matches the gamma search",
            "holds": not failures, "witness": failures or None}


def claim_stabilizer_z1(cap=1 << 24):
    """|Z1| = |Stab| with d_gamma an explicit group isomorphism."""
    cat = _cat()
    failures = []
    for k_name, q_name, act_name, act in oracle_cases(cat):
        d, _ = datum_for_oracle_case(cat, k_name, q_name, act)
        K, Q = cat[k_name], cat[q_name]
        e0 = semidirect_extension(K, Q, act(K, Q))
        eq = identity_of(Q)
        ext = group_extension(e0, [a * Q.size + eq for a in range(K.size)])
        rep = stabilizer_derivation_isomorphism(ext, d)
        if not rep["holds"]:
            failures.append((k_name, q_name, rep["witness"]))
    return {"claim": "Stab ~= Z1 through d_gamma on oracle instances",
            "holds": not failures, "witness": failures or None}


def claim_commutator_laws(cap=1 << 24):
    """The Delta laws on catalog instances: the Delta_{alpha 1} quotient is
    abelian; same-first-coordinate Delta pairs land in the commutator; the
    meet law against hat-alpha; the three-way matrix characterization; and
    kernel centrality in abelian transfer products."""
    cat = _cat()
    failures = []
    for name, ext in catalog_extensions(cat):
        alg, alpha = ext.alg, ext.beta
        one = Congruence.all(alg.size)
        pairalg, d_a1 = delta_with_pair_algebra(alg, alpha, one, cap=cap)
        quot, _ = quotient_algebra(pairalg, d_a1)
        if not is_abelian(quot, Congruence.all(quot.size), cap=cap):
            failures.append({name: "Delta_{a1} quotient not abelian"})
        hat = hat_alpha(pairalg)
        deltas = {}
        for beta_name, beta in (("alpha", alpha), ("one", one)):
            matrices = m_matrices(alg, alpha, beta, cap=cap, pairalg=pairalg)
            d_ab = deltas[beta_name] = delta(alg, alpha, beta, cap=cap,
                                             pairalg=pairalg, matrices=matrices)
            comm = tc_commutator(alg, alpha, beta, cap=cap, matrices=matrices)
            # lem 20(1): [a//b] Delta [a//d] implies (b,d) in [alpha,beta]
            for i, (a, b) in enumerate(pairalg.pairs):
                for j, (c, dd) in enumerate(pairalg.pairs):
                    if a == c and d_ab.related(i, j) and not comm.related(b, dd):
                        failures.append({name: ("lem20(1)", beta_name, (a, b, dd))})
            # lem 20(4): three equivalent characterizations on quadruples
            m = ext.m_elem
            for i, (a, b) in enumerate(pairalg.pairs):
                for j, (c, dd) in enumerate(pairalg.pairs):
                    pa = d_ab.related(i, j)
                    mbac = m(b, a, c)
                    key = (c, mbac)
                    pb = (key in pairalg.pair_index
                          and d_ab.related(i, pairalg.pair_index[key])
                          and comm.related(dd, mbac))
                    pc = beta.related(c, a) and alpha.related(a, b) \
                        and comm.related(dd, mbac)
                    if not (pa == pb == pc):
                        failures.append({name: ("lem20(4)", beta_name,
                                                (a, b, c, dd), (pa, pb, pc))})
        # lem 20(3): Delta_{aa} = Delta_{ag} meet hat for tested g
        gammas = [("alpha", alpha)]
        if is_right_central(alg, alpha, cap=cap):
            gammas.append(("one", one))
        for gamma_name, gamma in gammas:
            if deltas[gamma_name].meet(hat) != deltas["alpha"]:
                failures.append({name: ("lem20(3)", gamma.blocks())})
        # join laws from the Delta definition
        eta0 = pairalg.projection_kernel(0)
        eta1 = pairalg.projection_kernel(1)
        for beta_name, beta in (("alpha", alpha), ("one", one)):
            if deltas[beta_name].join(eta0) != pairalg.preimage(beta, 0):
                failures.append({name: ("join eta0", beta_name)})
            if deltas[beta_name].join(eta1) != pairalg.preimage(beta, 1):
                failures.append({name: ("join eta1", beta_name)})
    # lem 3: [1, ker q] = 0 in an abelian transfer product
    z2 = cat["Z2"]
    plus = tuple((a + b) % 2 for a in range(2) for b in range(2))
    transfers = {"mul": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
                 "inv": {(0,): 0, (1,): 1}, "e": {(): 0}}
    prod = tensor_product(z2, z2, plus, transfers)
    kerq = tensor_right_kernel(z2, z2)
    if not tc_commutator(prod, Congruence.all(4), kerq, cap=cap).is_equality():
        failures.append({"tensor": "[1, ker q] != 0"})
    for name in ("D4", "Q8"):
        out = two_step_decomposition(cat[name], GROUP_DIFFERENCE_TERM, cap=cap)
        kerq = tensor_right_kernel(out["B"], out["Q"])
        if not tc_commutator(out["product"], Congruence.all(out["product"].size),
                             kerq, cap=cap).is_equality():
            failures.append({name: "[1, ker q] != 0 in decomposition"})
    return {"claim": "commutator and Delta laws on the catalog",
            "holds": not failures, "witness": failures or None}


def claim_central_tensor(cap=1 << 24):
    """A ~= A(alpha)/Delta_{alpha 1} (x)^T A/alpha for central alpha."""
    cat = _cat()
    cases = [("Z4", [0, 2]), ("Z2xZ2", [0, 1]), ("Z2xZ4", [0, 4]),
             ("Z2xZ4", [0, 2])]
    for name in ("D4", "Q8"):
        g = cat[name]
        cases.append((name, subgroup_generated(g, center(g))))
    failures = []
    for name, kernel in cases:
        g = cat[name]
        alpha = congruence_of_subgroup(g, kernel)
        if not is_right_central(g, alpha, cap=cap):
            failures.append({name: "kernel not central"})
            continue
        out = central_tensor_decomposition(g, alpha, GROUP_DIFFERENCE_TERM, cap=cap)
        if out["iso"] is None:
            failures.append({name: "no isomorphism to the transfer product"})
    return {"claim": "central extensions decompose as transfer products",
            "holds": not failures, "witness": failures or None}


def claim_nilpotent_tensor(cap=1 << 24):
    """D4 and Q8 decompose 2-step with abelian factors; the products verify
    2-step nilpotence."""
    cat = _cat()
    failures = []
    for name in ("D4", "Q8"):
        out = two_step_decomposition(cat[name], GROUP_DIFFERENCE_TERM, cap=cap)
        if not out.get("nilpotent"):
            failures.append({name: "not 2-step nilpotent"})
            continue
        if out["iso"] is None:
            failures.append({name: "no isomorphism"})
        for side in ("B", "Q"):
            alg = out[side]
            if not is_abelian(alg, Congruence.all(alg.size), cap=cap):
                failures.append({name: "%s factor not abelian" % side})
        if not is_two_step_nilpotent(out["product"], cap=cap):
            failures.append({name: "product not 2-step nilpotent"})
    return {"claim": "2-step nilpotent transfer decompositions",
            "holds": not failures, "witness": failures or None}


def claim_trivial_action(cap=1 << 24):
    """Trivial action forces right-central reconstructions; the S3 datum has
    a nontrivial action."""
    cat = _cat()
    ext = group_extension(cat["Z4"], [0, 2])
    d, _ = extract_datum(ext)
    eqs = builtin_equations("groups")
    suite = central_extension_suite(d, eqs, difference_term=GROUP_DIFFERENCE_TERM,
                                    cap=cap)
    failures = []
    if not suite["action_trivial"]:
        failures.append("Z4 datum action should be trivial")
    if not suite["holds"]:
        failures.append({"suite": suite["classes"]})
    ext_s3 = group_extension(cat["S3"], [0, 3, 4])
    d_s3, _ = extract_datum(ext_s3)
    if trivial_action_check(d_s3):
        failures.append("S3 datum action should be nontrivial")
    return {"claim": "trivial actions exactly give central extensions",
            "holds": not failures, "witness": failures or None}


def claim_abelian_subgroup(cap=1 << 24):
    """Classes whose reconstructions are abelian form a subgroup of H2 and
    coincide with the classes of the abelian-variety cocycle group."""
    cat = _cat()
    ext = group_extension(cat["Z4"], [0, 2])
    d, _ = extract_datum(ext)
    eqs = builtin_equations("groups")
    eqs_ab = builtin_equations("abelian-groups")
    res = h2(d, eqs, cap=cap)
    zab = cocycle_group(d, eqs_ab, cap=cap)
    zero, add = _two_cochains(d)
    coset_of = _cosets(sorted(set(res.z2.serialized) | set(zab.serialized)),
                       res.b2.serialized, add)

    abelian_classes = set()
    for cls in res.classes:
        alg = cls["extension"].alg
        if satisfies(alg, eqs_ab) is None:
            abelian_classes.add(cls["representative"])
    failures = []
    if coset_of[zero] not in abelian_classes and abelian_classes:
        failures.append("zero class missing")
    for s1 in abelian_classes:
        for s2 in abelian_classes:
            if coset_of[add(s1, s2)] not in abelian_classes:
                failures.append({"sum leaves subgroup": (s1, s2)})
    ab_from_z = {coset_of[s] for s in zab.serialized}
    if ab_from_z != abelian_classes:
        failures.append({"abelian variety classes": sorted(ab_from_z),
                         "abelian reconstructions": sorted(abelian_classes)})
    return {"claim": "abelian extension classes form a subgroup of H2",
            "holds": not failures, "witness": failures or None}


def claim_grp_lemma(cap=1 << 24):
    """The group specialization checks on Z4, D4 and Q8."""
    cat = _cat()
    failures = []
    for name, kernel in (("Z4", [0, 2]),
                         ("D4", None), ("Q8", None)):
        g = cat[name]
        if kernel is None:
            kernel = subgroup_generated(g, center(g))
        rep = verify_grp_lemma(g, kernel, cap=cap)
        if not rep["holds"]:
            failures.append({name: rep["witness"]})
    return {"claim": "group-theory specialization of the quotients",
            "holds": not failures, "witness": failures or None}


def claim_realization(cap=1 << 24):
    """Reconstructions realize their datum; Z4 and Z2xZ2 realize the shared
    Z2-kernel datum."""
    cat = _cat()
    ext = group_extension(cat["Z4"], [0, 2])
    d, T = extract_datum(ext)
    failures = []
    rec = reconstruct(d, T)
    r = check_realization(rec, d)
    if not r["holds"]:
        failures.append({"reconstruction": r["witness"]})
    r = check_realization(ext, d)
    if not r["holds"]:
        failures.append({"Z4": r["witness"]})
    v4 = group_extension(cat["Z2xZ2"], [0, 1])
    r = check_realization(v4, d)
    if not r["holds"]:
        failures.append({"Z2xZ2": r["witness"]})
    return {"claim": "extensions realize the extracted datum",
            "holds": not failures, "witness": failures or None}


def claim_variety_meet(cap=1 << 24):
    cat = _cat()
    ext = group_extension(cat["Z4"], [0, 2])
    d, _ = extract_datum(ext)
    rep = compare_variety_subgroups(d, builtin_equations("groups"),
                                    builtin_equations("abelian-groups"), cap=cap)
    return {"claim": "variety meet law and monotonicity",
            "holds": rep["holds"], "witness": rep["witness"]}


CLAIMS = [
    ("roundtrip", claim_roundtrip),
    ("cohomology-oracle", claim_cohomology_oracle),
    ("split-test", claim_split_test),
    ("coboundary-lemma", claim_coboundary_lemma),
    ("equivalence-gamma", claim_equivalence_gamma),
    ("stabilizer-z1", claim_stabilizer_z1),
    ("commutator-laws", claim_commutator_laws),
    ("central-tensor", claim_central_tensor),
    ("nilpotent-tensor", claim_nilpotent_tensor),
    ("trivial-action", claim_trivial_action),
    ("abelian-subgroup", claim_abelian_subgroup),
    ("grp-lemma", claim_grp_lemma),
    ("realization", claim_realization),
    ("variety-meet", claim_variety_meet),
]


def run_all(cap=1 << 24, claims=None):
    """Run the suite; returns (results, all_hold).

    Each result carries the runtime; the JSON projection excludes it so
    repeated runs are byte-identical.
    """
    selected = CLAIMS if claims is None else [c for c in CLAIMS if c[0] in claims]
    results = []
    for name, fn in selected:
        t0 = time.time()
        rep = dict(fn(cap=cap))
        rep["id"] = name
        rep["runtime"] = time.time() - t0
        results.append(rep)
    return results, all(r["holds"] for r in results)


def results_to_json(results):
    """Deterministic projection: claim id -> pass/fail (+witness)."""
    out = []
    for r in results:
        entry = {"id": r["id"], "claim": r["claim"], "holds": r["holds"]}
        if r.get("witness") is not None:
            entry["witness"] = _jsonable(r["witness"])
        out.append(entry)
    return {"checks": out, "all_hold": all(r["holds"] for r in results)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        return [_jsonable(v) for v in items]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)
