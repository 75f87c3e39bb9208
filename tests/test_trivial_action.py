"""trivial_action_check reads the datum's classes only; the sweep it
replaced (tests/oracles.lifting_sweep_trivial_action) ran over every
lifting and every tuple of A's elements.  The two must give the same
verdict on the catalog, oracle and ladder datums and on every small
classical H2 class, each extracted with a random lifting."""

import random
import time
from itertools import product

import pytest

from affext.algebras import AlgebraError, CapExceeded
from affext.cohomology import trivial_action_check
from affext.datum import extract_datum, group_extension
from affext.groups import (catalog, classical_h2, cyclic, direct_product,
                           identity_of, inversion_action, trivial_action)
from affext.verify import catalog_extensions, datum_for_oracle_case, oracle_cases

from oracles import lifting_sweep_trivial_action
from test_linear_cohomology import LADDER, ladder_datum

CAT = catalog()
SMALL = ("Z2", "Z3", "Z4", "Z2xZ2")


def _class_datums():
    """Every classical H2 class of K by Q, K and Q in SMALL, under the
    trivial action and inversion where each is an action and the classical
    search stays under its cap, as (label, datum) with a seeded random
    lifting."""
    rng = random.Random(1)
    out = []
    for k_name, q_name, act in product(SMALL, SMALL, (trivial_action, inversion_action)):
        k_alg, q_alg = CAT[k_name], CAT[q_name]
        try:
            res = classical_h2(k_alg, q_alg, act(k_alg, q_alg), cat=CAT)
        except (AlgebraError, CapExceeded):
            continue
        e = identity_of(q_alg)
        kernel = [a * q_alg.size + e for a in range(k_alg.size)]
        for i, (_, alg, _) in enumerate(res.classes):
            pi = group_extension(alg, kernel).pi
            lifting = [rng.choice([x for x in range(alg.size) if pi[x] == q])
                       for q in range(q_alg.size)]
            ext = group_extension(alg, kernel, lifting=lifting)
            out.append(("%s/%s/%s/%d" % (k_name, q_name, act.__name__, i),
                        extract_datum(ext)[0]))
    return out


def _datum(kind, key):
    if kind == "catalog":
        return extract_datum(dict(catalog_extensions(CAT))[key])[0]
    if kind == "oracle":
        case = next(c for c in oracle_cases(CAT) if c[:2] == key)
        return datum_for_oracle_case(CAT, *key, case[3])[0]
    return ladder_datum(*key)


DATUMS = ([("catalog", name) for name, _ in catalog_extensions(CAT)]
          + [("oracle", case[:2]) for case in oracle_cases(CAT)]
          + [("ladder", case) for case in LADDER])


@pytest.mark.parametrize("kind, key", DATUMS, ids=lambda v: str(v))
def test_sweep_agrees_on_catalog_oracle_and_ladder_datums(kind, key):
    """The order-16 ladder rungs take the sweep about 7 s each (256
    liftings), the rest under 2.5 s; S3/Z3, Z3 by Z2 and D4 over a Klein
    subgroup have a nontrivial action."""
    d = _datum(kind, key)
    assert trivial_action_check(d) == lifting_sweep_trivial_action(d)


def test_sweep_agrees_on_every_small_classical_class():
    cases = _class_datums()
    assert len(cases) == 46
    for label, d in cases:
        assert trivial_action_check(d) == lifting_sweep_trivial_action(d), label


@pytest.mark.parametrize("group, kernel", [
    (cyclic(16), [0, 8]),
    (direct_product(CAT["Z2"], CAT["Z2xZ2xZ2"], "Z2^4"), [0, 1]),
])
def test_trivial_action_reads_no_lifting_quickly(group, kernel):
    """256 liftings and 16^2 element tuples per index set are not swept."""
    d = extract_datum(group_extension(group, kernel))[0]
    start = time.perf_counter()
    assert trivial_action_check(d)
    assert time.perf_counter() - start < 0.5
