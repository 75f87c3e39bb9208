"""H2's class names (cohomology._default_namer) against the namer that
compared each class with every earlier reconstruction
(tests/oracles.first_index_namer): the same labels, from fewer
find_isomorphism calls, as only the first reconstruction of each label is
compared."""

import pytest

import affext.cohomology as cohomology
import oracles
from affext.cohomology import h2
from affext.datum import extract_datum, group_extension
from affext.groups import catalog, cyclic, direct_product

from oracles import first_index_namer
from test_linear_cohomology import DATUM_IDS, DATUMS, _datum


def labels(res):
    return [c["extension_iso_type"] for c in res.classes]


@pytest.mark.parametrize("kind, case", DATUMS, ids=DATUM_IDS)
def test_labels_match_the_first_index_namer(group_eqs, kind, case):
    d = _datum(kind, case)
    assert (labels(h2(d, group_eqs))
            == labels(h2(d, group_eqs, namer=first_index_namer(d))))


def spy(module, monkeypatch):
    """[found?] per find_isomorphism call made through module."""
    calls, real = [], module.find_isomorphism

    def counted(*args, **kwargs):
        iso = real(*args, **kwargs)
        calls.append(iso is not None)
        return iso

    monkeypatch.setattr(module, "find_isomorphism", counted)
    return calls


def test_z2_4_over_z2_compares_each_class_with_the_first_of_each_label(
        group_eqs, monkeypatch):
    """64 classes in 5 labels: 59 classes find their label.  Compared with
    every earlier reconstruction of the same invariant, 84 calls fail;
    compared with the first of each label, 28 do."""
    g = direct_product(catalog()["Z2xZ2xZ2"], cyclic(2))
    d = extract_datum(group_extension(g, [0, 1]))[0]
    new, old = spy(cohomology, monkeypatch), spy(oracles, monkeypatch)
    res = h2(d, group_eqs)
    assert labels(res) == labels(h2(d, group_eqs, namer=first_index_namer(d)))
    assert (res.order, len(set(labels(res)))) == (64, 5)
    assert (new.count(False), new.count(True)) == (28, 59)
    assert (old.count(False), old.count(True)) == (84, 59)
