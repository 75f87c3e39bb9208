import pytest
from hypothesis import settings

from affext.groups import catalog
from affext.datum import extract_datum, group_extension
from affext.serialization import builtin_equations

# A fixed example sequence, so that two versions of the code run the same
# Hypothesis examples; each test still sets its own max_examples.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def cat():
    return catalog()


@pytest.fixture(scope="session")
def group_eqs():
    return builtin_equations("groups")


@pytest.fixture(scope="session")
def abelian_eqs():
    return builtin_equations("abelian-groups")


@pytest.fixture(scope="session")
def z4_extension(cat):
    return group_extension(cat["Z4"], [0, 2], name="Z4/Z2")


@pytest.fixture(scope="session")
def z4_datum(z4_extension):
    return extract_datum(z4_extension)
