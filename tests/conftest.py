import numpy as np
import pytest

from paretocheck import DomainIndex
from paretocheck.rules import Correspondence


@pytest.fixture(scope="session")
def d22():
    return DomainIndex(2, 2)


@pytest.fixture(scope="session")
def d23():
    return DomainIndex(2, 3)


@pytest.fixture(scope="session")
def d32():
    return DomainIndex(3, 2)


@pytest.fixture(scope="session")
def d33():
    return DomainIndex(3, 3)


@pytest.fixture(scope="session")
def d33xyz():
    return DomainIndex(3, 3, "xyz")


@pytest.fixture(scope="session")
def d42():
    return DomainIndex(4, 2)


@pytest.fixture(scope="session")
def d43():
    return DomainIndex(4, 3)


@pytest.fixture(scope="session")
def d43xyzw():
    return DomainIndex(4, 3, "xyzw")


@pytest.fixture(scope="session")
def d52():
    return DomainIndex(5, 2)


@pytest.fixture(scope="session")
def d52paper():
    return DomainIndex(5, 2, "xyzwt")


@pytest.fixture(scope="session")
def d53paper():
    return DomainIndex(5, 3, "xyzwt")


@pytest.fixture(scope="session")
def random_table():
    """Seeded random table correspondence on a domain: the Pareto rule with
    one to four overridden profiles.  Odd seeds keep every override between
    the tops and the undominated set, so pareto and tops-in hold there and
    the move axioms are hit further into the sweep."""
    def build(d, seed):
        rng = np.random.default_rng(seed)
        ks = rng.choice(d.total, size=int(rng.integers(1, 5)), replace=False).tolist()
        overrides = {}
        for k in ks:
            mask = int(rng.integers(1, 1 << d.m))
            if seed % 2:
                mask = int(d.tops_table[k]) | (mask & int(d.pareto_table[k]))
            overrides[d.profile(k).orderings] = mask
        return Correspondence(d.universe, d.n, overrides=overrides, name=f"random:{seed}")
    return build
