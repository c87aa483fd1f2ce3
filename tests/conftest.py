import pytest

from subsym.specio import BUNDLED, bundled_substitution
from subsym.substitution import Alphabet, Pattern, RectSubstitution


@pytest.fixture(scope="session")
def tm1d():
    return bundled_substitution("tm1d")


@pytest.fixture(scope="session")
def tm2d():
    return bundled_substitution("tm2d")


@pytest.fixture(scope="session")
def tm3d():
    return bundled_substitution("tm3d")


@pytest.fixture(scope="session")
def cyc3():
    return bundled_substitution("cyc3")


@pytest.fixture(scope="session")
def rig3():
    return bundled_substitution("rig3")


@pytest.fixture(scope="session")
def dbl():
    return bundled_substitution("dbl")


@pytest.fixture(scope="session")
def corpus():
    return {name: bundled_substitution(name) for name in BUNDLED}


@pytest.fixture(scope="session")
def two_by_three():
    """A bijective binary rule on [0, 1] x [0, 2]: axes of different sizes."""
    rules = (
        Pattern((0, 0), (2, 3), bytes([0, 1, 0, 1, 0, 1])),
        Pattern((0, 0), (2, 3), bytes([1, 0, 1, 0, 1, 0])),
    )
    return RectSubstitution(Alphabet(("0", "1")), (2, 3), rules)


@pytest.fixture(scope="session")
def r18_spec():
    """A 2x2 rule on 4 symbols whose 192 side-2 patterns stabilize only at
    depth 18, where whole patches hold 4^18 = 2^36 cells; grown from 2x2
    blocks, no level reads a plan of more than 36 cells."""
    return {
        "name": "r18",
        "dim": 2,
        "size": [2, 2],
        "alphabet": ["0", "1", "2", "3"],
        "rules": {"0": [["0", "2"], ["1", "2"]], "1": [["1", "1"], ["3", "3"]],
                  "2": [["2", "3"], ["0", "0"]], "3": [["3", "0"], ["2", "1"]]},
    }
