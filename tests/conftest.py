import random
from fractions import Fraction

import pytest

from hipm.height import HeightFunction, from_phi
from hipm.poset import FinitePoset


@pytest.fixture
def chain4():
    return FinitePoset.chain(["a", "b", "c", "d"])


@pytest.fixture
def chain4_rho(chain4):
    phi = HeightFunction(chain4, {"a": Fraction(0), "b": Fraction(1),
                                  "c": Fraction(3), "d": Fraction(5)})
    return from_phi(phi)


@pytest.fixture
def diamond():
    return FinitePoset.from_covers(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


@pytest.fixture
def diamond_rho(diamond):
    phi = HeightFunction(diamond, {"a": Fraction(0), "b": Fraction(1),
                                   "c": Fraction(1), "d": Fraction(2)})
    return from_phi(phi)


@pytest.fixture
def rng():
    return random.Random(20240817)
