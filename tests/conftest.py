import pytest

from drinfeld.basearith import (ArtinRing, ext_field, finite_field,
                                make_place, poly_T)


@pytest.fixture(scope="session")
def F2():
    return finite_field(2)


@pytest.fixture(scope="session")
def F3():
    return finite_field(3)


@pytest.fixture(scope="session")
def F4():
    return finite_field(2, 2)


@pytest.fixture(scope="session")
def F9():
    return finite_field(3, 2)


@pytest.fixture(scope="session")
def place_T(F3):
    """The degree-1 place varpi = T over F_3."""
    return make_place(poly_T(F3))


@pytest.fixture(scope="session")
def place_TT1(F2):
    """The degree-2 place varpi = T^2 + T + 1 over F_2."""
    T = poly_T(F2)
    return make_place(T ** 2 + T + 1)


@pytest.fixture(scope="session")
def ext9(place_T):
    """F_9 with gamma(T) = 0."""
    return ext_field(place_T, 2)


@pytest.fixture(scope="session")
def ext4(place_TT1):
    """F_4 with gamma(T) a root of T^2 + T + 1."""
    return ext_field(place_TT1, 1)


@pytest.fixture(scope="session")
def artin9(place_T):
    """F_9[eps]/(eps^2) with gamma(T) = eps."""
    return ArtinRing(place_T, 2, 2)
