import random

import pytest

from drinfeld import serretate
from drinfeld.basearith import artin_ring, ext_field
from drinfeld.modules import DrinfeldModule
from drinfeld.serretate import (DeformationDatum, constant_lift,
                                lift_independence_check,
                                phi_deformation_value)


@pytest.fixture()
def datum9(place_T, ext9, artin9):
    E0 = DrinfeldModule(ext9, ext9.one, ext9.one)
    return constant_lift(E0, artin9, 1)


def _imag_unit(ext9):
    return next(x for x in ext9.elements() if x * x == -ext9.one and x)


def test_lift_has_eps_structure_map(datum9, artin9):
    assert datum9.E.gamma_T == artin9.eps
    assert datum9.E.phi_T().coefficient(0) == artin9.eps


def test_value_at_imaginary_unit(datum9, artin9, ext9):
    i = _imag_unit(ext9)
    # phi(T)(i) = eps*i + i^3 + i^9 and the additive tail cancels
    assert phi_deformation_value(datum9, i) == artin9.eps * artin9.from_fq(i)


def test_value_at_zero(datum9, ext9):
    assert phi_deformation_value(datum9, ext9.zero).is_zero()


def test_every_lift_gives_the_same_value(datum9, artin9, ext9):
    i = _imag_unit(ext9)
    base = phi_deformation_value(datum9, i)
    for c in ext9.elements():
        pert = artin9.eps * artin9.from_fq(c)
        assert phi_deformation_value(datum9, i, pert) == base


def test_values_land_in_maximal_ideal(datum9, ext9):
    for x in (ext9.zero, _imag_unit(ext9), -_imag_unit(ext9)):
        assert phi_deformation_value(datum9, x).in_maximal_ideal()


def test_rejects_non_torsion_input(datum9, ext9):
    non_torsion = next(x for x in ext9.elements()
                       if x and x * x != -ext9.one)
    with pytest.raises(ValueError, match="torsion"):
        phi_deformation_value(datum9, non_torsion)


def test_rejects_lift_outside_maximal_ideal(datum9, ext9, artin9):
    with pytest.raises(ValueError, match="maximal ideal"):
        phi_deformation_value(datum9, ext9.zero, artin9.one)


def test_full_report(datum9):
    rep = lift_independence_check(datum9)
    assert rep.ok
    assert rep.torsion_count == 3
    assert rep.exhaustive and rep.perturbations_checked == 27
    assert rep.additivity_ok and rep.linearity_ok and rep.connected_ok
    assert rep.frobenius_kernel_trivial


@pytest.mark.parametrize("nilpotency", [3, 4])
def test_report_draws_its_perturbations_from_the_listed_ideal(
        place_T, ext9, nilpotency, monkeypatch):
    # 9^2 = 81 ideal elements are all checked in listed order; of 9^3 = 729
    # the seeded sample of the listed ideal is checked; the ideal is built
    # by index and never listed
    R = artin_ring(place_T, 2, nilpotency)
    listed = list(R.maximal_ideal())
    bound = serretate.EXHAUSTIVE_IDEAL_BOUND
    exhaustive = len(listed) <= bound
    expected = listed if exhaustive else random.Random(0).sample(listed, bound)
    datum = constant_lift(DrinfeldModule(ext9, ext9.one, ext9.one), R,
                          nilpotency - 1)
    drawn = {}
    value = serretate.phi_deformation_value

    def recording(datum, x_n, lift_perturbation=None):
        if lift_perturbation is not None:
            drawn.setdefault(x_n, []).append(lift_perturbation)
        return value(datum, x_n, lift_perturbation)

    def unlisted():
        raise AssertionError("the maximal ideal was listed")

    monkeypatch.setattr(serretate, "phi_deformation_value", recording)
    monkeypatch.setattr(R, "maximal_ideal", unlisted)
    rep = lift_independence_check(datum)
    assert rep.exhaustive == exhaustive and rep.ok
    assert rep.perturbations_checked == rep.torsion_count * len(expected)
    assert len(drawn) == rep.torsion_count
    assert all(sample == expected for sample in drawn.values())


def test_depth_beyond_nilpotency_rejected(ext9, artin9):
    E0 = DrinfeldModule(ext9, ext9.one, ext9.one)
    with pytest.raises(ValueError, match="nilpotency"):
        constant_lift(E0, artin9, 2)


def test_supersingular_base_rejected(ext9, artin9):
    E0 = DrinfeldModule(ext9, ext9.zero, ext9.one)
    with pytest.raises(ValueError, match="ordinary"):
        constant_lift(E0, artin9, 1)


def test_nonreducing_lift_rejected(place_T, ext9, artin9):
    E0 = DrinfeldModule(ext9, ext9.one, ext9.one)
    wrong = DrinfeldModule(artin9,
                           artin9.from_fq(ext9.field.gen()),
                           artin9.one)
    with pytest.raises(ValueError, match="reduce"):
        DeformationDatum(E0, artin9, wrong, 1)


def test_deformed_module_values(place_T, ext9, artin9):
    # perturb delta in the eps direction: values remain well defined
    E0 = DrinfeldModule(ext9, ext9.one, ext9.one)
    E = DrinfeldModule(artin9, artin9.one, artin9.one + artin9.eps)
    datum = DeformationDatum(E0, artin9, E, 1)
    rep = lift_independence_check(datum)
    assert rep.ok


def test_degree_two_place_datum(place_TT1):
    # the degree-2 place passes the same battery
    ext = ext_field(place_TT1, 1)
    E0 = DrinfeldModule(ext, ext.zero, ext.one)  # ordinary at this place
    R = artin_ring(place_TT1, 1, 2)
    datum = constant_lift(E0, R, 1)
    rep = lift_independence_check(datum)
    assert rep.ok
    assert rep.torsion_count == 4  # A/(varpi) has q^d = 4 points here
