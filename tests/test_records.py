"""Record semantics: the immutable records are namedtuples that compare
field-wise (except where a class says otherwise), hash alike when equal,
refuse assignment and keep the `Name(field=value, ...)` repr."""

import pytest

from drinfeld.basearith import ArtinRing, make_place, poly_T
from drinfeld.carlitz import (TruncSeriesRing, carlitz_coefficient_profile,
                              trace_of_carlitz_pullback)
from drinfeld.checks import CheckResult
from drinfeld.hecke import ModuliPoint, build_correspondence
from drinfeld.iwasawa import WeightChar, determining_weights, filtration
from drinfeld.modules import DrinfeldModule
from drinfeld.projector import ControlReport
from drinfeld.serretate import DeformationDatum, constant_lift


def _records(place_T, ext9, artin9):
    corr = build_correspondence(place_T, 1)
    E0 = DrinfeldModule(ext9, ext9.one, ext9.one)
    _, V = E0.frobenius_verschiebung()
    series = TruncSeriesRing(ArtinRing(place_T, 1, 2), 10)
    return {
        "PrimePlace": place_T,
        "ModuliPoint": corr.ordinary[0],
        "CorrEdge": corr.edges[0],
        "WeightChar": WeightChar(2, 1),
        "DeterminingSet": determining_weights(place_T, 1),
        "MonomialIdeal": filtration(2, 3),
        "Verschiebung": V,
        "TorsionModule": E0.torsion_points(1, ext9),
        "DeformationDatum": constant_lift(E0, artin9, 1),
        "CoefficientProfile": carlitz_coefficient_profile(place_T),
        "TraceReport": trace_of_carlitz_pullback(place_T, series),
        "ControlReport": ControlReport([[1]], [[1]], True),
        "CheckResult": CheckResult("id", "what", True, "", 0.5),
    }


RECORDS = ["PrimePlace", "ModuliPoint", "CorrEdge", "WeightChar",
           "DeterminingSet", "MonomialIdeal", "Verschiebung", "TorsionModule",
           "DeformationDatum", "CoefficientProfile", "TraceReport",
           "ControlReport", "CheckResult"]
# TorsionModule carries its point orders as a dict and ControlReport its
# matrices as lists: these compare but, as before, cannot be hashed
UNHASHABLE = {"TorsionModule", "ControlReport"}


@pytest.fixture(scope="module")
def records(place_T, ext9, artin9):
    return _records(place_T, ext9, artin9)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_constructions_are_equal_and_hash_alike(records, name):
    a = records[name]
    assert type(a).__name__ == name
    b = type(a)(*a)
    assert b is not a
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(records, name):
    a = records[name]
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], a[0])
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(records, name):
    a = records[name]
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(a._fields, a))
    assert repr(a) == f"{name}({fields})"


def test_a_changed_field_breaks_equality(records):
    w = records["WeightChar"]
    assert w._replace(tame_index=None) != w
    assert WeightChar(2) == WeightChar(2, None)
    r = records["CheckResult"]
    assert r._replace(passed=False) != r
    assert CheckResult("id", "what", True) == CheckResult("id", "what", True,
                                                          "", 0.0)


def test_moduli_point_compares_by_j_only(records):
    p = records["ModuliPoint"]
    flipped = p._replace(ordinary=not p.ordinary, hasse=p.hasse + p.hasse)
    assert flipped == p and not flipped != p
    assert hash(flipped) == hash(p) == hash(p.j)
    other = ModuliPoint(p.j + p.j.field.one, p.rep, p.hasse, p.ordinary)
    assert other != p
    assert p != tuple(p)


def test_prime_place_hashes_its_key(F3):
    a, b = make_place(poly_T(F3)), make_place(poly_T(F3))
    assert a == b and hash(a) == hash(b) == hash(a.key())
    assert a != make_place(poly_T(F3) + F3.one)


def test_deformation_datum_validates_on_construction(records):
    datum = records["DeformationDatum"]
    with pytest.raises(ValueError, match="torsion depth"):
        DeformationDatum(datum.E0, datum.R, datum.E, 0)
    with pytest.raises(ValueError, match="E must live over R"):
        DeformationDatum(datum.E0, datum.R, datum.E0, 1)
