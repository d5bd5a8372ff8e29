"""Desk-scale exact computer algebra for rank-2 modules over F_q[T]:
twisted polynomial arithmetic, the rank-1 action, correspondences on moduli
points in residue characteristic, truncated measure algebras with weight
specializations, and ordinary projectors on towers of finite modules."""

from .basearith import (APoly, ArtinRing, FFElement, FieldExt, FiniteField,
                        LocalRing, PrimePlace, TruncPoly, ext_field,
                        field_of_order, finite_field, local_ring, make_place,
                        poly_T)
from .carlitz import (TruncSeriesRing, carlitz_coefficient_profile,
                      carlitz_eval, trace_of_carlitz_pullback)
from .hecke import (CorrEdge, Correspondence, HeckeMatrix, ModuliPoint,
                    atkin_lehner, build_correspondence, enumerate_moduli,
                    operator_matrix)
from .iwasawa import (IwasawaElement, IwasawaLevel, MonomialIdeal, WeightChar,
                      determining_weights, duality_twist, filtration,
                      iota_eval, iwasawa_level, specialize)
from .modules import (DrinfeldModule, Isogeny, SubgroupKind, SubgroupScheme,
                      TorsionModule, Verschiebung)
from .projector import (TowerModule, TowerOperator, constant_tower,
                        control_check, ordinary_projector, reduction_tower)
from .serretate import (DeformationDatum, constant_lift,
                        lift_independence_check, phi_deformation_value)
from .skew import (PolyRing, SkewPoly, kernel_points, right_divide,
                   stable_right_divisors, tau)

__version__ = "0.1.0"
