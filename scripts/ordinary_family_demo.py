#!/usr/bin/env python3
"""End-to-end walk through the ordinary family machinery at one place:
build the correspondence, take the etale-part operator in a few weights,
project, and watch specialization commute with the projector.

Usage: python scripts/ordinary_family_demo.py [--q 3] [--varpi T] [--m 2]
"""

import argparse
import sys

from drinfeld.basearith import field_of_order, make_place
from drinfeld.hecke import build_correspondence, operator_matrix
from drinfeld.iwasawa import iwasawa_level, specialize
from drinfeld.projector import (constant_tower, control_check, mat_identity,
                                mat_sparse, ordinary_projector)
from drinfeld.textenc import parse_apoly


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--varpi", type=str, default="T")
    ap.add_argument("--m", type=int, default=2)
    args = ap.parse_args(argv)

    field = field_of_order(args.q)
    place = make_place(parse_apoly(field, args.varpi))
    corr = build_correspondence(place, args.m)
    print(f"{place}, m={args.m}: {len(corr.ordinary)} ordinary points")

    for k in (-2, 0, 3):
        U = operator_matrix(corr, k, "U")
        det = U.determinant()
        rep = ordinary_projector(constant_tower(U.ext, U.rows))
        is_id = rep.projector.matrices[0] == mat_identity(U.ext, U.size)
        print(f"  weight {k}: det(U) = {det}, projector is identity: {is_id}")

    lv = iwasawa_level(place, 2)
    u = lv.wild_group[min(1, len(lv.wild_group) - 1)]
    M = mat_sparse([[lv.one, lv.dirac(u)], [lv.zero, lv.one * lv.ring.varpi]])
    print("family operator over the level-2 measure algebra:")
    weights = (0, 2, 3, 5)
    reports = control_check(
        M, lv, [lambda x, k=k: specialize(x, k) for k in weights], lv.ring)
    for k, cr in zip(weights, reports):
        print(f"  weight {k}: idempotent base change commutes: {cr.ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
