"""Pinned output of `vfiltration.theta_reduce` on the initial-ideal route.

`data/theta_reduce_pins.json` holds, per pair (F, G, m), the b-function
that `b_polynomial` reads off theta_reduce's ideal, and the sorted strings
of the reduced degrevlex Groebner basis of that ideal.  The pairs are the
34 of `test_merobf.INITIAL_ROUTE_PAIRS` and the other 13 of
`test_merobf.ENGINE_PINS`.  A reduced Groebner basis is unique, so the
pins hold whichever generators theta_reduce finds for in_w(I), as long as
they generate the same ideal.

The ideal is completed as `merobf.b_section_along_t_initial` does: the
seed operators, then each annihilating operator of total degree at most
`COMPLETION_DEGREE` that the ideal does not contain yet.  Running this
file as a script, with src and tests on PYTHONPATH, rewrites the pins
from the current code.
"""

import json
import re
from pathlib import Path

import pytest

from mbfun.groebner import LeftIdeal, buchberger
from mbfun.merobf import COMPLETION_DEGREE, _seed_generators, annihilating_operators, build_sigma
from mbfun.parser import parse_poly
from mbfun.vfiltration import b_polynomial, theta_reduce
from mbfun.weyl import MonomialOrder

PINS_PATH = Path(__file__).parent / "data" / "theta_reduce_pins.json"


def completed_ideal(ftext, gtext, m):
    names = tuple(sorted(set(re.findall(r"[a-z][a-z0-9]*", ftext + " " + gtext))))
    ctx = build_sigma(parse_poly(ftext, names), parse_poly(gtext, names), m)
    ideal = LeftIdeal(ctx.sig, _seed_generators(ctx))
    for cand in annihilating_operators(ctx, COMPLETION_DEGREE):
        if not ideal.contains(cand):
            ideal = LeftIdeal(ctx.sig, ideal.generators + [cand])
    return ideal


def pinned_values(ftext, gtext, m):
    """(b, sorted strings of the reduced degrevlex basis) of theta_reduce's
    ideal for the pair."""
    reduced = theta_reduce(completed_ideal(ftext, gtext, m))
    basis = buchberger(reduced.sig, reduced.generators, MonomialOrder.degrevlex())
    return str(b_polynomial(reduced)), sorted(str(g) for g in basis)


@pytest.mark.parametrize(
    "entry", json.loads(PINS_PATH.read_text(encoding="utf-8")),
    ids=lambda e: f"{e['F']}/{e['G']} m={e['m']}",
)
def test_theta_reduce_matches_pins(entry):
    b, basis = pinned_values(entry["F"], entry["G"], entry["m"])
    assert b == entry["b"]
    assert basis == entry["basis"]


if __name__ == "__main__":
    from test_merobf import ENGINE_PINS, INITIAL_ROUTE_PAIRS

    pins = []
    for ftext, gtext, m in dict.fromkeys(INITIAL_ROUTE_PAIRS + [p[:3] for p in ENGINE_PINS]):
        b, basis = pinned_values(ftext, gtext, m)
        pins.append({"F": ftext, "G": gtext, "m": m, "b": b, "basis": basis})
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
