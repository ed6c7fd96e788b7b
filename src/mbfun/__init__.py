"""Exact Bernstein-Sato polynomials of meromorphic functions F/G."""

from .bfunction import BFunction
from .merobf import b_mero, b_simple, reduced_b, smoothness_test
from .annihilator import ann_fs, b_classic, bernstein_sato, sabbah_line
from .multipoly import MultiPoly
from .ncres import NCChart, bound_set, eigenvalue_classes, roots_nc
from .multiplier import jumping_numbers_nc, multiplier_ideal_nc
from .oracle import verify_functional_equation
from .parser import parse_poly
from .rationals import Q

__all__ = [
    "BFunction",
    "MultiPoly",
    "NCChart",
    "Q",
    "ann_fs",
    "b_classic",
    "b_mero",
    "b_simple",
    "bernstein_sato",
    "bound_set",
    "eigenvalue_classes",
    "jumping_numbers_nc",
    "multiplier_ideal_nc",
    "parse_poly",
    "reduced_b",
    "roots_nc",
    "sabbah_line",
    "smoothness_test",
    "verify_functional_equation",
]

__version__ = "0.1.0"
