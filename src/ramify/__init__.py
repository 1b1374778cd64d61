"""Exact ramification invariants of totally ramified local field extensions."""

from .base import INFINITY, GroundField, vp
from .copolygon import VK, VL, fstar, truncated_psi, valuation_function
from .extension import EisensteinPoly, attach_eisenstein, different_exponent
from .invariants import (
    InsepProfile,
    indices,
    indices_closed_form,
    inseparability_profile,
    phi,
)
from .oracle import FULL, REDUCED, capital_phi
from .plfun import Line, PLFunction
from .series import (
    Series,
    compose_series,
    eth_root_substitute,
    evaluate,
    evaluate_at_pi,
    expand_digits,
    normalize_leading_digit,
)
from .tower import (
    compose_tower,
    ge_report,
    lambda_l,
    tame_profile,
)

__all__ = [
    "INFINITY",
    "GroundField",
    "vp",
    "VK",
    "VL",
    "fstar",
    "truncated_psi",
    "valuation_function",
    "EisensteinPoly",
    "attach_eisenstein",
    "different_exponent",
    "InsepProfile",
    "indices",
    "indices_closed_form",
    "inseparability_profile",
    "phi",
    "FULL",
    "REDUCED",
    "capital_phi",
    "Line",
    "PLFunction",
    "Series",
    "compose_series",
    "eth_root_substitute",
    "evaluate",
    "evaluate_at_pi",
    "expand_digits",
    "normalize_leading_digit",
    "compose_tower",
    "ge_report",
    "lambda_l",
    "tame_profile",
]

__version__ = "0.1.0"
