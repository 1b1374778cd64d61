"""Exact ramification invariants of totally ramified local field extensions."""

from .base import INFINITY, GroundField, vp
from .copolygon import VK, VL, fstar, truncated_psi, valuation_function
from .extension import EisensteinPoly, attach_eisenstein, different_exponent
from .invariants import (
    InsepProfile,
    binom_val,
    indices,
    indices_closed_form,
    inseparability_profile,
    phi,
    phi_binomial,
    phi_tilde,
    tilde_indices,
)
from .oracle import FULL, REDUCED, capital_phi, divided_congruence, dpower, perturbed_eval
from .plfun import Line, PLFunction
from .series import (
    Series,
    alternate_series,
    compose_series,
    eth_root_substitute,
    evaluate,
    evaluate_at_pi,
    expand_digits,
    normalize_leading_digit,
)
from .tower import (
    CorollaryReport,
    GeReport,
    TameLift,
    TowerProfile,
    compose_tower,
    corollary_report,
    ge_report,
    lambda_l,
    s_sets,
    tame_lift_tower,
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
    "binom_val",
    "indices",
    "indices_closed_form",
    "inseparability_profile",
    "phi",
    "phi_binomial",
    "phi_tilde",
    "tilde_indices",
    "FULL",
    "REDUCED",
    "capital_phi",
    "divided_congruence",
    "dpower",
    "perturbed_eval",
    "Line",
    "PLFunction",
    "Series",
    "alternate_series",
    "compose_series",
    "eth_root_substitute",
    "evaluate",
    "evaluate_at_pi",
    "expand_digits",
    "normalize_leading_digit",
    "CorollaryReport",
    "GeReport",
    "TameLift",
    "TowerProfile",
    "compose_tower",
    "corollary_report",
    "ge_report",
    "lambda_l",
    "s_sets",
    "tame_lift_tower",
]

__version__ = "0.1.0"
