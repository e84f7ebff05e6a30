"""Vertical linearization of deck-transformation families near a complex torus.

The package computes, order by order in the vertical variables, the
coordinate change that makes every deck transformation of a torus
neighborhood exactly linear in v, and certifies the construction with a
small-divisor scan, exact domain geometry, and a majorant-series dominance
check.
"""

from ._kernels import BACKEND as kernel_backend
from .series import TruncatedSeries, compose_diagonal, invert_vertical_map, \
    substitute_vertical
from .lattice import DomainSpec, LatticeSpec, log_indicatrix, max_margin_eta, \
    union_and_hull
from .norms import NormBound, sampled_lower_bound, sup_norm_bound

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries", "compose_diagonal", "substitute_vertical",
    "invert_vertical_map",
    "LatticeSpec", "DomainSpec", "log_indicatrix", "union_and_hull",
    "max_margin_eta",
    "NormBound", "sup_norm_bound", "sampled_lower_bound",
    "kernel_backend",
]


def reference_problem_path():
    """Path of the elliptic-golden reference problem shipped with the package."""
    from importlib.resources import files

    return str(files("toruslin").joinpath("data/elliptic_golden.prob"))
