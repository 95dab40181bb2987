"""Exact arithmetic toolkit for orbit/variety intersections on the line.

Submodules:

* padics, polynomials: p-adic scalars, exact polynomials over Q, reduction mod m
* dynsys, reduction: self-maps of P^1 over Q and their mod-p models
* analytic: Strassmann counting, quasiperiodicity disks, Mahler interpolation
* intersection: diagonal pullbacks, ramification bounds, integrality scans
* primesearch: certified prime selection
* classify: normal forms, Chebyshev/power conjugacy, decomposition, periodic curves
* engine: the intersection decision procedure
* cli: the batch front end
"""

__version__ = "0.1.0"

from .dynsys import RationalMap, iterate  # noqa: F401
from .engine import brute_force_scan, decide, decide_curve_pair  # noqa: F401
