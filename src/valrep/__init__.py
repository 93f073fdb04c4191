"""Exact arithmetic for symplectic surface-group representations over ordered,
valued rational function fields: orders and valuations on Q(X), Newton
polygons, Lagrangian crossratios and Maslov indices, translation lengths,
closed-point certificates and geodesic-current periods."""

from .exprparse import ParseError, parse_ratfunc
from .fields import ONE, ZERO, OrderSpec, RatFunc, X, format_ratfunc
from .linalg import Matrix
from .poly import Poly
from .symplectic import (
    Lagrangian,
    crossratio,
    is_symplectic,
    maslov,
)
from .spectra import (
    NORM_SPREAD,
    NORM_SUM,
    building_pseudodistance,
    jordan_valuation,
    translation_length,
)
from .valuation import (
    INFINITY,
    NewtonPolygonResult,
    Valuation,
    check_order_compatibility,
    newton_polygon,
)
from .words import Word, parse_word
from .representation import (
    ClosedPoint,
    GroupPresentation,
    NotClosedIntegral,
    RepTable,
    UnknownVerdict,
    closed_point_verdict,
)
from .framing import FramingTable, attracting_lagrangian, verify_maximal_framing
from .currents import (
    FramingCrossratio,
    TableCrossratio,
    crossratio_axiom_check,
    lamination_dichotomy_check,
    multicurve_certificate_ball,
    period,
    period_via_length,
    rectangle_bounds,
    systole_sweep,
)
from .pants import pants_rep

__version__ = "0.1.0"
