"""Exact-arithmetic toolkit for semi-stable fibrations of genus-g curves:
germ resolution, fibration invariants, slope/speed bounds, Hurwitz-type
branch data, and the constructions that realize the record speeds."""

__version__ = "0.1.0"
