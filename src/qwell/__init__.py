"""Exact-arithmetic analysis of probability plateaux in the suddenly
expanded 1D infinite well at fractional times."""

__version__ = "0.1.0"
