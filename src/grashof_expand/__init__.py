"""Steady states of the rescaled 2D periodic Navier-Stokes equations over
Grashof sweeps, and intrinsic asymptotic expansions of the solution sequence
in nested fractional Sobolev spaces."""

from . import expansion, fixtures, orders, spectral, steady

__version__ = "0.1.0"
