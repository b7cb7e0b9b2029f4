"""Spectral order bounds and verification tools for regular uniform hypergraphs."""

from .orthopoly import FPoly, Params
from .hypergraph import Hypergraph

__version__ = "0.1.0"

__all__ = ["Params", "FPoly", "Hypergraph", "__version__"]
