"""Sparse resultants and direct images of complexes on toric varieties.

Exact integer arithmetic end to end: no floating point, no term-order
machinery beyond a fixed degrevlex, no external computer-algebra systems.
"""
from .qpoly import SparsePoly, PolyMatrix, poly_from_text, poly_to_text

__all__ = [
    "SparsePoly",
    "PolyMatrix",
    "poly_from_text",
    "poly_to_text",
]

__version__ = "0.1.0"
