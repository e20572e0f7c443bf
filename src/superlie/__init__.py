"""Exact-arithmetic Lie superalgebras, G-modules and Harish-Chandra pairs."""

from .fields import FieldCtx

__all__ = ["FieldCtx"]
__version__ = "0.1.0"
