"""Mini-project for RPL009: ``core`` keeps a dead private helper."""

from .core import compute_area_m2

__all__ = ["compute_area_m2"]
