"""RPL009 violating fixture: a dead private helper."""

__all__ = ["compute_span"]


def compute_span(width_m, height_m):
    return width_m * height_m


def _forgotten_helper(values):
    return sum(values) / len(values)
