"""The drifted module: a private helper went dead."""


def compute_area_m2(width_m, height_m):
    return width_m * height_m


def _stale_normalizer(values):
    total = sum(values)
    return [value / total for value in values]
