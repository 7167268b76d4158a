"""Exhaustive grid search over the configuration space.

The paper's §1 argues exhaustive search is "prohibitively time-consuming
when there is a large value range for the control parameters"; the
``grid`` tuner (:class:`repro.tuners.GridTuner`) enumerates these points
through :func:`repro.tuners.run_tuner` to *demonstrate* that claim: even
a coarse grid needs an order of magnitude more live configuration
changes than SPSA.
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import MinMaxScaler


def grid_points(scaler: MinMaxScaler, points_per_axis: int) -> np.ndarray:
    """Cartesian grid over the scaled box."""
    if points_per_axis < 2:
        raise ValueError("points_per_axis must be >= 2")
    box = scaler.scaled
    axes = [
        np.linspace(box.lower[d], box.upper[d], points_per_axis)
        for d in range(box.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
