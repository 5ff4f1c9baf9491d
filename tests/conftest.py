"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from vortex_atlas.core import Configuration


def rotation_axis_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about a nonzero ``axis`` (Rodrigues' formula)."""
    ux, uy, uz = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _sample_pm_configuration(rng, n_pairs: int, min_chord: float = 1e-3):
    """Random configuration of ``n_pairs`` +1 and ``n_pairs`` -1 vortices.

    Positions are drawn uniformly on the sphere and the whole draw is
    rejected until every pairwise chord distance exceeds ``min_chord``,
    so the sample stays clear of the collision singularities of the
    interaction (the rotation rate of a close pair grows like the inverse
    squared separation, which no fixed-accuracy integration budget can
    follow).
    """
    m = 2 * n_pairs
    while True:
        p = rng.normal(size=(m, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        gram = np.clip(p @ p.T, -1.0, 1.0)
        chord2 = 2.0 * (1.0 - gram[np.triu_indices(m, k=1)])
        if chord2.min() > min_chord**2:
            break
    return Configuration(p, np.repeat([1.0, -1.0], n_pairs))


@pytest.fixture
def pm_sampler():
    """Factory drawing random balanced +/-1 configurations."""
    return _sample_pm_configuration
