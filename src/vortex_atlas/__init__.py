"""Point-vortex relative equilibria on the unit sphere.

The package is organized in five layers:

``core``
    Configurations as position and strength arrays, and family descriptors.
``dynamics``
    Hamiltonian, momentum map, vector field, adaptive integrator, and the
    mixed spherical/pole-chart calculus.
``equilibria``
    Constructors for the symmetric families, rotation rates, residual
    certificates, and the low-symmetry branch solvers.
``stability``
    Closed-form Hessians, symmetry-adapted slice bases, block spectra,
    stability verdicts, and transition latitudes.
``atlas``
    The ``vortex-atlas`` command line: simulate, classify, sweep,
    diagram, thresholds.
"""

from __future__ import annotations

from .core import (
    COLLISION_EPS,
    POLE_EPS,
    CollisionError,
    Configuration,
    Family,
    FamilyDescriptor,
    InvalidConfiguration,
    InvalidDescriptor,
    Layout,
    PoleSingularity,
    VortexError,
)

__version__ = "0.1.0"

__all__ = [
    "COLLISION_EPS",
    "POLE_EPS",
    "CollisionError",
    "Configuration",
    "Family",
    "FamilyDescriptor",
    "InvalidConfiguration",
    "InvalidDescriptor",
    "Layout",
    "PoleSingularity",
    "VortexError",
    "__version__",
]
