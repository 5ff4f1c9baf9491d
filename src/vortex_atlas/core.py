"""Geometry and symmetry primitives for point vortices on the unit sphere.

This module provides the value types shared by the rest of the package:

* unit vectors, spherical coordinates, and the tangent-plane charts used
  near the two poles;
* vortex configurations (ring vortices of strength +1 or -1, plus an
  optional pinned pole pair) with JSON round-tripping;
* the symmetry group O(3) x (S_N x S_N) extended by the involution that
  exchanges the two vorticity populations, together with its action on
  configurations and the character that tells time-preserving from
  time-reversing elements;
* descriptors naming the families of symmetric configurations built by
  :mod:`vortex_atlas.equilibria`.

Conventions
-----------
Co-latitude ``theta`` is measured from the positive z-axis, longitude
``phi`` counter-clockwise from the positive x-axis.  Chord distances are
used throughout for collision tests: ``l^2 = 2 (1 - x . y)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "COLLISION_EPS",
    "POLE_EPS",
    "UNIT_NORM_TOL",
    "VortexError",
    "InvalidConfiguration",
    "InvalidDescriptor",
    "PoleSingularity",
    "CollisionError",
    "UnitVector3",
    "SphericalCoords",
    "PoleChart",
    "Vortex",
    "Layout",
    "Configuration",
    "GroupElement",
    "Family",
    "FamilyDescriptor",
    "chord_distance_squared",
    "to_spherical",
    "apply_group_element",
    "is_fixed_by",
    "rotation_z_matrix",
    "mirror_y_matrix",
    "mirror_z_matrix",
    "rotation_axis_matrix",
    "cyclic_shift",
    "identity_permutation",
]

# Pairwise chord distance below which two vortices count as collided.
COLLISION_EPS = 1e-9
# |sin(theta)| below which a point counts as sitting on a pole for chart
# purposes (spherical coordinates are singular there).
POLE_EPS = 1e-8
# Tolerance on | ||v||^2 - 1 | for unit vectors.
UNIT_NORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class VortexError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidConfiguration(VortexError, ValueError):
    """A configuration (or one of its constituents) violates an invariant."""


class InvalidDescriptor(VortexError, ValueError):
    """A family descriptor is malformed or outside its domain."""


class PoleSingularity(VortexError, ArithmeticError):
    """A chart operation was requested too close to a coordinate pole."""


class CollisionError(VortexError, ArithmeticError):
    """Two vortices are within the collision threshold of each other."""


# ---------------------------------------------------------------------------
# Points on the sphere and charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitVector3:
    """A point on the unit sphere, stored as Cartesian components."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not math.isfinite(n2) or abs(n2 - 1.0) > UNIT_NORM_TOL:
            raise InvalidConfiguration(
                f"point ({self.x}, {self.y}, {self.z}) is not on the unit "
                f"sphere: ||v||^2 - 1 = {n2 - 1.0:.3e}"
            )

    @classmethod
    def from_array(cls, a: np.ndarray, normalize: bool = False) -> "UnitVector3":
        a = np.asarray(a, dtype=float)
        if a.shape != (3,):
            raise InvalidConfiguration(f"expected a 3-vector, got shape {a.shape}")
        if normalize:
            norm = float(np.linalg.norm(a))
            if norm == 0.0 or not math.isfinite(norm):
                raise InvalidConfiguration("cannot normalize a zero/non-finite vector")
            a = a / norm
        return cls(float(a[0]), float(a[1]), float(a[2]))

    @classmethod
    def from_spherical(cls, theta: float, phi: float) -> "UnitVector3":
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


@dataclass(frozen=True)
class SphericalCoords:
    """Co-latitude/longitude chart away from the poles.

    ``theta`` is the co-latitude in ``(0, pi)`` and ``phi`` the longitude
    normalized to ``[0, 2*pi)``.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        if not (0.0 < self.theta < math.pi):
            raise InvalidConfiguration(
                f"co-latitude must lie strictly inside (0, pi), got {self.theta}"
            )
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise InvalidConfiguration(
                f"longitude must lie in [0, 2*pi), got {self.phi}"
            )

    def to_cartesian(self) -> UnitVector3:
        return UnitVector3.from_spherical(self.theta, self.phi)


@dataclass(frozen=True)
class PoleChart:
    """Tangent-plane chart pinned to one of the two poles.

    The chart coordinates are the ambient ``(x, y)`` components of the
    point; the vertical component is reconstructed as
    ``z = hemisphere * sqrt(1 - x^2 - y^2)`` with ``hemisphere`` equal to
    ``+1`` for the north chart and ``-1`` for the south chart.
    """

    x: float
    y: float
    hemisphere: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "hemisphere", int(self.hemisphere))
        if self.hemisphere not in (-1, 1):
            raise InvalidConfiguration("hemisphere must be +1 (north) or -1 (south)")
        if self.x * self.x + self.y * self.y >= 1.0:
            raise InvalidConfiguration(
                f"pole chart point ({self.x}, {self.y}) has x^2 + y^2 >= 1"
            )

    def to_cartesian(self) -> UnitVector3:
        z = self.hemisphere * math.sqrt(max(0.0, 1.0 - self.x**2 - self.y**2))
        return UnitVector3(self.x, self.y, z)


def to_spherical(v: UnitVector3) -> SphericalCoords:
    """Convert a point to spherical coordinates.

    Raises
    ------
    PoleSingularity
        If the point lies within ``POLE_EPS`` of either pole, where the
        longitude is undefined.
    """
    s = math.hypot(v.x, v.y)
    if s < POLE_EPS:
        raise PoleSingularity(
            f"point ({v.x}, {v.y}, {v.z}) is within {POLE_EPS} of a pole"
        )
    theta = math.atan2(s, v.z)
    phi = math.atan2(v.y, v.x) % (2.0 * math.pi)
    return SphericalCoords(theta, phi)


def chord_distance_squared(u: UnitVector3, v: UnitVector3) -> float:
    """Squared chord distance ``l^2 = 2 (1 - u . v)`` between two points.

    Evaluated as ``|u - v|^2``, which is identical on unit vectors but
    keeps full precision for nearly coincident points, where the inner
    product form cancels catastrophically.
    """
    dx = u.x - v.x
    dy = u.y - v.y
    dz = u.z - v.z
    return dx * dx + dy * dy + dz * dz


# ---------------------------------------------------------------------------
# Vortices and configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vortex:
    """A single point vortex: a position on the sphere and a strength."""

    position: UnitVector3
    strength: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "strength", float(self.strength))
        if self.strength == 0.0 or not math.isfinite(self.strength):
            raise InvalidConfiguration("vortex strength must be finite and nonzero")


@dataclass(frozen=True)
class Layout:
    """Index bookkeeping for a configuration.

    ``plus``/``minus`` list the indices of the ring vortices of strength
    +1 and -1 (in ring order); ``north``/``south`` give the indices of the
    pinned pole vortices, or ``None`` when the configuration has no poles.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...]
    north: int | None = None
    south: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "plus", tuple(int(i) for i in self.plus))
        object.__setattr__(self, "minus", tuple(int(i) for i in self.minus))

    def all_indices(self) -> tuple[int, ...]:
        idx = list(self.plus) + list(self.minus)
        if self.north is not None:
            idx.append(self.north)
        if self.south is not None:
            idx.append(self.south)
        return tuple(idx)

    @classmethod
    def standard(cls, n_plus: int, n_minus: int, pole_count: int) -> "Layout":
        """Layout for the standard ordering [+ring, -ring, north, south]."""
        north = south = None
        if pole_count == 2:
            north = n_plus + n_minus
            south = n_plus + n_minus + 1
        return cls(
            plus=tuple(range(n_plus)),
            minus=tuple(range(n_plus, n_plus + n_minus)),
            north=north,
            south=south,
        )


@dataclass(frozen=True)
class Configuration:
    """An ordered collection of point vortices on the sphere.

    Ring vortices carry strength +1 or -1; a configuration may in addition
    hold a pair of pole vortices (``pole_count == 2``) of arbitrary nonzero
    strengths, indexed by ``layout.north`` / ``layout.south``.  Pairwise
    chord separations are validated on construction.
    """

    vortices: tuple[Vortex, ...]
    pole_count: int = 0
    layout: Layout | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vortices", tuple(self.vortices))
        if self.pole_count not in (0, 2):
            raise InvalidConfiguration("pole_count must be 0 or 2")
        if self.layout is None:
            object.__setattr__(
                self, "layout", _infer_layout(self.vortices, self.pole_count)
            )
        layout = self.layout
        m = len(self.vortices)
        if sorted(layout.all_indices()) != list(range(m)):
            raise InvalidConfiguration(
                "layout must reference each vortex index exactly once"
            )
        if (self.pole_count == 2) != (layout.north is not None and layout.south is not None):
            raise InvalidConfiguration("pole_count and layout poles disagree")
        for i in layout.plus:
            if self.vortices[i].strength != 1.0:
                raise InvalidConfiguration(
                    f"ring vortex {i} in the + population must have strength +1"
                )
        for i in layout.minus:
            if self.vortices[i].strength != -1.0:
                raise InvalidConfiguration(
                    f"ring vortex {i} in the - population must have strength -1"
                )
        self._check_collisions()

    def _check_collisions(self) -> None:
        p = self.positions()
        m = p.shape[0]
        if m < 2:
            return
        # direct differences resolve separations far below the threshold,
        # unlike the 2(1 - gram) form which cancels near coincidence
        diff = p[:, None, :] - p[None, :, :]
        l2 = np.einsum("ijk,ijk->ij", diff, diff)
        iu = np.triu_indices(m, k=1)
        worst = int(np.argmin(l2[iu]))
        if l2[iu][worst] < COLLISION_EPS**2:
            i, j = iu[0][worst], iu[1][worst]
            raise CollisionError(
                f"vortices {i} and {j} are within the collision threshold "
                f"(chord distance {math.sqrt(max(0.0, l2[iu][worst])):.3e})"
            )

    # -- array views -------------------------------------------------------

    def positions(self) -> np.ndarray:
        """Positions as an ``(M, 3)`` array, in index order."""
        return np.array([v.position.as_array() for v in self.vortices])

    def strengths(self) -> np.ndarray:
        """Strengths as an ``(M,)`` array, in index order."""
        return np.array([v.strength for v in self.vortices])

    def __len__(self) -> int:
        return len(self.vortices)

    # -- derived configurations ---------------------------------------------

    def with_negated_strengths(self) -> "Configuration":
        """Same positions with every strength negated.

        The equations of motion are linear in the strengths, so negating
        them reverses the flow; this is how backward evolution is computed
        without ever integrating with a negative time step.
        """
        flipped = tuple(
            Vortex(v.position, -v.strength) for v in self.vortices
        )
        layout = Layout(
            plus=self.layout.minus,
            minus=self.layout.plus,
            north=self.layout.north,
            south=self.layout.south,
        )
        return Configuration(flipped, self.pole_count, layout)

    def with_positions(self, p: np.ndarray) -> "Configuration":
        """Same strengths and layout with positions replaced by ``p``."""
        p = np.asarray(p, dtype=float)
        vortices = tuple(
            Vortex(UnitVector3.from_array(p[i], normalize=True), v.strength)
            for i, v in enumerate(self.vortices)
        )
        return Configuration(vortices, self.pole_count, self.layout)

    # -- serialization -------------------------------------------------------

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "vortices": [
                {
                    "pos": [v.position.x, v.position.y, v.position.z],
                    "strength": v.strength,
                }
                for v in self.vortices
            ],
            "poles": self.pole_count,
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str, strict_poles: bool = True) -> "Configuration":
        """Parse a configuration from its JSON form.

        The last two entries are taken to be the poles when ``poles`` is 2
        (the more northerly one is the north pole vortex).  With
        ``strict_poles`` the pole strengths must be opposite.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfiguration(f"malformed configuration JSON: {exc}") from exc
        if not isinstance(payload, dict) or "vortices" not in payload:
            raise InvalidConfiguration("configuration JSON must contain 'vortices'")
        raw = payload["vortices"]
        if not isinstance(raw, list) or not raw:
            raise InvalidConfiguration("'vortices' must be a non-empty list")
        try:
            pole_count = int(payload.get("poles", 0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfiguration(f"bad 'poles' field: {exc}") from exc
        vortices = []
        for k, entry in enumerate(raw):
            try:
                pos = entry["pos"]
                strength = float(entry["strength"])
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidConfiguration(f"bad vortex entry {k}: {exc}") from exc
            if not isinstance(pos, (list, tuple)) or len(pos) != 3:
                raise InvalidConfiguration(f"bad position in vortex entry {k}")
            vortices.append(Vortex(UnitVector3(*map(float, pos)), strength))
        layout = _infer_layout(tuple(vortices), pole_count)
        config = cls(tuple(vortices), pole_count, layout)
        if strict_poles and pole_count == 2:
            ln = config.vortices[layout.north].strength
            ls = config.vortices[layout.south].strength
            if abs(ln + ls) > 1e-12:
                raise InvalidConfiguration(
                    f"pole strengths must be opposite, got {ln} and {ls}"
                )
        return config


def _infer_layout(vortices: tuple[Vortex, ...], pole_count: int) -> Layout:
    """Infer a layout: poles are the trailing entries, rings split by sign."""
    m = len(vortices)
    if pole_count == 2:
        if m < 3:
            raise InvalidConfiguration("a pole pair needs at least one ring vortex")
        a, b = m - 2, m - 1
        if vortices[a].position.z >= vortices[b].position.z:
            north, south = a, b
        else:
            north, south = b, a
        if not (vortices[north].position.z > 0.0 > vortices[south].position.z):
            raise InvalidConfiguration(
                "pole vortices must sit in opposite hemispheres"
            )
        ring = range(m - 2)
    else:
        north = south = None
        ring = range(m)
    plus = tuple(i for i in ring if vortices[i].strength > 0)
    minus = tuple(i for i in ring if vortices[i].strength < 0)
    return Layout(plus=plus, minus=minus, north=north, south=south)


# ---------------------------------------------------------------------------
# Symmetry group
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An element ``(A, sigma_+, sigma_-, tau^k)`` of the symmetry group.

    ``A`` is an orthogonal 3x3 matrix, ``sigma_+`` / ``sigma_-`` permute
    the two ring populations, and ``tau`` (``tau_power`` = 0 or 1) swaps
    the + and - populations (and the two pole slots).  The action on a
    configuration moves positions while each slot keeps its strength:

    ``(g . x)_i = A x_{sigma^{-1}(i)}``  after the optional swap.

    The character ``chi = det(A) * (-1)^tau_power`` is +1 for elements
    that preserve the direction of time and -1 for time-reversing ones.
    """

    orthogonal: np.ndarray
    sigma_plus: tuple[int, ...]
    sigma_minus: tuple[int, ...]
    tau_power: int = 0

    def __post_init__(self) -> None:
        a = np.array(self.orthogonal, dtype=float)
        if a.shape != (3, 3):
            raise InvalidConfiguration("orthogonal part must be a 3x3 matrix")
        if np.max(np.abs(a.T @ a - np.eye(3))) > 1e-12:
            raise InvalidConfiguration("matrix is not orthogonal to 1e-12")
        a.setflags(write=False)
        object.__setattr__(self, "orthogonal", a)
        object.__setattr__(self, "sigma_plus", _check_perm(self.sigma_plus))
        object.__setattr__(self, "sigma_minus", _check_perm(self.sigma_minus))
        object.__setattr__(self, "tau_power", int(self.tau_power) % 2)

    @property
    def chi(self) -> int:
        """Temporal character: +1 keeps the flow direction, -1 reverses it."""
        det = float(np.linalg.det(self.orthogonal))
        return int(round(det)) * (-1) ** self.tau_power

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Group product ``g * h`` acting as ``(g * h) . x = g . (h . x)``."""
        if self.tau_power == 0:
            sp = _compose_perm(self.sigma_plus, other.sigma_plus)
            sm = _compose_perm(self.sigma_minus, other.sigma_minus)
        else:
            sp = _compose_perm(self.sigma_plus, other.sigma_minus)
            sm = _compose_perm(self.sigma_minus, other.sigma_plus)
        return GroupElement(
            self.orthogonal @ other.orthogonal,
            sp,
            sm,
            self.tau_power + other.tau_power,
        )

    @classmethod
    def identity(cls, n_plus: int, n_minus: int | None = None) -> "GroupElement":
        if n_minus is None:
            n_minus = n_plus
        return cls(
            np.eye(3),
            identity_permutation(n_plus),
            identity_permutation(n_minus),
            0,
        )


def _check_perm(sigma) -> tuple[int, ...]:
    sigma = tuple(int(i) for i in sigma)
    if sorted(sigma) != list(range(len(sigma))):
        raise InvalidConfiguration(f"not a permutation of 0..{len(sigma) - 1}: {sigma}")
    return sigma


def _compose_perm(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Composition ``(f o g)(i) = f(g(i))``."""
    if len(f) != len(g):
        raise InvalidConfiguration("cannot compose permutations of different sizes")
    return tuple(f[g[i]] for i in range(len(g)))


def _invert_perm(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


def rotation_z_matrix(angle: float) -> np.ndarray:
    """Rotation about the z-axis by ``angle`` (counter-clockwise)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def mirror_z_matrix() -> np.ndarray:
    """Reflection through the equatorial plane (z -> -z)."""
    return np.diag([1.0, 1.0, -1.0])


def mirror_y_matrix() -> np.ndarray:
    """Reflection through the xz-plane (y -> -y)."""
    return np.diag([1.0, -1.0, 1.0])


def rotation_axis_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about an arbitrary (nonzero) axis."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise InvalidConfiguration("rotation axis must be nonzero")
    ux, uy, uz = axis / n
    k = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def cyclic_shift(n: int, k: int) -> tuple[int, ...]:
    """The permutation ``i -> (i + k) mod n``."""
    return tuple((i + k) % n for i in range(n))


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def apply_group_element(g: GroupElement, c: Configuration) -> Configuration:
    """Act with ``g`` on ``c``, returning a new configuration.

    Slots keep their strengths; positions move.  With ``tau_power == 1``
    the + slots receive (rotated images of) the - population's positions
    and vice versa, and the two pole slots likewise exchange contents.
    """
    layout = c.layout
    if len(g.sigma_plus) != len(layout.plus) or len(g.sigma_minus) != len(layout.minus):
        raise InvalidConfiguration(
            "permutation sizes do not match the ring populations "
            f"({len(g.sigma_plus)}/{len(g.sigma_minus)} vs "
            f"{len(layout.plus)}/{len(layout.minus)})"
        )
    if g.tau_power == 1 and len(layout.plus) != len(layout.minus):
        raise InvalidConfiguration(
            "the population swap needs equally sized + and - rings"
        )
    a = g.orthogonal
    pos = c.positions()
    plus_src = pos[list(layout.minus if g.tau_power else layout.plus)]
    minus_src = pos[list(layout.plus if g.tau_power else layout.minus)]
    inv_p = _invert_perm(g.sigma_plus)
    inv_m = _invert_perm(g.sigma_minus)

    new_pos = [None] * len(c)
    for r, i in enumerate(layout.plus):
        new_pos[i] = a @ plus_src[inv_p[r]]
    for r, i in enumerate(layout.minus):
        new_pos[i] = a @ minus_src[inv_m[r]]
    if c.pole_count == 2:
        n_src = pos[layout.south if g.tau_power else layout.north]
        s_src = pos[layout.north if g.tau_power else layout.south]
        new_pos[layout.north] = a @ n_src
        new_pos[layout.south] = a @ s_src

    vortices = tuple(
        Vortex(UnitVector3.from_array(new_pos[i], normalize=True), v.strength)
        for i, v in enumerate(c.vortices)
    )
    return Configuration(vortices, c.pole_count, layout)


def is_fixed_by(c: Configuration, g: GroupElement, tol: float = 1e-9) -> bool:
    """Whether ``g`` maps ``c`` onto itself up to relabeling within populations.

    The transformed + population is optimally matched against the original
    + population (likewise for the - population), and the pole slots are
    compared class-to-class; ``c`` is fixed when the largest matched
    displacement stays below ``tol``.
    """
    gc = apply_group_element(g, c)
    old = c.positions()
    new = gc.positions()
    worst = 0.0
    for idx in (c.layout.plus, c.layout.minus):
        if not idx:
            continue
        a = new[list(idx)]
        b = old[list(idx)]
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(cost[rows, cols].max()))
    if c.pole_count == 2:
        worst = max(
            worst,
            float(np.linalg.norm(new[c.layout.north] - old[c.layout.north])),
            float(np.linalg.norm(new[c.layout.south] - old[c.layout.south])),
        )
    return worst < tol


# ---------------------------------------------------------------------------
# Family descriptors
# ---------------------------------------------------------------------------


class Family(Enum):
    """Named families of symmetric configurations."""

    EQUATORIAL_PM_RING = "EquatorialPmRing"
    TETRAHEDRAL_PAIR = "TetrahedralPair"
    DNH_2R = "DNh2R"
    DND_RRP = "DNdRRp"
    C2V_2R2P = "C2v_2R2p"
    C2V_RRP2P = "C2v_RRp2p"
    C2V_RM_RMP = "C2v_RmRmp"


_FAMILY_ALIASES = {
    "DNh": Family.DNH_2R,
    "DNd": Family.DND_RRP,
}

_RING_FAMILIES = (Family.DNH_2R, Family.DND_RRP)


def _family_named(name: object) -> Family:
    """The family a value name or alias selects; InvalidDescriptor if none."""
    try:
        return _FAMILY_ALIASES.get(name) or Family(name)
    except (TypeError, ValueError) as exc:  # TypeError: unhashable name
        raise InvalidDescriptor(f"unknown family name {name!r}") from exc


@dataclass(frozen=True)
class FamilyDescriptor:
    """Parameters selecting one member of a named family.

    For the two-ring families, ``n_per_ring`` vortices of strength +1 sit
    at co-latitude ``theta0`` and ``n_per_ring`` of strength -1 at
    ``pi - theta0`` (in phase for the aligned family, offset by ``pi/N``
    for the staggered one); ``k_p = 2`` adds pole vortices of strengths
    ``lambda_n`` / ``-lambda_n``.
    """

    family: Family
    n_per_ring: int = 2
    theta0: float = math.pi / 2
    k_p: int = 0
    lambda_n: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_per_ring", int(self.n_per_ring))
        object.__setattr__(self, "theta0", float(self.theta0))
        object.__setattr__(self, "k_p", int(self.k_p))
        object.__setattr__(self, "lambda_n", float(self.lambda_n))

    def validate(self) -> None:
        if not isinstance(self.family, Family):
            raise InvalidDescriptor(f"unknown family {self.family!r}")
        if self.k_p not in (0, 2):
            raise InvalidDescriptor("k_p must be 0 or 2")
        if not math.isfinite(self.lambda_n):
            raise InvalidDescriptor("lambda_n must be finite")
        if self.family in _RING_FAMILIES:
            if self.n_per_ring < 2:
                raise InvalidDescriptor("ring families need n_per_ring >= 2")
            if self.k_p == 0:
                if not (0.0 < self.theta0 <= math.pi / 2):
                    raise InvalidDescriptor(
                        "theta0 must lie in (0, pi/2] for pole-free ring families"
                    )
            else:
                if not (0.0 < self.theta0 < math.pi):
                    raise InvalidDescriptor(
                        "theta0 must lie in (0, pi) when poles are present"
                    )
                if self.lambda_n == 0.0:
                    raise InvalidDescriptor("lambda_n must be nonzero")
        elif self.family is Family.EQUATORIAL_PM_RING:
            if self.n_per_ring < 2:
                raise InvalidDescriptor("the equatorial ring needs n_per_ring >= 2")
            if self.k_p != 0:
                raise InvalidDescriptor("the equatorial ring family has no poles")
        elif self.family is Family.TETRAHEDRAL_PAIR:
            if self.k_p != 0:
                raise InvalidDescriptor("the tetrahedral family has no poles")

    @property
    def label(self) -> str:
        """Human-readable family label (used in diagrams)."""
        n = self.n_per_ring
        if self.family is Family.EQUATORIAL_PM_RING:
            return f"D{2 * n}h(Re)"
        if self.family is Family.TETRAHEDRAL_PAIR:
            return "tetrahedral pair"
        if self.family is Family.DNH_2R:
            return f"D{n}h(2R" + (",2p)" if self.k_p else ")")
        if self.family is Family.DND_RRP:
            return f"D{n}d(R,R'" + (",2p)" if self.k_p else ")")
        return self.family.value

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family.value,
                "N": self.n_per_ring,
                "theta0": self.theta0,
                "kp": self.k_p,
                "lambda_n": self.lambda_n,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FamilyDescriptor":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidDescriptor(f"malformed descriptor JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidDescriptor("descriptor JSON must be an object")
        return cls.from_mapping(payload)

    @classmethod
    def from_mapping(cls, payload: dict) -> "FamilyDescriptor":
        family = _family_named(payload.get("family"))
        n_per_ring = payload.get("N", payload.get("n_per_ring", 2))
        k_p = payload.get("kp", payload.get("k_p", 0))
        for field_name, value in (("N", n_per_ring), ("kp", k_p)):
            if isinstance(value, float) and not value.is_integer():
                raise InvalidDescriptor(f"{field_name} must be a whole number, got {value!r}")
        try:  # __post_init__ converts the fields to int and float
            desc = cls(
                family=family,
                n_per_ring=n_per_ring,
                theta0=payload.get("theta0", math.pi / 2),
                k_p=k_p,
                lambda_n=payload.get("lambda_n", 1.0),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidDescriptor(f"bad descriptor field: {exc}") from exc
        desc.validate()
        return desc
