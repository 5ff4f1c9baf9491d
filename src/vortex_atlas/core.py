"""Geometry and symmetry primitives for point vortices on the unit sphere.

This module provides the value types shared by the rest of the package:

* vortex configurations: an ``(M, 3)`` array of unit positions and an
  ``(M,)`` array of strengths (ring vortices of strength +1 or -1, plus an
  optional pinned pole pair), validated once, with JSON round-tripping;
* the symmetry group O(3) x Z_2: an element ``(A, tau^k)`` is an
  orthogonal matrix and an optional swap ``tau`` of the two vorticity
  populations; its action on configurations, the test whether it fixes
  one up to relabelling within each population, and the character that
  tells time-preserving from time-reversing elements;
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
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "COLLISION_EPS",
    "MAX_RING_SIZE",
    "POLE_EPS",
    "UNIT_NORM_TOL",
    "VortexError",
    "InvalidConfiguration",
    "InvalidDescriptor",
    "OutOfDomain",
    "PoleSingularity",
    "CollisionError",
    "Layout",
    "Configuration",
    "GroupElement",
    "Family",
    "FamilyDescriptor",
    "apply_group_element",
    "is_fixed_by",
    "rotation_z_matrix",
    "mirror_y_matrix",
    "mirror_z_matrix",
]

# Pairwise chord distance below which two vortices count as collided.
COLLISION_EPS = 1e-9
# |sin(theta)| below which a point counts as sitting on a pole for chart
# purposes (spherical coordinates are singular there).
POLE_EPS = 1e-8
# Tolerance on | ||v||^2 - 1 | for unit vectors.
UNIT_NORM_TOL = 1e-12
# Largest ring size accepted: a one-latitude closed-form analysis then works
# on d x d arrays with d <= 4N + 4 = 1028 (about 8 MB each), and the collision
# check on a (2N, 2N, 3) array (about 6 MB).
MAX_RING_SIZE = 256
# Most latitudes a sweep (families x ring sizes x latitudes) or a transition
# scan (pi / grid step) may hold: a million grid points, checked before the
# grid is allocated, is far beyond any figure and still a few MB of floats.
MAX_GRID_POINTS = 1_000_000
# Entries of the largest array one chunk of a stacked pass builds, so memory stays
# bounded on any input: 16384 // d**2 members of d coordinates (at least one).
STACK_ELEMENTS = 16384


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class VortexError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidConfiguration(VortexError, ValueError):
    """A configuration (or one of its constituents) violates an invariant."""


class InvalidDescriptor(VortexError, ValueError):
    """A family descriptor is malformed or outside its domain."""


class OutOfDomain(VortexError, ValueError):
    """A numeric parameter lies outside the domain of the routine given it."""


class PoleSingularity(VortexError, ArithmeticError):
    """A chart operation was requested too close to a coordinate pole."""


class CollisionError(VortexError, ArithmeticError):
    """Two vortices are within the collision threshold of each other."""


def _json_number(value: object, name: str) -> float:
    """A real number (JSON or NumPy scalar) as a float; TypeError for
    strings, booleans and the rest."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True, eq=False)
class Configuration:
    """Point vortices on the sphere: an ``(M, 3)`` array of unit positions
    and an ``(M,)`` array of strengths, both read-only.

    Ring vortices carry strength +1 or -1; a configuration may in addition
    hold a pair of pole vortices (``pole_count == 2``) of arbitrary nonzero
    strengths, indexed by ``layout.north`` / ``layout.south``.  Shapes,
    finiteness, unit norms, strengths, the layout and pairwise chord
    separations are validated on construction.
    """

    positions: np.ndarray
    strengths: np.ndarray
    pole_count: int = 0
    layout: Layout | None = None

    def __post_init__(self) -> None:
        try:
            p = np.array(self.positions, dtype=float)
            lam = np.array(self.strengths, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidConfiguration(f"positions and strengths must be numeric: {exc}") from exc
        if p.ndim != 2 or p.shape[1] != 3 or lam.shape != p.shape[:1]:
            raise InvalidConfiguration(
                f"expected (M, 3) positions and (M,) strengths, got shapes "
                f"{p.shape} and {lam.shape}"
            )
        if not (np.isfinite(p).all() and np.isfinite(lam).all()):
            raise InvalidConfiguration("positions and strengths must be finite")
        off, outside = _off_sphere(p)
        if outside.any():
            i = int(outside.argmax())
            raise InvalidConfiguration(
                f"point {i} {tuple(p[i].tolist())} is not on the unit sphere: "
                f"| ||v||^2 - 1 | = {off[i]:.3e}"
            )
        if (lam == 0.0).any():
            raise InvalidConfiguration("vortex strengths must be nonzero")
        p.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "strengths", lam)
        if self.pole_count not in (0, 2):
            raise InvalidConfiguration("pole_count must be 0 or 2")
        if self.layout is None:
            object.__setattr__(self, "layout", _infer_layout(p, lam, self.pole_count))
        layout = self.layout
        if sorted(layout.all_indices()) != list(range(len(p))):
            raise InvalidConfiguration(
                "layout must reference each vortex index exactly once"
            )
        if (self.pole_count == 2) != (layout.north is not None and layout.south is not None):
            raise InvalidConfiguration("pole_count and layout poles disagree")
        for sign, ring in ((1.0, layout.plus), (-1.0, layout.minus)):
            wrong = [i for i in ring if lam[i] != sign]
            if wrong:
                raise InvalidConfiguration(
                    f"ring vortex {wrong[0]} in the {'+' if sign > 0 else '-'} "
                    f"population must have strength {sign:+.0f}"
                )
        at, l2, collided = _closest_pairs(p) if len(p) > 1 else (0, math.inf, False)
        if collided:
            i, j = divmod(int(at), len(p))
            raise CollisionError(
                f"vortices {i} and {j} are within the collision threshold "
                f"(chord distance {math.sqrt(l2):.3e})"
            )

    def __len__(self) -> int:
        return len(self.strengths)

    # -- derived configurations ---------------------------------------------

    def with_negated_strengths(self) -> "Configuration":
        """Same positions with every strength negated.

        The equations of motion are linear in the strengths, so negating
        them reverses the flow; this is how backward evolution is computed
        without ever integrating with a negative time step.
        """
        layout = Layout(
            plus=self.layout.minus,
            minus=self.layout.plus,
            north=self.layout.north,
            south=self.layout.south,
        )
        return Configuration(self.positions, -self.strengths, self.pole_count, layout)

    def with_positions(self, p: np.ndarray) -> "Configuration":
        """Same strengths and layout with positions ``p`` scaled onto the sphere."""
        p = np.asarray(p, dtype=float)
        # a stacked matmul gives each row the bits ``np.linalg.norm`` of that
        # row gives (``norm(axis=1)`` and ``einsum`` do not)
        norms = np.sqrt(p[..., None, :] @ p[..., None])[..., 0]
        if not ((norms > 0.0) & np.isfinite(norms)).all():
            raise InvalidConfiguration("cannot normalize a zero/non-finite vector")
        return Configuration(p / norms, self.strengths, self.pole_count, self.layout)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "vortices": [
                {"pos": pos, "strength": strength}
                for pos, strength in zip(self.positions.tolist(), self.strengths.tolist())
            ],
            "poles": self.pole_count,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Configuration":
        """Parse a configuration from its JSON form.

        The last two entries are taken to be the poles when ``poles`` is 2
        (the more northerly one is the north pole vortex); their strengths
        must be opposite.
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
            poles = _json_number(payload.get("poles", 0), "'poles'")
            if not poles.is_integer():
                raise ValueError(f"'poles' must be a whole number, got {poles!r}")
            pole_count = int(poles)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfiguration(f"bad 'poles' field: {exc}") from exc
        positions, strengths = [], []
        for k, entry in enumerate(raw):
            try:
                pos = entry["pos"]
                if not isinstance(pos, (list, tuple)) or len(pos) != 3:
                    raise TypeError("'pos' must be a list of three numbers")
                positions.append([_json_number(c, "'pos' entries") for c in pos])
                strengths.append(_json_number(entry["strength"], "'strength'"))
            except (KeyError, TypeError, OverflowError) as exc:
                raise InvalidConfiguration(f"bad vortex entry {k}: {exc}") from exc
        config = cls(positions, strengths, pole_count)
        if pole_count == 2:
            ln = config.strengths[config.layout.north]
            ls = config.strengths[config.layout.south]
            if abs(ln + ls) > 1e-12:
                raise InvalidConfiguration(
                    f"pole strengths must be opposite, got {ln} and {ls}"
                )
        return config


def _pairwise_l2(p: np.ndarray) -> np.ndarray:
    """All squared chord distances ``|x_i - x_j|^2``: ``(..., M, M)`` from ``(..., M, 3)``.

    Direct differencing keeps full precision for nearly coincident
    points, where the equivalent ``2 (1 - x_i . x_j)`` form cancels.
    """
    diff = p[..., :, None, :] - p[..., None, :, :]
    return np.einsum("...ijk,...ijk->...ij", diff, diff)


def _off_sphere(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``| ||v||^2 - 1 |`` of each point of a stack ``(..., M, 3)``, and whether it exceeds ``UNIT_NORM_TOL``."""
    x, y, z = np.moveaxis(p, -1, 0)
    off = np.abs((x * x + y * y) + z * z - 1.0)
    return off, off > UNIT_NORM_TOL


def _closest_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closest pair of each configuration of a stack ``(..., M, 3)``,
    M >= 2: its flat index ``i * M + j`` (the first minimum, so i < j), its
    squared chord, and whether it collides (chord below ``COLLISION_EPS``)."""
    m = p.shape[-2]
    l2 = _pairwise_l2(p).reshape(*p.shape[:-2], m * m)
    l2[..., :: m + 1] = np.inf
    at = l2.argmin(axis=-1)
    l2 = np.take_along_axis(l2, at[..., None], axis=-1)[..., 0]
    return at, l2, l2 < COLLISION_EPS**2


def _kept_rows(p: np.ndarray) -> np.ndarray:
    """Which configurations of a stack ``(K, M, 3)``, M >= 2, pass the position
    checks of :class:`Configuration`: finite, on the unit sphere, no collision."""
    return np.isfinite(p).all(axis=(1, 2)) & ~_off_sphere(p)[1].any(axis=1) & ~_closest_pairs(p)[2]


def _infer_layout(p: np.ndarray, lam: np.ndarray, pole_count: int) -> Layout:
    """Infer a layout: poles are the trailing entries, rings split by sign."""
    m = len(lam)
    if pole_count == 2:
        if m < 3:
            raise InvalidConfiguration("a pole pair needs at least one ring vortex")
        a, b = m - 2, m - 1
        north, south = (a, b) if p[a, 2] >= p[b, 2] else (b, a)
        if not (p[north, 2] > 0.0 > p[south, 2]):
            raise InvalidConfiguration(
                "pole vortices must sit in opposite hemispheres"
            )
        ring = lam[: m - 2]
    else:
        north = south = None
        ring = lam
    plus = np.flatnonzero(ring > 0).tolist()
    minus = np.flatnonzero(ring < 0).tolist()
    return Layout(plus=plus, minus=minus, north=north, south=south)


# ---------------------------------------------------------------------------
# Symmetry group
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An element ``(A, tau^k)`` of the symmetry group.

    ``A`` is an orthogonal 3x3 matrix and ``tau`` (``tau_power`` = 0 or 1)
    swaps the + and - populations (and the two pole slots).  The action on
    a configuration moves positions while each slot keeps its strength:
    ``(g . x)_i = A x_i`` after the optional swap.  Relabelling within a
    population is not part of an element: :func:`is_fixed_by` matches each
    population up to relabelling, so it never changes an answer.

    The character ``chi = det(A) * (-1)^tau_power`` is +1 for elements
    that preserve the direction of time and -1 for time-reversing ones.
    """

    orthogonal: np.ndarray
    tau_power: int = 0

    def __post_init__(self) -> None:
        a = np.array(self.orthogonal, dtype=float)
        if a.shape != (3, 3):
            raise InvalidConfiguration("orthogonal part must be a 3x3 matrix")
        if not (np.isfinite(a).all() and np.max(np.abs(a.T @ a - np.eye(3))) <= 1e-12):
            raise InvalidConfiguration("matrix is not finite and orthogonal to 1e-12")
        if self.tau_power not in (0, 1):
            raise InvalidConfiguration(f"tau_power must be 0 or 1, got {self.tau_power!r}")
        a.setflags(write=False)
        object.__setattr__(self, "orthogonal", a)
        object.__setattr__(self, "tau_power", int(self.tau_power))

    @property
    def chi(self) -> int:
        """Temporal character: +1 keeps the flow direction, -1 reverses it."""
        det = float(np.linalg.det(self.orthogonal))
        return int(round(det)) * (-1) ** self.tau_power


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


def apply_group_element(g: GroupElement, c: Configuration) -> Configuration:
    """Act with ``g`` on ``c``, returning a new configuration.

    Slots keep their strengths; positions move.  With ``tau_power == 1``
    the + slots receive (rotated images of) the - population's positions
    and vice versa, and the two pole slots likewise exchange contents.
    """
    layout = c.layout
    source = np.arange(len(c))
    if g.tau_power:
        if len(layout.plus) != len(layout.minus):
            raise InvalidConfiguration(
                "the population swap needs equally sized + and - rings"
            )
        source[list(layout.plus)] = layout.minus
        source[list(layout.minus)] = layout.plus
        if c.pole_count == 2:
            source[[layout.north, layout.south]] = layout.south, layout.north
    return c.with_positions(c.positions[source] @ g.orthogonal.T)


def is_fixed_by(c: Configuration, g: GroupElement) -> bool:
    """Whether ``g`` maps ``c`` onto itself up to relabeling within populations.

    The transformed + population is optimally matched against the original
    + population (likewise for the - population), and the pole slots are
    compared class-to-class; ``c`` is fixed when the largest matched
    displacement stays below 1e-9.
    """
    from scipy.optimize import linear_sum_assignment
    old = c.positions
    new = apply_group_element(g, c).positions
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
    return worst < 1e-9


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
            if not 2 <= self.n_per_ring <= MAX_RING_SIZE:
                raise InvalidDescriptor(f"ring families need 2 <= n_per_ring <= {MAX_RING_SIZE}")
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
            if not 2 <= self.n_per_ring <= MAX_RING_SIZE:
                raise InvalidDescriptor(
                    f"the equatorial ring needs 2 <= n_per_ring <= {MAX_RING_SIZE}"
                )
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
        raw = {
            "N": payload.get("N", payload.get("n_per_ring", 2)),
            "theta0": payload.get("theta0", math.pi / 2),
            "kp": payload.get("kp", payload.get("k_p", 0)),
            "lambda_n": payload.get("lambda_n", 1.0),
        }
        try:
            n_per_ring, theta0, k_p, lambda_n = (_json_number(v, k) for k, v in raw.items())
        except (TypeError, OverflowError) as exc:
            raise InvalidDescriptor(f"bad descriptor field: {exc}") from exc
        for field_name, value in (("N", n_per_ring), ("kp", k_p)):
            if not value.is_integer():
                raise InvalidDescriptor(f"{field_name} must be a whole number, got {value!r}")
        desc = cls(family, n_per_ring, theta0, k_p, lambda_n)
        desc.validate()
        return desc
