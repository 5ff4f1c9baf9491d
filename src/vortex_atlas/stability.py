"""Linear and Lyapunov stability of ring relative equilibria.

The configurations analyzed here rotate rigidly about the vertical axis.
Stability is decided on a *slice*: a complement of the rotation-orbit
direction inside the kernel of the linearized momentum map.  For the
symmetric two-ring families the ring perturbations split into discrete
Fourier patterns by wavenumber q = 0..N/2 and by parity class (whether
the two rings' colatitudes move together or against each other).  The
momentum map and the rotation generators act only on wavenumber 0 of
class 1 and wavenumber 1 of class 0.  The vertical momentum and the
generator about z remove the first sector whole; :func:`slice_basis`
replaces the second by the kernel of its constraint block and keeps every
other pattern as it is.  Both the energy Hessian and the symplectic form
block-diagonalize over the resulting groups, so each block can be
examined independently and in closed form.

Two independent routes are kept deliberately separate, and each is one
stacked pass:

* closed-form route — one array stage over a stack of consecutive members
  of one family (same N and poles, and vertical momentum zero or not),
  ``16384 // d**2`` latitudes at a time (d = 4N + 2k_p; at least one),
  builds their Hessians, one slice basis per latitude (one size and one
  set of block labels for the whole stack) and restricted forms as
  ``(K, ...)`` arrays, takes the spectra block by block, and gives each
  latitude one outcome.
  :func:`decide_many` reads its :class:`Decision` (verdict, deciding
  block, mu_z, xi_z) from it, :func:`analyze_many` its report;
* numeric route — one pass over a ``(K, M, 3)`` position stack of one
  chart (one strength vector and layout; :func:`analyze_small_many` stacks
  consecutive configurations that share one, the diagram a branch segment)
  refuses in place each row whose rates disagree or whose residual exceeds
  its bound, and takes residuals, the finite-difference Hessian stencil,
  momentum rows, rotation generators, the slice (an SVD with null_space's
  rank rule) and the spectra, ``16384 // d**2`` rows at a time (d = 2M).
  It cross-validates the first.

Both routes end in one decision stage, :func:`_decide` (the singular-form
test, :func:`_block_spectra`, :func:`_verdicts`; the numeric route's slice is
its one block ``slice``), which gives every row ``i`` of a stack the outcome
``(decision, blocks, i)`` or refuses it in place; only :func:`_report` builds
a report from an outcome, so the diagram's branches build none.

Every floating-point operation acts on each member of a stack exactly as
on a single one (element-wise arithmetic, sums over a contiguous last
axis, one BLAS or LAPACK call per vector or matrix), so a stacked report
equals the one-point report bit for bit; :func:`analyze` (with
:func:`hessian_closed_form`, :func:`slice_basis` and
:func:`slice_symplectic_form`) and :func:`analyze_small` are the
one-point cases.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from itertools import groupby, islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .core import (
    MAX_GRID_POINTS,
    STACK_ELEMENTS,
    CollisionError,
    Configuration,
    Family,
    FamilyDescriptor,
    InvalidDescriptor,
    Layout,
    VortexError,
)
from .equilibria import (
    NotRelativeEquilibrium,
    _certificates,
    _ring_phase,
    ring_angular_velocity,
)

__all__ = [
    "DEFINITENESS_TOL",
    "SPECTRAL_TOL",
    "RESIDUAL_TOL",
    "MOMENTUM_ZERO_TOL",
    "MIN_TRANSITION_TOL",
    "TRANSITIONS",
    "REFERENCE_THRESHOLDS",
    "Verdict",
    "ThresholdRef",
    "NotRelativeEquilibrium",
    "DegenerateForm",
    "NoTransition",
    "SliceBasis",
    "BlockSpectrum",
    "StabilityReport",
    "Decision",
    "hessian_closed_form",
    "slice_basis",
    "slice_symplectic_form",
    "analyze",
    "analyze_many",
    "decide_many",
    "analyze_small",
    "analyze_small_many",
    "verdict_changes",
    "list_transitions",
]

#: Hessian eigenvalues within this margin of zero do not count as signed.
DEFINITENESS_TOL = 1e-9
#: Linearization eigenvalues with |Re| above this count as growth.
SPECTRAL_TOL = 1e-8
#: analyze_small refuses configurations whose co-rotating chart gradient
#: exceeds this.
RESIDUAL_TOL = 1e-6
#: Below this the vertical momentum is treated as zero (bigger rotation
#: orbit, smaller slice).
MOMENTUM_ZERO_TOL = 1e-8
#: list_transitions refuses a tolerance finer than this: the halving can
#: locate a change no finer than the float spacing of the latitude (up to
#: 4.4e-16 near pi), whatever the tolerance asks.
MIN_TRANSITION_TOL = 1e-12

TRANSITIONS = ("StabilityGain", "StabilityLoss", "HopfLower", "HopfUpper")


class Verdict(Enum):
    """Outcome of a slice stability analysis."""

    LYAPUNOV_STABLE = "LyapunovStable"
    LINEARLY_STABLE = "LinearlyStable"
    LINEARLY_UNSTABLE = "LinearlyUnstable"
    INDETERMINATE = "Indeterminate"


class DegenerateForm(VortexError, ArithmeticError):
    """The symplectic form restricted to the candidate slice is singular."""


class NoTransition(VortexError, LookupError):
    """No verdict change of the requested kind occurs in the scan range."""


# ---------------------------------------------------------------------------
# descriptor plumbing
# ---------------------------------------------------------------------------


def _analysis_descriptor(desc: FamilyDescriptor) -> FamilyDescriptor:
    """Map a descriptor onto the two-ring family the closed forms cover."""
    desc.validate()
    if desc.family is Family.EQUATORIAL_PM_RING:
        return FamilyDescriptor(Family.DND_RRP, desc.n_per_ring)
    if desc.family in (Family.DNH_2R, Family.DND_RRP):
        if desc.k_p == 2 and desc.lambda_n != 1.0:
            raise InvalidDescriptor(
                "closed-form analysis covers pole strength +1; use analyze_small "
                "for other pole strengths"
            )
        if desc.family is Family.DNH_2R and abs(math.cos(desc.theta0)) < 1e-6:
            raise CollisionError(
                "the in-phase rings collide as theta0 approaches the equator"
            )
        return desc
    raise InvalidDescriptor(
        f"closed-form analysis covers the ring families; use analyze_small for "
        f"{desc.family.value}"
    )


def _vertical_momentum(desc: FamilyDescriptor) -> float:
    mu = 2.0 * desc.n_per_ring * math.cos(desc.theta0)
    if desc.k_p:
        mu += 2.0 * desc.lambda_n
    return mu


# ---------------------------------------------------------------------------
# latitude-independent data of a ring family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceBasis:
    """Slice basis, one column per vector, and the block of each column."""

    matrix: np.ndarray = field(repr=False)
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.labels)


# A ring pattern of wavenumber q moves the colatitudes ("t") or longitudes
# ("p") by the cos ("c") or sin ("s") of q times each vortex's longitude; a
# prime flips its sign on the minus ring.  The pole modes move both poles
# along x or y alike, or (primed) in opposition.  Parity class 0 holds the
# patterns below, class 1 the rest.
_PATTERN_KEYS = "tc tc' ts ts' pc pc' ps ps' x y x' y'".split()
_CLASS_0 = set("tc ts pc' ps' x' y'".split())


def _order(keys: str) -> tuple[tuple[int, int], ...]:
    """``(key index, parity class)`` of each pattern, in column order."""
    return tuple(
        (_PATTERN_KEYS.index(key), 0 if key in _CLASS_0 else 1) for key in keys.split()
    )


# Column order inside the blocks; the block entries read fixed positions.
_COLUMN_ORDER = {
    "generic": _order("tc ps' ts pc' tc' ps ts' pc"),
    "q=1": _order("ps tc' x pc ts' y tc ps' ts pc' x' y'"),
    "aligned top": _order("tc tc' pc pc' ts ts' ps ps'"),
    # at q = N/2 the two staggered classes span the same modes: one sector
    # of class-1 representatives
    "staggered top": _order("tc' ps ts' pc x y x' y'"),
}

#: Pole modes x, y, x', y' and the constraint rows' entries in x_n, y_n, x_s, y_s.
_POLE_MODES = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1.0]])
_POLE_ROWS = np.array(  # dPhi_x, dPhi_y, g_x, g_y
    [[1, 0, -1, 0], [0, 1, 0, -1], [0, -1, 0, 1], [1, 0, -1, 0]],
    float,
)
#: Entries of the normalised constraint rows at or below this count as zero.
_KERNEL_TOL = 1e-9

# Pole columns x_n, y_n, x_s, y_s against t+, t-, f+, f-: cos or sin of the
# plus-ring (0, 1) or minus-ring (2, 3) longitudes and the sign; the ring
# parts divide by 1 - u or 1 + u (sign of u), the longitude parts carry s.
_POLE_TRIG = np.array([[0, 2, 1, 3], [1, 3, 0, 2], [0, 2, 1, 3], [1, 3, 0, 2]])
_POLE_SIGN = np.array([[1, -1, 1, -1], [1, -1, -1, 1], [1, -1, -1, 1], [1, -1, 1, -1.0]])[:, :, None]
_POLE_OVER = np.array([[-1, 1, -1, 1], [-1, 1, -1, 1], [1, -1, 1, -1], [1, -1, 1, -1.0]])[:, :, None]
_POLE_SCALED = np.array([False, False, True, True])[:, None]

# Circulant blocks of the ring Hessian in the arrangement (t+, t-, f+, f-):
# the generator each block reads.  Generators 0-4 are laid out as they are,
# 5 is zero, and 6-8 are 2-4 reversed, which lays those out transposed.
_RING_GEN = np.array([[0, 2, 5, 4], [6, 0, 8, 5], [5, 4, 1, 3], [8, 5, 7, 1]])


class _Rings:
    """What the closed forms of one ring family share across latitudes.

    Ring angles, the sums of the Hessian that do not involve the latitude,
    the index that lays its circulant blocks out, and the Fourier pattern
    table of the slice basis with its sectors.  Coordinate order:
    plus-ring colatitudes, minus-ring colatitudes, plus-ring longitudes,
    minus-ring longitudes, then (with poles) ``x_n, y_n, x_s, y_s``.
    """

    def __init__(self, family: Family, n: int, k_p: int, lambda_n: float) -> None:
        self.n, self.k_p = n, k_p
        self.lam = lambda_n if k_p else 0.0
        self.d = d = 4 * n + 2 * k_p
        staggered = family is Family.DND_RRP

        # cos and sin of q times each vortex's longitude, q = 0..N/2; row 1
        # holds the ring angles themselves (plus ring, then minus ring)
        top = n // 2
        m = np.arange(n)
        rel = 2.0 * math.pi * m / n
        arg = np.arange(top + 1.0)[:, None] * np.concatenate([rel, rel + _ring_phase(family, n)])
        cos, sin = np.cos(arg), np.sin(arg)
        crel = cos[1, :n]
        self.cx, self.sx = cos[1, n:], sin[1, n:]
        self.same = 1.0 - crel[1:]  # 1 - cos of the nonzero same-ring angles
        self.sum_t = (crel[1:] / self.same).sum()
        self.sum_p = -(1.0 / self.same).sum()

        # the ring part of the Hessian gathered from its generators: entry
        # (i, j) of block (r, c) reads generator _RING_GEN[r, c] at (j - i) mod n
        gap = (m - m[:, None]) % n
        self.ring_index = (_RING_GEN[:, None, :, None] * n + gap[:, None, :]).reshape(4 * n, 4 * n)
        self.reverse = gap[:, 0]  # (-k) mod n
        if k_p:
            trig = np.array([crel, sin[1, :n], self.cx, self.sx])
            self.pole_trig = trig[_POLE_TRIG] * _POLE_SIGN
            self.pole_sums = (trig * trig).sum(axis=1).reshape(2, 2)  # (plus, minus ring) x (cos^2, sin^2)

        # pattern table: row 8q + key index for the ring patterns, then the
        # pole modes; plus-ring vortices first, then minus-ring
        self.n_ring = 8 * (top + 1)
        signed = np.empty((top + 1, 2, 2, 2 * n))  # (q, cos|sin, primed, vortex)
        signed[:, 0] = cos[:, None]
        signed[:, 1] = sin[:, None]
        signed[:, :, 1, n:] *= -1.0
        self.pat = np.zeros((self.n_ring + 2 * k_p, d))
        pat_ring = self.pat[: self.n_ring].reshape(top + 1, 2, 2, 2, d)
        pat_ring[:, 0, :, :, : 2 * n] = signed
        pat_ring[:, 1, :, :, 2 * n : 4 * n] = signed
        if k_p:
            self.pat[self.n_ring :, 4 * n :] = _POLE_MODES
        alive = (np.abs(self.pat).max(axis=1) > 1e-8).tolist()
        # dPhi_z and the generator about z remove q = 0 tc' and pc whole
        alive[1] = alive[4] = False
        self.cos1, self.sin1 = cos[1], sin[1]
        # ring strengths +-1 times cos/sin of the longitude
        self.str_cos, self.str_sin = signed[1, 0, 1], signed[1, 1, 1]

        # the slice's sectors: per wavenumber the block name and its free
        # pattern rows; ``hit`` holds the rows of the one sector the
        # constraints touch, class 0 at q = 1 (all of q = 1 for staggered N = 2)
        self.sectors: list[tuple[str, list[int]]] = []
        self.hit: list[int] = []
        for q in range(top + 1):
            joint = staggered and 2 * q == n
            kind = "q=1" if q == 1 else "aligned top" if 2 * q == n else "generic"
            free = []
            for k, cls in _COLUMN_ORDER["staggered top" if joint else kind]:
                i = 8 * q + k if k < 8 else self.n_ring + k - 8
                if (k < 8 or (k_p and q == 1)) and alive[i]:
                    (self.hit if q == 1 and (joint or cls == 0) else free).append(i)
            name = "B0" if q == 0 else "B1" if q == 1 else "Bhalf" if 2 * q == n else f"B{q}"
            self.sectors.append((name + ("p" if k_p and q < 2 else ""), free))
        self.free = [i for _, rows in self.sectors for i in rows]
        for value in vars(self).values():  # shared through _rings: read-only
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


#: The family data of (family, N, k_p, lambda_n), built once and shared.
_rings = lru_cache(maxsize=16)(_Rings)


# ---------------------------------------------------------------------------
# stacked closed forms: one array axis runs over the latitudes
# ---------------------------------------------------------------------------


def _hessians(rings: _Rings, u: np.ndarray, s: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Hessians of the rotating-frame energy, shape ``(K, d, d)``.

    The ring part is a 4 x 4 arrangement (t+, t-, f+, f-) of circulant
    blocks, gathered in one indexing step from their generators (first
    rows).  Sums over ring angles reduce over the contiguous last axis, so
    every latitude gets the bits a single-latitude build gives.
    """
    n, k = rings.n, len(u)
    cx = rings.cx
    uc, sc = u[:, None], s[:, None]
    one_m_u2 = 1.0 - uc * uc
    dx = 1.0 + uc * uc - one_m_u2 * cx
    dx2 = dx * dx
    cross_t = (one_m_u2 - (1.0 + uc * uc) * cx) / dx2

    # generators: same-ring colatitude and longitude terms, cross-ring
    # colatitude and longitude terms, and the colatitude of one ring against
    # the longitude of the other, whose prefactor carries the cosine of the
    # row vortex's own colatitude (-u on the lower ring)
    gen = np.zeros((k, 9, n))  # generator 5 stays zero
    gen[:, 0, :1] = (
        rings.sum_t / one_m_u2
        - ((-2.0 * uc * uc + one_m_u2 * cx - one_m_u2 * cx * cx) / dx2).sum(axis=1, keepdims=True)
        - xi[:, None] * uc
    )
    if rings.k_p:
        gen[:, 0, :1] += -2.0 * uc * rings.lam / one_m_u2
    gen[:, 0, 1:] = -1.0 / (one_m_u2 * rings.same)
    gen[:, 1, :1] = rings.sum_p + one_m_u2 * cross_t.sum(axis=1, keepdims=True)
    gen[:, 1, 1:] = 1.0 / rings.same
    gen[:, 2] = cross_t
    gen[:, 3] = -one_m_u2 * cross_t
    gen[:, 4] = -(2.0 * uc * sc * rings.sx / dx2)
    gen[:, 6:] = gen[:, 2:5, rings.reverse]
    h = gen.reshape(k, 9 * n)[:, rings.ring_index]
    if rings.k_p:
        ring, h = h, np.zeros((k, rings.d, rings.d))
        h[:, : 4 * n, : 4 * n] = ring
        scale = np.where(_POLE_SCALED, sc[:, :, None, None], 1.0)
        cols = rings.pole_trig * scale / (1.0 + uc[:, :, None, None] * _POLE_OVER)
        h[:, 4 * n :, : 4 * n] = cols.reshape(k, 4, 4 * n)
        h[:, : 4 * n, 4 * n :] = h[:, 4 * n :, : 4 * n].transpose(0, 2, 1)
        # squares by libm's pow, as a scalar ``**`` takes them
        near, far = np.float_power(1.0 - uc, 2), np.float_power(1.0 + uc, 2)
        lift = 0.5 - xi[:, None] + 2.0 * n * uc / one_m_u2
        plus, minus = rings.pole_sums
        north = lift - (far * plus - near * minus) / one_m_u2
        south = lift + (near * plus - far * minus) / one_m_u2
        diag = np.concatenate([north, south], axis=1)
        # the pole block's diagonal, then x_n/x_s and y_n/y_s both ways
        flat, d, pole = h.reshape(k, -1), rings.d, 4 * n * (rings.d + 1)
        flat[:, pole :: d + 1] = diag
        flat[:, pole + 2 : pole + 2 * d + 3 : d + 1] = 0.5
        flat[:, pole + 2 * d : pole + 4 * d + 1 : d + 1] = 0.5

    # the circulant generators evaluate cos(2 pi k / n) and its mirror
    # cos(2 pi (n - k) / n) independently, which can differ by one ulp;
    # averaging restores exact symmetry
    return 0.5 * (h + h.transpose(0, 2, 1))


def _symplectic_forms(rings: _Rings, s: np.ndarray) -> np.ndarray:
    """Symplectic forms in the Hessian's coordinates, shape ``(K, d, d)``."""
    n, d = rings.n, rings.d
    omega = np.zeros((len(s), d * d))
    # entries (i, 2n + i) and (n + i, 3n + i), i < n, and their mirrors are
    # runs of step d + 1 in the flattened matrix
    sc, step = s[:, None], d + 1
    omega[:, 2 * n : 2 * n + n * step : step] = sc  # plus ring, strength +1
    omega[:, 2 * n * d : 2 * n * d + n * step : step] = -sc
    omega[:, n * d + 3 * n : n * d + 3 * n + n * step : step] = -sc  # minus ring, -1
    omega[:, 3 * n * d + n : 3 * n * d + n + n * step : step] = sc
    if rings.k_p:
        # lambda_p / z_p = (+1)/(+1) at the north pole, (-1)/(-1) at the south
        for i in (4 * n, 4 * n + 2):
            omega[:, i * d + i + 1] = 1.0
            omega[:, (i + 1) * d + i] = -1.0
    return omega.reshape(len(s), d, d)


def _constraint_blocks(
    rings: _Rings, reduced: bool, u: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Momentum and generator rows against every pattern, ``(K, r, P)``.

    Rows: dPhi_x, dPhi_y (and the generators about x, y when the momentum
    vanishes), each scaled to unit largest entry so that one tolerance
    serves every row; primed patterns carry the ring strengths.
    """
    n = rings.n
    uc, sc = u[:, None], s[:, None]
    rows = np.zeros((len(u), 4 if reduced else 2, rings.d))
    th, ph = rows[:, :, : 2 * n], rows[:, :, 2 * n : 4 * n]
    th[:, 0], ph[:, 0] = uc * rings.cos1, -sc * rings.str_sin
    th[:, 1], ph[:, 1] = uc * rings.sin1, sc * rings.str_cos
    if reduced:
        th[:, 2], ph[:, 2] = -rings.sin1, -uc / sc * rings.str_cos
        th[:, 3], ph[:, 3] = rings.cos1, -uc / sc * rings.str_sin
    if rings.k_p:
        rows[:, :, 4 * n :] = _POLE_ROWS[: rows.shape[1]]
    block = rows @ rings.pat.T
    block /= np.abs(block).max(axis=2, keepdims=True)
    return block


def _kernel(block: list[list[float]], tol: float) -> list[list[float]]:
    """Unit coefficient vectors spanning the kernel of a small matrix.

    Gauss-Jordan elimination with full pivoting on plain floats (the rows
    of ``block`` are consumed); it stops when no entry exceeds ``tol``, and
    every non-pivot column gives one vector.
    """
    width = len(block[0])
    free = list(range(width))
    pivots: list[tuple[int, list[float]]] = []
    while block and free:
        best, bi, bj = tol, -1, -1
        for i, row in enumerate(block):
            for j in free:
                a = abs(row[j])
                if a > best:
                    best, bi, bj = a, i, j
        if bi < 0:
            break
        pivot = block.pop(bi)
        p = pivot[bj]
        pivot = [x / p for x in pivot]
        for row in block:
            f = row[bj]
            if f:
                row[:] = [x - f * y for x, y in zip(row, pivot)]
        for _, row in pivots:
            f = row[bj]
            if f:
                row[:] = [x - f * y for x, y in zip(row, pivot)]
        pivots.append((bj, pivot))
        free.remove(bj)
    out = []
    for f in free:
        vec = [0.0] * width
        vec[f] = 1.0
        for j, row in pivots:
            vec[j] = -row[f]
        # left to right, as Python 3.11's sum; 3.12's compensated sum gives other bits
        squares = 0.0
        for x in vec:
            squares += x * x
        norm = math.sqrt(squares)
        out.append([x / norm for x in vec])
    return out


def _slice_bases(rings: _Rings, reduced: bool, u: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Slice bases of a stack of latitudes, ``(K, d, p)``, and their labels.

    The patterns of wavenumber q = 0..N/2 in two parity classes span the
    ring coordinates.  Every free pattern enters unchanged; the one sector
    the constraints touch is replaced, latitude by latitude, by the kernel
    of its constraint block.  A latitude whose kernel gives the slice
    another dimension than ``d - 4`` (``d - 6`` for zero momentum) raises
    RuntimeError, so every latitude shares the labels.
    """
    block = _constraint_blocks(rings, reduced, u, s)
    kernels = [_kernel(m, _KERNEL_TOL) for m in block[:, :, rings.hit].tolist()]
    expected = rings.d - (6 if reduced else 4)
    count = expected - len(rings.free)
    for vectors in kernels:
        if len(vectors) != count:
            raise RuntimeError(f"slice has {len(rings.free) + len(vectors)} vectors, expected {expected}")
    basis = np.empty((len(u), rings.d, expected))
    (b0, rows0), (b1, rows1) = rings.sectors[:2]
    head = len(rows0) + len(rows1)  # the kernel follows the free patterns of q <= 1
    # the free class at q = 1 joins B0, except for aligned pairs without
    # poles, where the constraints leave nothing of the other class:
    # there it keeps the name B1
    labels = [b0] * len(rows0) + [b0 if count or reduced else b1] * len(rows1) + [b1] * count
    labels += [name for name, rows in rings.sectors[2:] for _ in rows]
    if count:
        basis[:, :, head : head + count] = (np.array(kernels) @ rings.pat[rings.hit]).transpose(0, 2, 1)
    basis[:, :, [*range(head), *range(head + count, expected)]] = rings.pat[rings.free].T
    return basis, tuple(labels)


def _restrict(basis: np.ndarray, form: np.ndarray, antisymmetric: bool) -> np.ndarray:
    """``B.T @ M @ B`` per latitude, made exactly (anti)symmetric.

    The congruence is (anti)symmetric in exact arithmetic; averaging
    removes the one-ulp rounding skew of the two matrix products.
    """
    out = basis.transpose(0, 2, 1) @ form @ basis
    if antisymmetric:
        return 0.5 * (out - out.transpose(0, 2, 1))
    return 0.5 * (out + out.transpose(0, 2, 1))


def _singular(omega_blocks: list[np.ndarray]) -> np.ndarray:
    """Which restricted symplectic forms are singular, ``(K,)``, from their
    diagonal blocks ``(K, size, size)``: the smallest singular value of the
    blocks is below 1e-12 times the largest (at least 1).  The blocks are
    symplectically orthogonal, so their singular values are those of the
    whole form."""
    sing = np.concatenate([np.linalg.svd(o, compute_uv=False) for o in omega_blocks], axis=1)
    return sing.min(axis=1) < 1e-12 * np.maximum(sing.max(axis=1), 1.0)


_SINGULAR_SLICE = "the symplectic form restricted to the slice is singular"


def _one_point(desc: FamilyDescriptor) -> tuple[_Rings, bool, np.ndarray, np.ndarray, np.ndarray]:
    """Family data, reduced flag, and u, s and rate (one-element arrays) of
    one member, as :func:`_stack_entry` decides them for its stack."""
    key, (_, theta, xi, _) = _stack_entry(desc)
    u, s = np.array([math.cos(theta)]), np.array([math.sin(theta)])
    return _rings(*key[:4]), key[4], u, s, np.array([xi])


def hessian_closed_form(desc: FamilyDescriptor) -> np.ndarray:
    """Second derivative of the rotating-frame energy in ring coordinates.

    Coordinate order: plus-ring colatitudes, minus-ring colatitudes,
    plus-ring longitudes, minus-ring longitudes, then (with poles)
    ``x_n, y_n, x_s, y_s``.  The frame rotates at the family's own rigid
    rate.
    """
    rings, _, u, s, xi = _one_point(desc)
    return _hessians(rings, u, s, xi)[0]


def slice_basis(desc: FamilyDescriptor) -> SliceBasis:
    """Fourier-pattern basis of the slice, grouped into decoupling blocks.

    The generators about x and y join the constraints when the vertical
    momentum vanishes and the rotation orbit grows.
    """
    rings, reduced, u, s, _ = _one_point(desc)
    basis, labels = _slice_bases(rings, reduced, u, s)
    return SliceBasis(basis[0], labels)


def slice_symplectic_form(desc: FamilyDescriptor) -> np.ndarray:
    """Symplectic form restricted to the basis :func:`slice_basis` returns.

    Raises :class:`DegenerateForm` if the restriction is singular, which
    would invalidate the reduced linearization.
    """
    rings, reduced, u, s, _ = _one_point(desc)
    b, labels = _slice_bases(rings, reduced, u, s)
    omega_b = _restrict(b, _symplectic_forms(rings, s), antisymmetric=True)
    if _singular([omega_b[:, sl, sl] for _, sl in _block_slices(labels)])[0]:
        raise DegenerateForm(_SINGULAR_SLICE)
    return omega_b[0]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectral data of one decoupling block of the slice."""

    label: str
    hessian_eigenvalues: np.ndarray
    linearization_eigenvalues: np.ndarray
    entries: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        eigs = np.asarray(self.linearization_eigenvalues, complex)
        return {
            "label": self.label,
            "hessian_eigs": [float(x) for x in self.hessian_eigenvalues],
            "lin_eigs_re": [float(x.real) for x in eigs],
            "lin_eigs_im": [float(x.imag) for x in eigs],
            "entries": {k: float(v) for k, v in self.entries.items()},
        }


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a slice analysis with per-block spectra."""

    descriptor: FamilyDescriptor | None
    label: str
    mu_z: float
    xi_z: float
    blocks: tuple[BlockSpectrum, ...]
    verdict: Verdict
    deciding_block: str

    def hessian_eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate([b.hessian_eigenvalues for b in self.blocks]))

    def linearization_eigenvalues(self) -> np.ndarray:
        eigs = np.concatenate([b.linearization_eigenvalues for b in self.blocks])
        return _sort_complex(eigs)

    def as_dict(self) -> dict:
        return {
            "descriptor": None if self.descriptor is None else self.descriptor.as_dict(),
            "label": self.label,
            "mu_z": float(self.mu_z),
            "xi_z": float(self.xi_z),
            "verdict": self.verdict.value,
            "deciding_block": self.deciding_block,
            "blocks": [b.as_dict() for b in self.blocks],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.as_dict(), indent=2)


def _sort_complex(eigs: np.ndarray) -> np.ndarray:
    """Sort by real part, then imaginary part, along the last axis."""
    # NumPy orders complex numbers by real part, then imaginary part
    return np.sort(np.asarray(eigs, complex), axis=-1, kind="stable")


def _verdicts(lo: np.ndarray, hi: np.ndarray, growth: np.ndarray) -> np.ndarray:
    """The :class:`Verdict` of each row, an object array, from its extreme
    Hessian eigenvalues and its largest growth rate: an indefinite Hessian
    is linearly stable, growth overrides that, and a definite Hessian
    overrides both; a NaN passes no test."""
    verdicts = np.where((lo < -DEFINITENESS_TOL) & (hi > DEFINITENESS_TOL), Verdict.LINEARLY_STABLE, Verdict.INDETERMINATE)
    verdicts[growth > SPECTRAL_TOL] = Verdict.LINEARLY_UNSTABLE
    verdicts[(lo > DEFINITENESS_TOL) | (hi < -DEFINITENESS_TOL)] = Verdict.LYAPUNOV_STABLE
    return verdicts


def _block_entries(label: str, hb: np.ndarray, l_eigs: np.ndarray, staggered: bool) -> dict:
    entries: dict[str, float] = {}
    dim = hb.shape[0]
    if label in ("B0", "B0p") and dim >= 2:
        # slice vector 0 is the uniform colatitude shift (the crossing
        # scalar s), vector 1 the ring counter-rotation (r, positive)
        entries["r"] = hb[1, 1]
        entries["s"] = hb[0, 0]
    elif label in ("B1", "B1p"):
        freqs = sorted(set(np.round(np.abs(l_eigs.imag), 12).tolist()))
        for k, w in enumerate(freqs):
            entries["w" if k == 0 else f"w{k + 1}"] = w
    elif label.startswith("B") and dim == 8:
        entries.update(
            {
                "a": hb[4, 4],
                "b": hb[5, 5],
                "c": hb[4, 5],
                "a_plus": hb[0, 0],
                "b_plus": hb[1, 1],
                "c_plus": hb[0, 1],
            }
        )
    elif label == "Bhalf":
        if staggered:
            entries.update({"a": hb[0, 0], "b": hb[1, 1], "c": hb[0, 1]})
        else:
            entries.update(
                {
                    "a_prime": hb[0, 0],
                    "a": hb[1, 1],
                    "b": hb[2, 2],
                    "b_prime": hb[3, 3],
                }
            )
    return entries


def _block_slices(labels: tuple[str, ...]) -> list[tuple[str, slice]]:
    out = []
    start = 0
    for k in range(1, len(labels) + 1):
        if k == len(labels) or labels[k] != labels[start]:
            out.append((labels[start], slice(start, k)))
            start = k
    return out


def _block_spectra(labels: list[str], h_blocks: list[np.ndarray], o_blocks: list[np.ndarray]) -> list:
    """Per block of the slice, in slice order, from its Hessian and
    symplectic blocks ``(K, size, size)``: ``(label, h_blk, h_eigs,
    l_eigs)``, the Hessian block, its eigenvalues and the sorted
    linearization eigenvalues, each stacked over the rows.  LAPACK works on
    each matrix of a stack on its own, so every row gets the bits a
    one-row stack gives.
    """
    return [
        (label, h, np.linalg.eigvalsh(h), _sort_complex(np.linalg.eigvals(-np.linalg.solve(o, h))))
        for label, h, o in zip(labels, h_blocks, o_blocks)
    ]


class Decision(NamedTuple):
    """The verdict of a slice analysis and what a scan prints beside it:
    the fields of the :class:`StabilityReport` that :func:`analyze` gives."""

    verdict: Verdict
    deciding_block: str
    mu_z: float
    xi_z: float


def _decide(labels: tuple[str, ...], h: np.ndarray, omega: np.ndarray, mu: list[float], xi: list[float]) -> list:
    """Per row ``i`` of restricted Hessians and forms ``(K, p, p)`` with
    slice-block ``labels``, mu_z and xi_z: ``(decision, blocks, i)``, or the
    :class:`DegenerateForm` of a singular form in its place.  ``blocks`` holds
    the :func:`_block_spectra` of each block (the diagonal view ``m[:, sl,
    sl]``) over every row; a singular row's form is an identity there, so
    that it cannot fail the solve of the others."""
    slices = _block_slices(labels)
    h_blocks, o_blocks = ([m[:, sl, sl] for _, sl in slices] for m in (h, omega))
    singular = _singular(o_blocks)
    if singular.any():
        o_blocks = [np.where(singular[:, None, None], np.eye(o.shape[1]), o) for o in o_blocks]
    blocks = _block_spectra([label for label, _ in slices], h_blocks, o_blocks)
    # The blocks are symplectically orthogonal and do not couple in the
    # Hessian, so the slice spectrum is the union of the block spectra;
    # the deciding block is the first with the largest growth rate or
    # the smallest |Hessian eigenvalue|.
    starts = [sl.start for _, sl in slices]
    hess = np.concatenate([h_eigs for _, _, h_eigs, _ in blocks], axis=1)
    growth = np.abs(np.concatenate([l_eigs.real for _, _, _, l_eigs in blocks], axis=1))
    growths = np.maximum.reduceat(growth, starts, axis=1)
    flattest = np.minimum.reduceat(np.abs(hess), starts, axis=1).argmin(axis=1)
    verdicts = _verdicts(hess.min(axis=1), hess.max(axis=1), growths.max(axis=1))
    deciding = np.where(verdicts == Verdict.LINEARLY_UNSTABLE, growths.argmax(axis=1), flattest)
    return [
        DegenerateForm(_SINGULAR_SLICE) if bad else (Decision(verdict, blocks[b][0], mu[i], xi[i]), blocks, i)
        for i, (bad, verdict, b) in enumerate(zip(singular.tolist(), verdicts.tolist(), deciding.tolist()))
    ]


def _stack_arrays(key: tuple, stack: list[tuple[FamilyDescriptor, float, float, float]]) -> list:
    """Per latitude of a stack of ``(descriptor, theta0, xi, mu)`` that share
    ``key = (family, N, k_p, lambda_n, reduced)``: its descriptor and the
    :func:`_decide` outcome of its Hessian and form on its slice basis."""
    rings, reduced = _rings(*key[:4]), key[4]
    u = np.array([math.cos(theta) for _, theta, _, _ in stack])
    s = np.array([math.sin(theta) for _, theta, _, _ in stack])
    xi = np.array([rate for _, _, rate, _ in stack])
    basis, labels = _slice_bases(rings, reduced, u, s)
    h = _restrict(basis, _hessians(rings, u, s, xi), antisymmetric=False)
    omega = _restrict(basis, _symplectic_forms(rings, s), antisymmetric=True)
    outcomes = _decide(labels, h, omega, [mu for _, _, _, mu in stack], xi.tolist())
    return [(entry[0], outcome) for entry, outcome in zip(stack, outcomes)]


def _report(original: FamilyDescriptor | None, outcome) -> StabilityReport | VortexError:
    """The report of one outcome of either route, or its error.  The numeric
    route's (``original`` None) is labelled ``custom``, and its one block
    ``slice`` has no entries."""
    if isinstance(outcome, VortexError):
        return outcome
    decision, blocks, j = outcome
    return StabilityReport(
        descriptor=original,
        label="custom" if original is None else original.label,
        mu_z=decision.mu_z,
        xi_z=decision.xi_z,
        blocks=tuple(
            BlockSpectrum(label, h_eigs[j], l_eigs[j], {} if original is None else
                          _block_entries(label, h_blk[j], l_eigs[j], original.family is not Family.DNH_2R))
            for label, h_blk, h_eigs, l_eigs in blocks
        ),
        verdict=decision.verdict,
        deciding_block=decision.deciding_block,
    )


def _stack_entry(original: FamilyDescriptor) -> tuple[tuple, tuple]:
    """Stack key ``(family, N, k_p, lambda_n, reduced)`` and stack entry
    ``(descriptor, theta0, xi, mu)`` of a ring-family member."""
    desc = _analysis_descriptor(original)
    xi = ring_angular_velocity(desc)
    mu = _vertical_momentum(desc)
    k_p = desc.k_p
    key = (desc.family, desc.n_per_ring, k_p, desc.lambda_n if k_p else 0.0, abs(mu) < MOMENTUM_ZERO_TOL)
    return key, (original, desc.theta0, xi, mu)


def _stacked(descs: Iterable[FamilyDescriptor]) -> Iterator[list[tuple[FamilyDescriptor, tuple | VortexError]]]:
    """The closed-form stacks of ``descs`` in input order, lazily: per
    :func:`_stack_arrays` call, the list of its descriptors and outcomes.
    Consecutive members that share a stack key are grouped, and each group
    is cut here, and only here, into stacks of ``16384 // d**2`` (d = 4N +
    2k_p; at least one).  A member's error is a stack of its own."""

    def keyed(original: FamilyDescriptor) -> tuple:
        try:
            return _stack_entry(original)
        except VortexError as exc:
            return exc, (original, exc)

    for key, run in groupby(map(keyed, descs), key=itemgetter(0)):
        entries = (entry for _, entry in run)
        if isinstance(key, VortexError):
            yield list(entries)
            continue
        size = max(1, STACK_ELEMENTS // (4 * key[1] + 2 * key[2]) ** 2)
        # no stack stays bound while the stacker is paused (thresholds keeps a paused scan per family)
        yield from map(partial(_stack_arrays, key), iter(lambda: list(islice(entries, size)), []))


def analyze_many(descs: Iterable[FamilyDescriptor]) -> Iterator[StabilityReport | VortexError]:
    """Closed-form slice analysis of ring-family members, in stacks.

    Yields, in input order, the report :func:`analyze` returns for each
    descriptor or the :class:`VortexError` it raises.  Consecutive members
    of one family with the same ring size and poles, whose vertical
    momenta are all zero or all nonzero, are analysed together: Hessians,
    slice bases, projections and block spectra are computed as the stacked
    arrays of :func:`_stacked`, ``16384 // d**2`` latitudes (d = 4N + 2k_p;
    at least one), so memory stays bounded however long the input is.
    """
    return (_report(original, outcome) for stack in _stacked(descs) for original, outcome in stack)


def decide_many(descs: Iterable[FamilyDescriptor]) -> Iterator[Decision | VortexError]:
    """The verdicts of :func:`analyze_many` without its reports.

    Yields, in input order, each descriptor's :class:`Decision` (the
    verdict, deciding block, mu_z and xi_z of its report, bit for bit) or
    the :class:`VortexError` :func:`analyze` raises, from the same stacks
    of :func:`_stacked` and eigensolves; no :class:`BlockSpectrum`, block
    entry or :class:`StabilityReport` is built.
    """
    return (outcome if isinstance(outcome, VortexError) else outcome[0] for stack in _stacked(descs) for _, outcome in stack)


def analyze(desc: FamilyDescriptor) -> StabilityReport:
    """Closed-form slice stability analysis of a ring-family member.

    The one-point case of :func:`analyze_many`.
    """
    (result,) = analyze_many([desc])
    if isinstance(result, VortexError):
        raise result
    return result


# ---------------------------------------------------------------------------
# numeric route: arbitrary configurations
# ---------------------------------------------------------------------------


def _small_key(c: Configuration) -> tuple:
    """What configurations must share to share one chart: layout, strengths
    and the hemispheres of the pole vortices."""
    poles = [c.layout.north, c.layout.south] if c.pole_count else []
    return c.layout, c.strengths.tobytes(), np.sign(c.positions[poles, 2]).tobytes()


def _small_stack(positions: np.ndarray, seed: Configuration, bound: float) -> list:
    """Per row of a position stack ``(K, M, 3)`` on the chart of ``seed``: its
    :func:`_decide` outcome with one block ``slice``, or in its place its
    refusal by the branch-point certificate at ``bound``
    (:func:`~vortex_atlas.equilibria._certificates`) or for a zero-dimensional
    slice.  Only certified rows are analysed; a chart error is raised."""
    rates, out, chart, index, qs = _certificates(positions, seed, bound)
    if not index.size:
        return out
    h = chart.hessian_fd(qs, rates[index])
    omega = chart.symplectic_matrix(qs)
    dphi = chart.momentum_rows(qs)
    gens = chart.rotation_generators(qs, np.eye(3))
    # a generator joins the momentum rows where the momentum map does not change along it
    moved = np.linalg.norm((dphi[:, None] @ gens[..., None])[..., 0], axis=-1)
    joins = moved <= 1e-8 * (1.0 + np.linalg.norm(gens, axis=-1))
    for pattern in set(map(tuple, joins.tolist())):
        at = np.flatnonzero((joins == pattern).all(axis=1))
        rows = np.concatenate([dphi[at], gens[at][:, np.flatnonzero(pattern)]], axis=1)
        # the slice is the rows' null space, by scipy.linalg.null_space's rank rule
        _, sing, vh = np.linalg.svd(rows)
        rank = (sing > sing.max(axis=1, keepdims=True) * (np.finfo(float).eps * max(rows.shape[1:]))).sum(axis=1)
        for r in set(rank.tolist()):
            sub, basis_t = at[rank == r], vh[rank == r, r:]  # the slice basis as rows, (K, k, d)
            kept = index[sub].tolist()
            if r == chart.dim:
                outcomes = [DegenerateForm("the slice is zero-dimensional") for _ in kept]
            else:
                hs = _restrict(basis_t.swapaxes(1, 2), h[sub], antisymmetric=False)
                omega_s = basis_t @ omega[sub] @ basis_t.swapaxes(1, 2)
                mu = [float((seed.strengths @ positions[i])[2]) for i in kept]
                outcomes = _decide(("slice",) * (chart.dim - r), hs, omega_s, mu, rates[kept].tolist())
            for i, outcome in zip(kept, outcomes):
                out[i] = outcome
    return out


def _small_outcomes(positions: np.ndarray, strengths: np.ndarray, layout: Layout, bound: float) -> list:
    """:func:`_small_stack` of a position stack of one chart, ``16384 // d**2``
    at a time, on the chart of its first configuration, the one built; a chunk
    whose chart an error hits (a pole on the equator) is redone row by row."""
    out: list = []
    size = max(1, STACK_ELEMENTS // (2 * len(strengths)) ** 2)
    for start in range(0, len(positions), size):
        stack = positions[start : start + size]
        if not start:
            seed = Configuration(stack[0], strengths, 0 if layout.north is None else 2, layout)
        try:
            out += _small_stack(stack, seed, bound)
        except VortexError as exc:  # an error hit the whole chunk: each alone gets its own outcome
            out += [exc] if len(positions) == 1 else [r for p in stack for r in _small_outcomes(p[None], strengths, layout, bound)]
    return out


def analyze_small_many(configs: Iterable[Configuration]) -> list[StabilityReport | VortexError]:
    """Numeric slice stability analysis of explicit configurations, in stacks.

    Returns, in input order, the report :func:`analyze_small` returns for
    each configuration or the :class:`VortexError` it raises.  Consecutive
    configurations with the same layout, strengths and pole-vortex
    hemispheres share one chart and are analysed together, at most
    ``16384 // d**2`` at a time (d = 2M chart coordinates; at least one).
    """
    out: list[StabilityReport | VortexError] = []
    for _, run in groupby(configs, _small_key):
        run = list(run)
        outcomes = _small_outcomes(np.array([c.positions for c in run]), run[0].strengths, run[0].layout, RESIDUAL_TOL)
        out += [_report(None, outcome) for outcome in outcomes]
    return out


def analyze_small(config: Configuration) -> StabilityReport:
    """Numeric slice stability analysis of an explicit configuration.

    The Hessian comes from finite differences of the analytic gradient;
    the slice is the numeric null space of the linearized momentum map
    with the rotation-orbit directions removed.  The one-configuration
    case of :func:`analyze_small_many`.
    """
    (result,) = analyze_small_many([config])
    if isinstance(result, VortexError):
        raise result
    return result


# ---------------------------------------------------------------------------
# verdict transitions along a family
# ---------------------------------------------------------------------------


def _scan_points(fam: Family, k_p: int, step: float) -> np.ndarray:
    if k_p == 0:
        hi = math.pi / 2
        pts = np.arange(step, hi + 1e-12, step)
        if fam is Family.DND_RRP:
            if not pts.size or pts[-1] < hi - 1e-9:
                pts = np.append(pts, hi)
        else:
            pts = pts[pts < hi - 5e-4]
    else:
        pts = np.arange(step, math.pi - step / 2, step)
        if fam is Family.DNH_2R:
            pts = pts[np.abs(pts - math.pi / 2) > 5e-4]
    return pts


def _classify(before: Verdict, after: Verdict) -> str:
    """The kind of a change between two different resolvable verdicts."""
    lyap = Verdict.LYAPUNOV_STABLE
    if lyap in (before, after):
        return "StabilityGain" if after is lyap else "StabilityLoss"
    return "HopfLower" if after is Verdict.LINEARLY_STABLE else "HopfUpper"


def _scan_verdict(result: Decision | VortexError) -> Verdict | None:
    """A scan point's verdict; None for an error or an indeterminate verdict."""
    if isinstance(result, VortexError) or result.verdict is Verdict.INDETERMINATE:
        return None
    return result.verdict


def verdict_changes(
    verdicts_at: Callable[[list[float]], list], samples: Iterable[tuple[float, object]], tol: float
) -> list[tuple[float, object, object]]:
    """Every verdict change between the samples ``(t, verdict)``, given in
    increasing ``t``: the changes as ``(midpoint, before, after)`` in
    increasing order.

    A sample whose verdict is None has no verdict and is skipped without
    breaking adjacency; each pair of adjacent remaining samples with
    different verdicts is a bracket.  A bracket no wider than ``tol``, or
    whose midpoint is not strictly inside it (its ends are adjacent
    floats), gives its midpoint; any other bracket is halved and both
    halves are searched, so a window of a third verdict gives both of its
    edges; a midpoint whose verdict is None counts as the upper end's.  The
    halving goes in rounds of two levels: ``verdicts_at`` gets, in one
    call, the midpoint of every open bracket and of each of its halves that
    splits, and returns their verdicts in order (a half whose ends then
    agree wastes its midpoint).  A NaN or negative ``tol`` raises
    :class:`InvalidDescriptor`.
    """
    if not tol >= 0.0:
        raise InvalidDescriptor(f"tol must be at least 0, not {tol!r}")

    def splits(lo: float, hi: float) -> bool:
        return hi - lo > tol and lo < 0.5 * (lo + hi) < hi

    def halved(pieces: list, verdict: dict) -> list:
        # One halving level: each piece that splits is cut at its midpoint,
        # and a half whose ends agree is dropped.
        halves = []
        for lo, v_lo, hi, v_hi in pieces:
            if not splits(lo, hi):
                halves.append((lo, v_lo, hi, v_hi))
                continue
            mid = 0.5 * (lo + hi)
            v_mid = v_hi if verdict[mid] is None else verdict[mid]
            halves += [p for p in ((lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)) if p[1] != p[3]]
        return halves

    known = [(t, v) for t, v in samples if v is not None]
    pieces = [(lo, v_lo, hi, v_hi) for (lo, v_lo), (hi, v_hi) in zip(known, known[1:]) if v_lo != v_hi]
    while True:
        asked = []
        for lo, _, hi, _ in (p for p in pieces if splits(p[0], p[2])):
            mid = 0.5 * (lo + hi)
            asked += [mid, *(0.5 * (a + b) for a, b in ((lo, mid), (mid, hi)) if splits(a, b))]
        if not asked:
            return [(0.5 * (lo + hi), v_lo, v_hi) for lo, v_lo, hi, v_hi in pieces]
        verdict = dict(zip(asked, verdicts_at(asked)))
        pieces = halved(halved(pieces, verdict), verdict)


def _transition_scan(ring: FamilyDescriptor, grid_step: float, tol: float) -> Iterator:
    """The scan of :func:`list_transitions` along ``ring``'s family, over the
    grid's :func:`_stacked` stacks: its arguments are checked at once, and each
    stack's changes are searched for only when the scan is read that far."""
    if ring.family not in (Family.DNH_2R, Family.DND_RRP):
        raise InvalidDescriptor("latitude scans cover the two-ring families")
    ring.at(math.pi / 2).validate()  # the template's own latitude is never scanned
    min_step = math.pi / MAX_GRID_POINTS
    if not (min_step <= grid_step < math.inf and MIN_TRANSITION_TOL <= tol < math.inf):
        raise InvalidDescriptor(
            f"grid_step must be finite and at least pi/{MAX_GRID_POINTS} = {min_step:.4g}, "
            f"tol finite and at least {MIN_TRANSITION_TOL:g}"
        )

    def verdicts_at(thetas) -> list[Verdict | None]:
        return [_scan_verdict(result) for result in decide_many(map(ring.at, thetas))]

    def sampled(stack: list) -> list[tuple[float, Verdict | None]]:
        # An indeterminate or invalid grid point is a sample with no verdict.
        return [(d.theta0, None if isinstance(o, VortexError) else _scan_verdict(o[0])) for d, o in stack]

    def scan() -> Iterator[tuple[str, float]]:
        last = []  # map keeps no stack: a scan paused at a change holds no spectra
        for samples in map(sampled, _stacked(map(ring.at, _scan_points(ring.family, ring.k_p, grid_step)))):
            samples = last + samples
            yield from ((_classify(a, b), theta) for theta, a, b in verdict_changes(verdicts_at, samples, tol))
            last = [s for s in samples if s[1] is not None][-1:]

    return scan()


def list_transitions(
    family: Family | str,
    n_per_ring: int,
    k_p: int,
    grid_step: float = 0.005,
    tol: float = 1e-6,
) -> tuple[tuple[str, float], ...]:
    """All verdict changes along the latitude, each located to ``tol``.

    One scan up the latitude grid, read to its end: it decides the grid one
    closed-form stack (as :func:`decide_many` stacks it) at a time and hands
    that stack's samples to :func:`verdict_changes` (one stacked pass per two
    halving levels) before it decides the next, led by the last earlier
    sample that has a verdict, so a change between two stacks is found too.
    Returns ``(kind, theta_star)`` pairs in increasing latitude order, with
    ``kind`` one of :data:`TRANSITIONS`.  A latitude whose verdict is
    :attr:`Verdict.INDETERMINATE` (definiteness margin below tolerance at
    double precision) is a sample with no verdict: changes are measured
    between the nearest resolvable neighbours instead, so an unresolvable
    plateau contributes no transitions of its own.  Raises
    :class:`InvalidDescriptor` for a ring size or pole count that no
    descriptor takes, and unless ``grid_step`` is finite and gives at most
    :data:`~vortex_atlas.core.MAX_GRID_POINTS` points over (0, pi) and
    ``tol`` is finite and at least :data:`MIN_TRANSITION_TOL`.
    """
    return tuple(_transition_scan(FamilyDescriptor(family, n_per_ring, math.pi / 2, k_p), grid_step, tol))


def _pick_transition(found: Iterable[tuple[str, float]], transition: str, occurrence: int) -> float:
    """The ``occurrence``-th latitude of kind ``transition`` in ``found``."""
    if transition not in TRANSITIONS:
        raise InvalidDescriptor(f"transition must be one of {', '.join(TRANSITIONS)}")
    matches = [theta for kind, theta in found if kind == transition]
    if occurrence >= len(matches):
        raise NoTransition(f"no {transition} transition (occurrence {occurrence}) for this family")
    return matches[occurrence]


def _transition_reader(ring: FamilyDescriptor, grid_step: float, tol: float) -> Callable:
    """``read(transition, occurrence)``: what :func:`_pick_transition` picks
    from :func:`list_transitions`, or raises, reading ``ring``'s family's one
    scan only up to the change asked for (a missing one reads it to the end)."""
    scan, seen = _transition_scan(ring, grid_step, tol), []

    def read(transition: str, occurrence: int) -> float:
        while True:
            try:
                return _pick_transition(seen, transition, occurrence)
            except NoTransition:
                if (change := next(scan, None)) is None:
                    raise
                seen.append(change)

    return read


# ---------------------------------------------------------------------------
# reference thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdRef:
    """One tabulated verdict-change latitude for a ring family."""

    family: Family
    n_per_ring: int
    k_p: int
    transition: str
    occurrence: int
    reference_value: float
    tolerance: float


def _refs() -> tuple[ThresholdRef, ...]:
    dnd, dnh = Family.DND_RRP, Family.DNH_2R
    rows = [
        # staggered rings, no poles
        (dnd, 2, 0, "StabilityGain", 0, 1.14, 0.01),
        (dnd, 3, 0, "HopfLower", 0, 1.302, 0.005),
        (dnd, 3, 0, "HopfUpper", 0, 1.315, 0.005),
        # aligned rings, no poles
        (dnh, 2, 0, "StabilityLoss", 0, 0.66, 0.01),
        (dnh, 3, 0, "StabilityLoss", 0, 0.77, 0.01),
        (dnh, 3, 0, "HopfUpper", 0, 0.78, 0.01),
        (dnh, 4, 0, "StabilityLoss", 0, 0.73, 0.01),
        (dnh, 5, 0, "StabilityLoss", 0, 0.67, 0.01),
        (dnh, 5, 0, "HopfUpper", 0, 0.68, 0.01),
        (dnh, 6, 0, "StabilityLoss", 0, 0.45, 0.01),
        # staggered rings with poles
        (dnd, 2, 2, "HopfLower", 0, 2.21, 0.01),
        (dnd, 2, 2, "HopfUpper", 0, 2.31, 0.01),
        (dnd, 3, 2, "HopfLower", 0, 1.80, 0.01),
        (dnd, 3, 2, "HopfUpper", 0, 2.05, 0.01),
        (dnd, 3, 2, "HopfLower", 1, 2.25, 0.01),
        (dnd, 4, 2, "HopfLower", 0, 1.75, 0.01),
        (dnd, 4, 2, "HopfUpper", 0, 1.79, 0.01),
        (dnd, 5, 2, "HopfLower", 0, 1.73, 0.01),
        (dnd, 5, 2, "HopfUpper", 0, 1.76, 0.01),
        (dnd, 6, 2, "HopfLower", 0, 1.71, 0.01),
        (dnd, 6, 2, "HopfUpper", 0, 1.72, 0.01),
        (dnd, 7, 2, "HopfLower", 0, 1.69, 0.01),
        (dnd, 7, 2, "HopfUpper", 0, 1.70, 0.01),
        # aligned rings with poles
        (dnh, 3, 2, "StabilityLoss", 0, 0.83, 0.01),
        (dnh, 3, 2, "HopfUpper", 0, 0.87, 0.01),
        (dnh, 4, 2, "StabilityLoss", 0, 0.92, 0.01),
        (dnh, 5, 2, "StabilityLoss", 0, 0.91, 0.01),
        (dnh, 5, 2, "HopfUpper", 0, 0.93, 0.01),
        (dnh, 6, 2, "StabilityLoss", 0, 0.83, 0.01),
        (dnh, 7, 2, "StabilityLoss", 0, 0.71, 0.01),
        (dnh, 7, 2, "HopfUpper", 0, 0.72, 0.01),
        (dnh, 8, 2, "StabilityLoss", 0, 0.47, 0.01),
    ]
    return tuple(ThresholdRef(*row) for row in rows)


#: Tabulated verdict-change latitudes used by the threshold sweep.
REFERENCE_THRESHOLDS = _refs()
