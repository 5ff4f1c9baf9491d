"""Relative equilibria of point vortices with opposite strengths.

Constructors for the symmetric families
----------------------------------------
All families pair ``N`` vortices of strength +1 with ``N`` of strength -1
(plus an optional pinned pole pair):

* the equatorial alternating ring: ``2N`` vortices interleaved around the
  equator — a genuine fixed equilibrium;
* the tetrahedral pair: +1 at the even-sign vertices of a cube's inscribed
  tetrahedron, -1 at their antipodes — also fixed;
* aligned two-ring families (``D_Nh(2R)``): a +ring at co-latitude
  ``theta0`` and a -ring at ``pi - theta0`` with the same longitudes;
* staggered two-ring families (``D_Nd(R,R')``): as above with the -ring
  rotated by ``pi/N``;
* either of the above with a pole pair (``k_p = 2``), strengths
  ``lambda_n`` / ``-lambda_n``.

These rotate rigidly about the z-axis (closed-form rate, cross-checked per
vortex).  One builder assembles rings and poles as a ``(K, M, 3)`` position
stack and drops each row a :class:`Configuration` would refuse.

Low-symmetry branches
---------------------
Three families with only a single vertical mirror plane (times a half-turn)
branch off the symmetric ones; they are parametrized by the cosines
``x = cos(theta_+)``, ``y = cos(theta_-)`` and the longitude offset
``alpha`` between the two rings of two:

* ``C_2v(2R,2p)``: both rings aligned (``alpha = 0``) with a pole pair;
  ``y`` is a Moebius function of ``x``;
* ``C_2v(R,R',2p)``: rings at right angles (``alpha = pi/2``) with a pole
  pair; ``y`` solves a quadratic (branch sign selectable) derived from a
  quartic relation;
* ``C_2v(R_m,R_m')``: four vortices in a single meridian plane, no poles;
  ``y`` is found by root bracketing.

Each branch has one solver, which only solves.  A solved point is
certified by :func:`_certificates`: it must rotate at one rate (to 1e-9)
with a chart residual of at most ``BRANCH_RESIDUAL_TOL`` at it.
:meth:`BranchPoint.configuration` certifies its point; the diagram builds
a segment's points as one position stack (of which that method is the
one-point case) and its stacked numeric analysis certifies every row.

The meridian branch's roots are polished by :func:`_brentq`, Brent's zero
finder (Brent, *Algorithms for Minimization without Derivatives*, 1973,
ch. 4) ported line for line from SciPy's ``brentq.c`` (SciPy 1.17;
BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy
Developers), so it returns the float ``scipy.optimize.brentq`` returns.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    Configuration,
    Family,
    FamilyDescriptor,
    InvalidDescriptor,
    Layout,
    OutOfDomain,
    PoleSingularity,
    POLE_EPS,
    VortexError,
    _kept_rows,
)
from .dynamics import MixedChart

__all__ = [
    "NotRelativeEquilibrium",
    "OutOfDomain",
    "NoRoot",
    "BranchPoint",
    "make_equatorial_pm_ring",
    "make_tetrahedral_pair",
    "make_single_plus_ring",
    "make_plus_ring_pole_pair",
    "make_family",
    "two_ring_positions",
    "configuration_angular_velocity",
    "ring_angular_velocity",
    "branch_c2v_2R2p",
    "branch_c2v_RRp2p",
    "branch_c2v_RmRmp",
]


class NotRelativeEquilibrium(VortexError, ValueError):
    """The configuration does not rotate rigidly at the given rate."""


class NoRoot(VortexError, ArithmeticError):
    """The branch equation has no root in the admissible interval."""


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

# The north and south pole vortex positions.
_POLES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


def make_equatorial_pm_ring(n_pairs: int) -> Configuration:
    """Alternating ring of ``2 n_pairs`` vortices on the equator.

    Vortex ``k`` sits at longitude ``pi k / n_pairs`` with strength
    ``(-1)^k``.  This is a fixed equilibrium for every ``n_pairs >= 2``.
    """
    n = int(n_pairs)
    if n < 2:
        raise InvalidDescriptor("the alternating equatorial ring needs n_pairs >= 2")
    k = np.arange(2 * n)
    phi = math.pi * k / n
    positions = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(2 * n)])
    layout = Layout(plus=range(0, 2 * n, 2), minus=range(1, 2 * n, 2))
    return Configuration(positions, np.where(k % 2 == 0, 1.0, -1.0), 0, layout)


def make_tetrahedral_pair() -> Configuration:
    """Dual tetrahedra: +1 on the even-sign vertices, -1 on their antipodes."""
    even = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]) / math.sqrt(3.0)
    strengths = np.repeat([1.0, -1.0], 4)
    return Configuration(np.vstack([even, -even]), strengths, 0, Layout.standard(4, 4, 0))


def make_single_plus_ring(n: int, theta0: float) -> Configuration:
    """A single ring of ``n`` identical +1 vortices at co-latitude ``theta0``.

    Provided as a reference configuration: its rotation rate has the simple
    closed form ``cos(theta0) (n - 1) / sin(theta0)^2``, which anchors the
    per-vortex rate formula in tests.
    """
    n = int(n)
    if n < 2:
        raise InvalidDescriptor("a ring needs at least two vortices")
    positions, strengths, layout, _ = _stack([[theta0] * n], 2.0 * math.pi * np.arange(n) / n, [1.0] * n,
                                             Layout(plus=range(n), minus=()))
    return Configuration(positions[0], strengths, 0, layout)


def make_plus_ring_pole_pair(theta0: float) -> Configuration:
    """Two +1 vortices at co-latitude ``theta0`` with two -1 pole vortices.

    The ring sits at longitudes 0 and pi.  Note both pole strengths are -1:
    this family balances the +ring against equal polar counter-vortices and
    is the one deliberate exception to the opposite-pole-strength rule.
    """
    if not (0.0 < theta0 < math.pi):
        raise OutOfDomain("theta0 must lie in (0, pi)")
    positions, strengths, layout, _ = _branch_stack([theta0])
    return Configuration(positions[0], strengths, 2, layout)


def make_family(desc: FamilyDescriptor) -> Configuration:
    """Build the configuration described by ``desc``.

    The low-symmetry ``C2v_*`` families are parametrized by branch points,
    not descriptors; use the ``branch_*`` solvers for those.
    """
    desc.validate()
    if desc.family is Family.EQUATORIAL_PM_RING:
        return make_equatorial_pm_ring(desc.n_per_ring)
    if desc.family is Family.TETRAHEDRAL_PAIR:
        return make_tetrahedral_pair()
    if desc.family in (Family.DNH_2R, Family.DND_RRP):
        return _make_two_rings(desc)
    raise InvalidDescriptor(
        f"{desc.family.value} configurations are built from branch points; "
        "use the branch_c2v_* solvers"
    )


def _make_two_rings(desc: FamilyDescriptor) -> Configuration:
    n, k_p = desc.n_per_ring, desc.k_p
    positions, strengths, _ = two_ring_positions(desc.family, n, k_p, desc.lambda_n, [desc.theta0])
    return Configuration(positions[0], strengths, k_p, Layout.standard(n, n, k_p))


def _ring_phase(family: Family, n: int) -> float:
    """Longitude offset of the minus ring relative to the plus ring."""
    return 0.0 if family is Family.DNH_2R else math.pi / n


def _stack(theta, phi, strengths: Sequence[float], layout: Layout) -> tuple[np.ndarray, np.ndarray, Layout, np.ndarray]:
    """The ring-and-pole assembly of the constructors: positions ``(K, M, 3)``
    of ring vortices at co-latitudes ``theta`` ``(K, R)`` and longitudes ``phi``
    (broadcast against them), then, if ``layout`` has poles, the north and south
    pole vortices; the strengths ``(M,)``, the layout, and the rows kept."""
    st = np.sin(theta)
    positions = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    if layout.north is not None:
        positions = np.concatenate([positions, np.broadcast_to(_POLES, (len(positions), 2, 3))], axis=1)
    return positions, np.array(strengths, float), layout, _kept_rows(positions)


def two_ring_positions(
    family: Family, n: int, k_p: int, lambda_n: float, thetas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions ``(K, M, 3)`` and strengths ``(M,)`` of the two-ring members
    at the co-latitudes ``thetas``, built in one array pass, and which of
    them a :class:`Configuration` accepts.  Vortex order: the plus ring, the
    minus ring, then with ``k_p = 2`` the north and south poles;
    :func:`make_family` of a two-ring member is the one-latitude case."""
    phi = 2.0 * math.pi * np.arange(n) / n
    strengths = [1.0] * n + [-1.0] * n + [lambda_n, -lambda_n][:k_p]
    rings = np.repeat(np.column_stack([thetas, math.pi - np.asarray(thetas, float)]), n, axis=1)
    positions, strengths, _, kept = _stack(rings, np.concatenate([phi, phi + _ring_phase(family, n)]), strengths,
                                           Layout.standard(n, n, k_p))
    return positions, strengths, kept


# ---------------------------------------------------------------------------
# Rotation rates and residuals
# ---------------------------------------------------------------------------

#: A solved branch point's chart residual at its rate must not exceed this.
BRANCH_RESIDUAL_TOL = 1e-8


def _vortex_rates(p: np.ndarray, lam: np.ndarray, which: list[int]) -> np.ndarray:
    """Rotation rate about z read off each of the vortices ``which`` in each
    configuration of a stack ``p`` ``(K, M, 3)`` (one strength vector),
    ``(K, len(which))``; raises :class:`PoleSingularity` if one is within
    ``POLE_EPS`` of a pole, where the rate is undefined.

    For a configuration rotating rigidly about the z-axis every vortex's
    longitude advances at the same rate

        xi = sum_{j != i} lambda_j (rho_i^2 z_j - z_i (x_i x_j + y_i y_j))
                           / (rho_i^2 (1 - x_i . x_j)),

    with ``rho_i^2 = 1 - z_i^2``.

    One array pass over the stack.  Each sum adds its terms in partner
    order, so a rate has the bits of a scalar loop over the partners:
    ``x_i . x_j`` is one BLAS dot product per pair, as ``p[i] @ p[j]``
    takes it, and ``z_i^2`` is libm's ``pow``, as the scalar ``**`` takes it.
    """
    partners = [[j for j in range(p.shape[1]) if j != i] for i in which]
    x, y = p[:, which, None, :], p[:, partners]  # (K, n, 1, 3) and (K, n, M - 1, 3)
    rho2 = 1.0 - np.float_power(x[..., 2], 2)
    if (rho2 < POLE_EPS**2).any():
        raise PoleSingularity("vortex sits too close to a pole for the rate formula")
    dot = (x[..., None, :] @ y[..., None])[..., 0, 0]
    horizontal = x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]
    # a pair whose 1 - x_i . x_j rounds to 0 gives nan or inf rates, which _rigid_rates refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = lam[partners] * (rho2 * y[..., 2] - x[..., 2] * horizontal) / (rho2 * (1.0 - dot))
    rates = np.zeros(terms.shape[:2])
    for k in range(terms.shape[2]):
        rates += terms[..., k]
    return rates


def configuration_angular_velocity(c: Configuration) -> float:
    """Rotation rate cross-checked over every ring vortex.

    Raises
    ------
    NotRelativeEquilibrium
        If per-vortex rates disagree by more than 1e-9 — the
        configuration does not rotate rigidly about z.
    PoleSingularity
        If it has no ring vortex, or one within ``POLE_EPS`` of a pole,
        where the rate formula is undefined.
    """
    (rate,), (refused,) = _rigid_rates(c.positions[None], c.strengths, c.layout)
    if refused:
        raise refused
    return float(rate)


def _rigid_rates(p: np.ndarray, lam: np.ndarray, layout: Layout) -> tuple[np.ndarray, list[NotRelativeEquilibrium | None]]:
    """:func:`configuration_angular_velocity` of each configuration of a
    position stack ``p`` ``(K, M, 3)`` with strengths ``lam`` and one layout,
    ``(K,)`` from one array pass, and each one's error in input order
    (``None`` where its rates agree), returned rather than raised."""
    ring = list(layout.plus) + list(layout.minus)
    if not ring:
        raise PoleSingularity("a pole-only configuration has no ring rate")
    rates = _vortex_rates(p, lam, ring)
    spreads = (rates.max(axis=1) - rates.min(axis=1)).tolist()
    message = "per-vortex rotation rates disagree by {:.3e}; the configuration does not rotate rigidly about z"
    return rates[:, 0], [NotRelativeEquilibrium(message.format(spread)) if not spread <= 1e-9 else None for spread in spreads]


def ring_angular_velocity(desc: FamilyDescriptor) -> float:
    """Closed-form rotation rate of the two-ring families.

    With ``u = cos(theta0)``, ``s = sin(theta0)`` and relative longitudes
    ``delta_j`` of the -ring seen from a +vortex,

        xi = u [ (N - 1)/s^2
                 + sum_j (1 + cos delta_j) / (2 - s^2 (1 + cos delta_j)) ]
             + k_p lambda_n / s^2.
    """
    desc.validate()
    if desc.family not in (Family.DNH_2R, Family.DND_RRP):
        raise InvalidDescriptor(
            "the closed-form rate applies to the two-ring families only"
        )
    n = desc.n_per_ring
    u = math.cos(desc.theta0)
    s2 = 1.0 - u * u
    if s2 == 0.0:
        raise PoleSingularity("rings on the poles: the rotation rate diverges")
    offset = _ring_phase(desc.family, n)
    total = u * (n - 1) / s2
    for j in range(n):
        cd = 1.0 + math.cos(2.0 * math.pi * j / n + offset)
        total += u * cd / (2.0 - s2 * cd)
    total += desc.k_p * desc.lambda_n / s2
    return total


def _certificates(positions: np.ndarray, seed: Configuration, bound: float) -> tuple:
    """The branch-point certificate of each configuration of a position
    stack ``(K, M, 3)`` with the strengths and layout of ``seed``: its rate,
    from one :func:`_rigid_rates` pass, and its refusal in input order
    (``None`` where it is certified), which is either its rates'
    disagreement or, where they agree, a :class:`NotRelativeEquilibrium`
    for a max-abs chart gradient at that rate above ``bound``, all rows
    charted together on one chart of ``seed``.  Also returns that chart
    (``None`` where no rates agree), the certified rows and their chart
    points, for the numeric analysis to go on from."""
    rates, out = _rigid_rates(positions, seed.strengths, seed.layout)
    index = np.flatnonzero([refused is None for refused in out])
    if not index.size:
        return rates, out, None, index, None
    chart = MixedChart(seed)
    qs = chart._coords(positions[index])
    residuals = np.abs(chart.gradient(qs, rates[index])).max(axis=1)
    keep = residuals <= bound
    for i, residual in zip(index[~keep].tolist(), residuals[~keep].tolist()):
        out[i] = NotRelativeEquilibrium(f"co-rotating field residual {residual:.3e} exceeds {bound:.1e}")
    return rates, out, chart, index[keep], qs[keep]


# ---------------------------------------------------------------------------
# Branch solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchPoint:
    """One point on a low-symmetry branch.

    ``x = cos(theta_+)`` and ``y = cos(theta_-)`` are the ring co-latitude
    cosines, ``alpha`` the longitude offset between the two rings of two,
    and ``lambda_n`` the north pole strength (0 means no poles).
    """

    x: float
    y: float
    alpha: float
    family: Family
    lambda_n: float = 1.0

    def configuration(self) -> Configuration:
        """The point's configuration, built, validated and certified on each
        call: the one-point case of :func:`_branch_stack`, refused as
        :func:`_certificates` refuses it at ``BRANCH_RESIDUAL_TOL``.

        Raises
        ------
        OutOfDomain
            If ``x`` or ``y`` is not a cosine: off [-1, 1].
        NotRelativeEquilibrium
            If its per-vortex rates disagree by more than 1e-9, or its chart
            residual at its rate exceeds ``BRANCH_RESIDUAL_TOL``.
        """
        if abs(self.x) > 1.0 or abs(self.y) > 1.0:
            raise OutOfDomain(f"x = {self.x!r} and y = {self.y!r} must lie in [-1, 1]")
        positions, strengths, layout, _ = _branch_stack([self])
        config = Configuration(positions[0], strengths, 0 if layout.north is None else 2, layout)
        (refused,) = _certificates(positions, config, BRANCH_RESIDUAL_TOL)[1]
        if refused:
            raise refused
        return config


def _branch_stack(points: Sequence[BranchPoint | float]) -> tuple[np.ndarray, np.ndarray, Layout, np.ndarray]:
    """The configurations of branch points that share their family and pole
    strength, or of :func:`make_plus_ring_pole_pair` at co-latitudes in
    (0, pi), as one :func:`_stack`.  A meridian point has +1 at cos-heights x, -y and -1 at
    y, -x, all in the xz-plane.  Heights become co-latitudes through
    ``math.acos``, whose floats ``np.arccos`` does not always give."""
    first = points[0]
    if not isinstance(first, BranchPoint):
        theta = np.repeat(np.asarray(points, float)[:, None], 2, axis=1)
        return _stack(theta, [0.0, math.pi], [1.0, 1.0, -1.0, -1.0], Layout(plus=(0, 1), minus=(), north=2, south=3))
    if first.family is Family.C2V_RM_RMP:
        heights, phi = [(p.x, -p.y, p.y, -p.x) for p in points], (0.0, math.pi, math.pi, 0.0)
    else:
        heights, phi = [(p.x, p.x, p.y, p.y) for p in points], [(0.0, math.pi, p.alpha, p.alpha + math.pi) for p in points]
    poles = 0 if first.lambda_n == 0.0 else 2
    strengths = [1.0, 1.0, -1.0, -1.0] + [first.lambda_n, -first.lambda_n][:poles]
    return _stack([[math.acos(h) for h in row] for row in heights], phi, strengths, Layout.standard(2, 2, poles))


def branch_c2v_2R2p(x: float, lambda_n: float = 1.0) -> BranchPoint:
    """Aligned-rings branch with poles: solve for ``y`` given ``x``.

    The branch relation is ``x y - 1 + 2 lambda_n (y - x) = 0``, i.e.
    ``y = (2 lambda_n x + 1) / (x + 2 lambda_n)``.
    """
    if not (-1.0 < x < 1.0):
        raise OutOfDomain("x = cos(theta_+) must lie in (-1, 1)")
    if lambda_n == 0.0:
        raise OutOfDomain("this branch needs pole vortices (lambda_n != 0)")
    denom = x + 2.0 * lambda_n
    if abs(denom) < 1e-14:
        raise OutOfDomain("branch relation degenerates at x = -2 lambda_n")
    y = (2.0 * lambda_n * x + 1.0) / denom
    if not (-1.0 < y < 1.0):
        raise OutOfDomain(
            f"solved y = {y:.6g} leaves (-1, 1); x = {x:.6g} is outside the branch"
        )
    return BranchPoint(x, y, 0.0, Family.C2V_2R2P, lambda_n)


def _rrp2p_quartic(x: float, y: float, lambda_n: float) -> float:
    return (
        x * x * y * y
        - 2.0 * y * y
        - 2.0 * x * x
        + 2.0 * x * y
        + 1.0
        - 2.0 * lambda_n * (1.0 - x * y) * (x - y)
    )


def branch_c2v_RRp2p(x: float, lambda_n: float = 1.0, sign: int = 1) -> BranchPoint:
    """Right-angle-rings branch with poles: solve for ``y`` given ``x``.

    Solves the quartic branch relation (quadratic in ``y``); ``sign``
    selects the root

        y = -(x + lambda_n (x^2 + 1) +- (1 - x^2) sqrt(2 + lambda_n^2))
            / (x^2 - 2 (1 + lambda_n x)).
    """
    if not (-1.0 < x < 1.0):
        raise OutOfDomain("x = cos(theta_+) must lie in (-1, 1)")
    if sign not in (1, -1):
        raise OutOfDomain("sign must be +1 or -1")
    denom = x * x - 2.0 * (1.0 + lambda_n * x)
    if abs(denom) < 1e-14:
        raise OutOfDomain("branch relation degenerates at this x")
    root = math.sqrt(2.0 + lambda_n * lambda_n)
    y = -(x + lambda_n * (x * x + 1.0) + sign * (1.0 - x * x) * root) / denom
    if not (-1.0 < y < 1.0):
        raise OutOfDomain(
            f"solved y = {y:.6g} leaves (-1, 1); x = {x:.6g} is outside the branch"
        )
    resid = _rrp2p_quartic(x, y, lambda_n)
    if abs(resid) > 1e-10:
        raise OutOfDomain(
            f"quartic residual {resid:.3e} exceeds 1e-10 at (x, y) = "
            f"({x:.6g}, {y:.6g})"
        )
    return BranchPoint(x, y, math.pi / 2.0, Family.C2V_RRP2P, lambda_n)


def _rm_rmp_equation(x: float, y: float | np.ndarray) -> float | np.ndarray:
    return 2.0 * (
        y * x**3 + x * y**3 - x * x - y * y - x * y + 1.0
    ) - (x * x + y * y + 2.0 * x * y - 2.0) * np.sqrt(
        (1.0 - x * x) * (1.0 - y * y)
    )


def branch_c2v_RmRmp_all(x: float) -> tuple[BranchPoint, ...]:
    """All meridian-branch solutions with ``y`` in ``(x, 1)`` for this ``x``.

    The zero set of the branch equation consists of two arcs (mirror
    images under the half-turn), and a vertical line can cross an arc
    twice, so there may be zero, one, or two roots.  Roots are found by
    scanning a fine subdivision for sign changes and polishing each with
    bracketed root finding to machine precision (rigid-rotation
    certification divides by 1 - y**2, so near-pole roots need every
    digit); they are returned in increasing ``y`` order.  Points with
    ``y < x`` are the relabeled twins ``(y, x)`` of roots of other ``x``
    values and are not produced here.  A root is not certified here;
    :meth:`BranchPoint.configuration` certifies it.
    """
    if not (-1.0 < x < 1.0):
        raise OutOfDomain("x = cos(theta_+) must lie in (-1, 1)")
    lo = x + 1e-9
    hi = 1.0 - 1e-9
    if lo >= hi:
        return ()
    ys = np.linspace(lo, hi, 2000)
    vals = _rm_rmp_equation(x, ys)
    # _brentq returns a bracket end where the equation is exactly zero.
    brackets = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    # Python floats in and out of the equation, as SciPy's brentq passes them
    roots = [
        _brentq(
            lambda yy: float(_rm_rmp_equation(x, yy)),
            float(ys[k]),
            float(ys[k + 1]),
            xtol=1e-15,
            rtol=4.0 * sys.float_info.epsilon,
        )
        for k in brackets
    ]
    return tuple(BranchPoint(x, y, math.pi, Family.C2V_RM_RMP, 0.0) for y in roots)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A zero of ``f`` in the bracket ``[xa, xb]`` by SciPy's ``brentq.c``:
    ``xpre``/``xcur`` are the last two iterates, ``xblk`` the bracket's other
    end, ``spre``/``scur`` the last two steps."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations; last iterate {xcur!r}")


def branch_c2v_RmRmp(x: float) -> BranchPoint:
    """Meridian-plane branch: solve for ``y`` in ``(x, 1)`` given ``x``.

    The four vortices sit in a single vertical plane; no poles.  When the
    vertical line at ``x`` meets the branch twice, the root with the
    larger ``y`` (the arc through the great-circle square) is returned;
    :func:`branch_c2v_RmRmp_all` exposes every root.

    Raises
    ------
    NoRoot
        If the branch equation has no root with ``y`` in ``(x, 1)`` —
        notably at ``x = 0``, where the branch pinches off.
    """
    if not (-1.0 < x < 1.0 / math.sqrt(2.0)):
        raise OutOfDomain("x = cos(theta_+) must lie in (-1, 1/sqrt(2))")
    points = branch_c2v_RmRmp_all(x)
    if not points:
        raise NoRoot(
            f"the meridian branch equation has no root in ({x:.6g}, 1) "
            f"for x = {x:.6g}"
        )
    return points[-1]
