"""Independent oracles the tests hold the package to.

None of these is run by a command.  Each recomputes something the package
decides by another route, so that the two can be compared:

* the symmetry group O(3) x Z_2: an element ``(A, tau^k)`` is an
  orthogonal matrix and an optional swap ``tau`` of the two vorticity
  populations; its action on configurations, the test whether it fixes
  one up to relabelling within each population, and the character that
  tells time-preserving from time-reversing elements;
* the co-rotating chart field, from the ambient vector field rather than
  the chart gradient, and the full co-rotating linearization built from
  it (no slicing);
* the branch-point certificate one configuration at a time, for the
  stacked certificate the package applies;
* the two-ring phase test;
* the deciding scalars, independent closed forms of the diagonal block
  energies of the uniform and top-wavenumber modes;
* the growth of a perturbed two-ring equilibrium along a trajectory, which
  shares only the configuration and :func:`~vortex_atlas.dynamics.integrate`
  with :func:`~vortex_atlas.stability.analyze`.

SciPy is a test dependency only; the package itself never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import eig as dense_eig
from scipy.optimize import linear_sum_assignment

from vortex_atlas.core import (
    POLE_EPS,
    Configuration,
    FamilyDescriptor,
    InvalidConfiguration,
    InvalidDescriptor,
    Layout,
    VortexError,
    _pairwise_l2,
)
from vortex_atlas.dynamics import MixedChart, _field, _pair_constants, integrate
from vortex_atlas.equilibria import _ring_phase, configuration_angular_velocity, make_family
from vortex_atlas.stability import _analysis_descriptor, _sort_complex

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


def with_negated_strengths(c: Configuration) -> Configuration:
    """Same positions with every strength negated.

    The equations of motion are linear in the strengths, so negating
    them reverses the flow; this is how backward evolution is computed
    without ever integrating with a negative time step.
    """
    layout = Layout(
        plus=c.layout.minus,
        minus=c.layout.plus,
        north=c.layout.north,
        south=c.layout.south,
    )
    return Configuration(c.positions, -c.strengths, c.pole_count, layout)


# ---------------------------------------------------------------------------
# Co-rotating chart field and the full linearization
# ---------------------------------------------------------------------------


def corotating_field(chart: MixedChart, q: np.ndarray, xi: float) -> np.ndarray:
    """Chart velocity in the frame rotating about z at rate ``xi``.

    Computed from the ambient vector field (an independent route from
    :meth:`MixedChart.gradient`): ``dx_i/dt - xi e_z x x_i`` projected onto
    the chart frames.
    """
    p = chart.positions(q)
    v = _field(p, _pair_constants(chart.strengths))
    v[:, 0] += float(xi) * p[:, 1]
    v[:, 1] -= float(xi) * p[:, 0]
    return _chart_components(chart, q, v)


def _chart_components(chart: MixedChart, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Chart components at ``q`` of ambient tangent vectors ``v`` (M, 3)."""
    dq = np.empty(chart.dim)
    for r, i in enumerate(chart.ring):
        th, ph = q[r], q[chart.n_ring + r]
        st, ct = math.sin(th), math.cos(th)
        cp, sp = math.cos(ph), math.sin(ph)
        theta_hat = np.array([ct * cp, ct * sp, -st])
        phi_hat = np.array([-sp, cp, 0.0])
        dq[r] = v[i] @ theta_hat
        dq[chart.n_ring + r] = (v[i] @ phi_hat) / st
    for k, i in enumerate(chart.poles):
        dq[2 * chart.n_ring + 2 * k] = v[i, 0]
        dq[2 * chart.n_ring + 2 * k + 1] = v[i, 1]
    return dq


def full_linearization_oracle(config: Configuration) -> np.ndarray:
    """Eigenvalues of the full co-rotating linearization (no slicing).

    The frame rotates at the configuration's own rigid rate, and the
    Jacobian of the co-rotating chart field is built with fourth-order
    central differences of step 1e-3.  Relative to a slice analysis the
    spectrum gains the orbit/momentum modes: two zeros and a conjugate pair
    at the rotation rate when the momentum is vertical and nonzero, six
    zeros when it vanishes.
    """
    xi = configuration_angular_velocity(config)
    chart = MixedChart(config)
    q0 = chart.coords()
    d, step = q0.size, 1e-3
    jac = np.zeros((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        f_m2 = corotating_field(chart, q0 - 2 * e, xi)
        f_m1 = corotating_field(chart, q0 - e, xi)
        f_p1 = corotating_field(chart, q0 + e, xi)
        f_p2 = corotating_field(chart, q0 + 2 * e, xi)
        jac[:, k] = (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * step)
    eigs, _ = dense_eig(jac)
    return _sort_complex(eigs)


def certificate_oracle(c: Configuration) -> float:
    """The equilibrium residual of ``c`` on its own: the max-abs chart
    gradient of a fresh :class:`MixedChart` of ``c`` at the rate that
    :func:`configuration_angular_velocity` reads off it, which raises
    ``NotRelativeEquilibrium`` where the per-vortex rates disagree.  A
    branch point is certified where this is at most 1e-8."""
    xi = configuration_angular_velocity(c)
    chart = MixedChart(c)
    return float(np.max(np.abs(chart.gradient(chart.coords(), xi))))


def spectrum_match(found: np.ndarray, expected: np.ndarray) -> float:
    """Largest pairing distance between two equally sized spectra."""
    found = np.asarray(found, complex)
    expected = np.asarray(expected, complex)
    if found.shape != expected.shape:
        raise ValueError("spectra must have equal size to be matched")
    cost = np.abs(found[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if found.size else 0.0


# ---------------------------------------------------------------------------
# Two-ring phase test
# ---------------------------------------------------------------------------


class NotTwoRings(VortexError, ValueError):
    """The configuration's ring vortices do not form two regular rings."""


class TwoRingPhase(Enum):
    """Relative longitude offset between the + and - rings."""

    IN_PHASE = "InPhase"
    OUT_OF_PHASE_BY_PI_OVER_N = "OutPhaseByPiOverN"
    NEITHER = "Neither"


def two_ring_phase_test(c: Configuration) -> TwoRingPhase:
    """Classify the longitude offset between the + and - rings, to 1e-9.

    Raises
    ------
    NotTwoRings
        If the non-pole vortices do not form two equally sized regular
        rings, each on a single latitude circle.
    """
    tol = 1e-9
    plus = c.positions[list(c.layout.plus)].tolist()
    minus = c.positions[list(c.layout.minus)].tolist()
    n = len(plus)
    if n < 2 or len(minus) != n:
        raise NotTwoRings(
            "need two equally sized ring populations with at least two "
            "vortices each"
        )
    phase = []
    for group in (plus, minus):
        zs = [z for _, _, z in group]
        if max(zs) - min(zs) > tol:
            raise NotTwoRings("ring vortices are not on a single latitude circle")
        if 1.0 - max(abs(z) for z in zs) < POLE_EPS:
            raise NotTwoRings("ring sits on a pole; longitudes are undefined")
        phis = sorted(math.atan2(y, x) % (2.0 * math.pi) for x, y, _ in group)
        gaps = [
            (phis[(k + 1) % n] - phis[k]) % (2.0 * math.pi) for k in range(n)
        ]
        if max(gaps) - min(gaps) > n * tol:
            raise NotTwoRings("ring longitudes are not uniformly spaced")
        total = sum(math.e ** (1j * n * p) for p in phis)
        phase.append(math.atan2(total.imag, total.real) / n)
    period = 2.0 * math.pi / n
    offset = (phase[1] - phase[0]) % period
    if min(offset, period - offset) < tol:
        return TwoRingPhase.IN_PHASE
    if abs(offset - period / 2.0) < tol:
        return TwoRingPhase.OUT_OF_PHASE_BY_PI_OVER_N
    return TwoRingPhase.NEITHER


# ---------------------------------------------------------------------------
# Deciding scalars (independent closed forms, ring size >= 3)
# ---------------------------------------------------------------------------


def _cross_angles(desc: FamilyDescriptor) -> np.ndarray:
    n = desc.n_per_ring
    return 2.0 * math.pi * np.arange(n) / n + _ring_phase(desc.family, n)


def deciding_scalars_rs(desc: FamilyDescriptor) -> tuple[float, float]:
    """Diagonal energies ``(r, s)`` of the uniform modes (tilt-free block).

    ``r`` is the energy of the uniform counter-rotation of the rings,
    positive throughout the staggered family's range; ``s`` is the energy
    of the uniform colatitude shift, strictly increasing in ``theta0``,
    and the block destabilizes exactly where ``s`` is negative.
    """
    desc = _analysis_descriptor(desc)
    n = desc.n_per_ring
    if n < 3:
        raise InvalidDescriptor("the uniform-mode scalars need ring size >= 3")
    u = math.cos(desc.theta0)
    one_m_u2 = 1.0 - u * u
    delta = _cross_angles(desc)
    c = np.cos(delta)
    d2 = (1.0 + u * u - one_m_u2 * c) ** 2
    s1 = np.sum(1.0 / d2)
    s2 = np.sum(c / d2)
    s3 = np.sum(c * c / d2)
    bracket = (
        -(n - 1) * (1.0 + u * u) / one_m_u2
        + (1.0 - u**4) * s1
        - 2.0 * (1.0 + u**4) * s2
        + (1.0 - u**4) * s3
    )
    if desc.k_p:
        bracket += -4.0 * u * desc.lambda_n / one_m_u2
    shift_energy = 2.0 * n * bracket
    rotation_energy = 4.0 * n * one_m_u2 * (one_m_u2 * s1 - (1.0 + u * u) * s2)
    return rotation_energy, shift_energy


def deciding_scalars_ab(desc: FamilyDescriptor) -> tuple[float, float]:
    """Diagonal energies of the counter-phased pair at the top wavenumber
    ``q = N // 2``.

    Returns ``(a, b)`` for the colatitude and longitude patterns whose
    product decides the block.
    """
    desc = _analysis_descriptor(desc)
    n = desc.n_per_ring
    if n < 4:
        raise InvalidDescriptor("the mode-pair scalars need ring size >= 4")
    q = n // 2
    # at the top wavenumber of the aligned family the sine patterns vanish
    # and the surviving modes carry twice the generic energy; the staggered
    # offset keeps all patterns alive, so no doubling there
    eps = 2.0 if (2 * q == n and _ring_phase(desc.family, n) == 0.0) else 1.0
    u = math.cos(desc.theta0)
    one_m_u2 = 1.0 - u * u
    rel = 2.0 * math.pi * np.arange(1, n) / n
    crel = np.cos(rel)
    cqrel = np.cos(q * rel)
    delta = _cross_angles(desc)
    c = np.cos(delta)
    cq = np.cos(q * delta)
    d2 = (1.0 + u * u - one_m_u2 * c) ** 2

    bracket_a = (
        -(n - 1) * u * u / one_m_u2
        + np.sum((crel - cqrel) / (1.0 - crel)) / one_m_u2
        - np.sum(
            (
                u**4
                - u * u
                + one_m_u2 * cq
                + (2.0 * u**4 - u * u + 1.0 - (1.0 + u * u) * cq) * c
                - (1.0 - u**4) * c * c
            )
            / d2
        )
    )
    if desc.k_p:
        bracket_a += -4.0 * u * desc.lambda_n / one_m_u2
    a = eps * n * bracket_a
    b = eps * n * (
        -np.sum((1.0 - cqrel) / (1.0 - crel))
        + one_m_u2 * np.sum((1.0 - cq) * (one_m_u2 - (1.0 + u * u) * c) / d2)
    )
    return a, b


# ---------------------------------------------------------------------------
# Growth along a trajectory
# ---------------------------------------------------------------------------


def chord_deviation(desc: FamilyDescriptor, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Times and ``max_ij |l2_ij(t) - l2_ij(0)|`` along the trajectory of
    ``make_family(desc)`` moved by a random offset of size 1e-8 (seed 0).

    The squared chords are rotation invariant, so drift along the rotation
    orbit does not count; the trajectory comes from :func:`integrate` at
    tol 1e-10.
    """
    c = make_family(desc)
    offset = 1e-8 * np.random.default_rng(0).standard_normal(c.positions.shape)
    traj = integrate(c.with_positions(c.positions + offset), t_end, tol=1e-10)
    l2 = _pairwise_l2(traj.positions)
    return np.array(traj.times), np.abs(l2 - l2[0]).max(axis=(1, 2))


def fitted_growth(times: np.ndarray, deviation: np.ndarray) -> float:
    """Least-squares slope of ``log(deviation)`` against time over the
    samples where the deviation lies in [1e-6, 1e-2], up to its first passage
    above 1e-2: the linear growth rate, read once the growing mode dominates
    the 1e-8 offset and before the nonlinear regime, whose deviation may
    fall back through the window."""
    above = np.flatnonzero(deviation > 1e-2)
    window = deviation >= 1e-6
    window[above[0] if above.size else len(window) :] = False
    if window.sum() < 10:
        raise ValueError(f"only {window.sum()} samples in the fitting window")
    return float(np.polyfit(times[window], np.log(deviation[window]), 1)[0])
