"""Linear and Lyapunov stability of ring relative equilibria.

The configurations analyzed here rotate rigidly about the vertical axis.
Stability is decided on a *slice*: a complement of the rotation-orbit
direction inside the kernel of the linearized momentum map.  For the
symmetric two-ring families the slice is spanned by discrete Fourier
modes of the ring perturbations, and both the energy Hessian and the
symplectic form block-diagonalize over small mode groups, so each block
can be examined independently and in closed form.

Two independent routes are kept deliberately separate:

* closed-form route — :func:`hessian_closed_form`, :func:`slice_basis`,
  :func:`analyze`;
* numeric route — finite differences of the analytic gradient /
  co-rotating field (:func:`analyze_small`,
  :func:`full_linearization_oracle`), used to cross-validate the first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import eig as dense_eig
from scipy.linalg import null_space
from scipy.optimize import linear_sum_assignment

from .core import (
    CollisionError,
    Configuration,
    Family,
    FamilyDescriptor,
    InvalidDescriptor,
    PoleSingularity,
    VortexError,
)
from .dynamics import MixedChart, momentum_map
from .equilibria import (
    configuration_angular_velocity,
    re_residual,
    ring_angular_velocity,
)

__all__ = [
    "DEFINITENESS_TOL",
    "SPECTRAL_TOL",
    "MOMENTUM_ZERO_TOL",
    "TRANSITIONS",
    "REFERENCE_THRESHOLDS",
    "Verdict",
    "ThresholdRef",
    "NotRelativeEquilibrium",
    "DegenerateForm",
    "NoTransition",
    "TangentVector",
    "SliceBasis",
    "BlockSpectrum",
    "StabilityReport",
    "hessian_closed_form",
    "slice_basis",
    "slice_symplectic_form",
    "full_symplectic_form",
    "deciding_scalars_rs",
    "deciding_scalars_ab",
    "analyze",
    "analyze_small",
    "full_linearization_oracle",
    "spectrum_match",
    "list_transitions",
    "critical_latitude",
]

#: Hessian eigenvalues within this margin of zero do not count as signed.
DEFINITENESS_TOL = 1e-9
#: Linearization eigenvalues with |Re| above this count as growth.
SPECTRAL_TOL = 1e-8
#: Below this the vertical momentum is treated as zero (bigger rotation
#: orbit, smaller slice).
MOMENTUM_ZERO_TOL = 1e-8

TRANSITIONS = ("StabilityGain", "StabilityLoss", "HopfLower", "HopfUpper")


class Verdict(Enum):
    """Outcome of a slice stability analysis."""

    LYAPUNOV_STABLE = "LyapunovStable"
    LINEARLY_STABLE = "LinearlyStable"
    LINEARLY_UNSTABLE = "LinearlyUnstable"
    INDETERMINATE = "Indeterminate"


class NotRelativeEquilibrium(VortexError, ValueError):
    """The configuration does not rotate rigidly at the given rate."""


class DegenerateForm(VortexError, ArithmeticError):
    """The symplectic form restricted to the candidate slice is singular."""


class NoTransition(VortexError, LookupError):
    """No verdict change of the requested kind occurs in the scan range."""


# ---------------------------------------------------------------------------
# tangent vectors and mode patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangentVector:
    """Perturbation in ring coordinates.

    ``d_theta``/``d_phi`` hold one entry per ring vortex (plus ring first,
    then minus ring); ``d_pole`` holds ``(x_n, y_n, x_s, y_s)`` offsets of
    the pole vortices, or ``None`` when there are no poles.
    """

    d_theta: np.ndarray
    d_phi: np.ndarray
    d_pole: np.ndarray | None = None
    name: str = ""

    def flat(self) -> np.ndarray:
        parts = [np.asarray(self.d_theta, float), np.asarray(self.d_phi, float)]
        if self.d_pole is not None:
            parts.append(np.asarray(self.d_pole, float))
        return np.concatenate(parts)

    @classmethod
    def from_flat(cls, v: np.ndarray, n: int, k_p: int, name: str = "") -> "TangentVector":
        v = np.asarray(v, float)
        if v.shape != (4 * n + 2 * k_p,):
            raise ValueError("flat vector has the wrong length")
        pole = v[4 * n :].copy() if k_p else None
        return cls(v[: 2 * n].copy(), v[2 * n : 4 * n].copy(), pole, name)


def _ring_phase(family: Family, n: int) -> float:
    """Longitude offset of the minus ring relative to the plus ring."""
    return 0.0 if family is Family.DNH_2R else math.pi / n


def _mode(
    n: int,
    k_p: int,
    component: str,
    trig,
    q: int,
    primed: bool,
    phi0: float,
    name: str,
) -> TangentVector:
    """Fourier pattern of wavenumber ``q`` on the two rings."""
    ang_plus = 2.0 * math.pi * np.arange(n) / n
    ang_minus = ang_plus + phi0
    v_plus = trig(q * ang_plus)
    v_minus = trig(q * ang_minus) * (-1.0 if primed else 1.0)
    zeros = np.zeros(2 * n)
    stacked = np.concatenate([v_plus, v_minus])
    pole = np.zeros(4) if k_p else None
    if component == "theta":
        return TangentVector(stacked, zeros, pole, name)
    return TangentVector(zeros, stacked, pole, name)


def _pole_mode(n: int, component: str, primed: bool, name: str) -> TangentVector:
    pole = np.zeros(4)
    sign = -1.0 if primed else 1.0
    if component == "x":
        pole[0], pole[2] = 1.0, sign
    else:
        pole[1], pole[3] = 1.0, sign
    zeros = np.zeros(2 * n)
    return TangentVector(zeros, zeros.copy(), pole, name)


def _combine(n: int, k_p: int, name: str, *terms: tuple[float, TangentVector]) -> TangentVector:
    flat = np.zeros(4 * n + 2 * k_p)
    for coeff, vec in terms:
        flat += coeff * vec.flat()
    return TangentVector.from_flat(flat, n, k_p, name)


# ---------------------------------------------------------------------------
# descriptor plumbing
# ---------------------------------------------------------------------------


def _analysis_descriptor(desc: FamilyDescriptor) -> FamilyDescriptor:
    """Map a descriptor onto the two-ring family the closed forms cover."""
    desc.validate()
    if desc.family is Family.EQUATORIAL_PM_RING:
        return FamilyDescriptor(
            Family.DND_RRP, n_per_ring=desc.n_per_ring, theta0=math.pi / 2, k_p=0
        )
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
# closed-form Hessian of the augmented energy
# ---------------------------------------------------------------------------


def hessian_closed_form(desc: FamilyDescriptor, xi_z: float | None = None) -> np.ndarray:
    """Second derivative of the rotating-frame energy in ring coordinates.

    Coordinate order: plus-ring colatitudes, minus-ring colatitudes,
    plus-ring longitudes, minus-ring longitudes, then (with poles)
    ``x_n, y_n, x_s, y_s``.  The rotation rate defaults to the family's
    own rigid rate.
    """
    desc = _analysis_descriptor(desc)
    n, kp = desc.n_per_ring, desc.k_p
    lam = desc.lambda_n if kp else 0.0
    u = math.cos(desc.theta0)
    s = math.sin(desc.theta0)
    one_m_u2 = 1.0 - u * u
    xi = ring_angular_velocity(desc) if xi_z is None else float(xi_z)
    phi0 = _ring_phase(desc.family, n)

    m = np.arange(n)
    rel = 2.0 * math.pi * m / n
    relx = rel + phi0
    crel = np.cos(rel)
    cx = np.cos(relx)
    sx = np.sin(relx)
    dx = 1.0 + u * u - one_m_u2 * cx
    dx2 = dx * dx

    same = 1.0 - crel[1:]  # 1 - cos of the nonzero same-ring angles

    diag_t = (
        np.sum(crel[1:] / same) / one_m_u2
        - np.sum((-2.0 * u * u + one_m_u2 * cx - one_m_u2 * cx * cx) / dx2)
        - xi * u
    )
    if kp:
        diag_t += -2.0 * u * lam / one_m_u2

    off_t = np.zeros(n)
    off_t[1:] = -1.0 / (one_m_u2 * same)
    cross_t = (one_m_u2 - (1.0 + u * u) * cx) / dx2

    diag_p = -np.sum(1.0 / same) + one_m_u2 * np.sum(cross_t)
    off_p = np.zeros(n)
    off_p[1:] = 1.0 / same
    cross_p = -one_m_u2 * cross_t

    cross_tp = 2.0 * u * s * sx / dx2

    d = 4 * n + 2 * kp
    h = np.zeros((d, d))
    idx = np.arange(n)
    gap = (idx[None, :] - idx[:, None]) % n  # (j - i) mod n

    t_plus = slice(0, n)
    t_minus = slice(n, 2 * n)
    f_plus = slice(2 * n, 3 * n)
    f_minus = slice(3 * n, 4 * n)

    same_t = np.where(gap == 0, diag_t, off_t[gap])
    same_p = np.where(gap == 0, diag_p, off_p[gap])
    h[t_plus, t_plus] = same_t
    h[t_minus, t_minus] = same_t
    h[f_plus, f_plus] = same_p
    h[f_minus, f_minus] = same_p

    h[t_plus, t_minus] = cross_t[gap]
    h[t_minus, t_plus] = cross_t[gap].T
    h[f_plus, f_minus] = cross_p[gap]
    h[f_minus, f_plus] = cross_p[gap].T

    # colatitude of one ring against longitude of the other ring; the
    # prefactor carries the cosine of the row vortex's own colatitude,
    # which is -u on the lower ring
    h[t_plus, f_minus] = -cross_tp[gap]
    h[f_minus, t_plus] = -cross_tp[gap].T
    h[t_minus, f_plus] = -cross_tp[gap].T
    h[f_plus, t_minus] = -cross_tp[gap]

    if kp:
        ang_plus = 2.0 * math.pi * idx / n
        ang_minus = ang_plus + phi0
        cp, sp = np.cos(ang_plus), np.sin(ang_plus)
        cm, sm = np.cos(ang_minus), np.sin(ang_minus)
        p_xn, p_yn, p_xs, p_ys = 4 * n, 4 * n + 1, 4 * n + 2, 4 * n + 3
        near, far = 1.0 - u, 1.0 + u

        cols = {
            p_xn: (cp / near, -cm / far, s * sp / near, -s * sm / far),
            p_xs: (cp / far, -cm / near, -s * sp / far, s * sm / near),
            p_yn: (sp / near, -sm / far, -s * cp / near, s * cm / far),
            p_ys: (sp / far, -sm / near, s * cp / far, -s * cm / near),
        }
        for col, (tp_, tm_, fp_, fm_) in cols.items():
            h[t_plus, col] = tp_
            h[t_minus, col] = tm_
            h[f_plus, col] = fp_
            h[f_minus, col] = fm_
            h[col, t_plus] = tp_
            h[col, t_minus] = tm_
            h[col, f_plus] = fp_
            h[col, f_minus] = fm_

        sc_p, ss_p = np.sum(cp * cp), np.sum(sp * sp)
        sc_m, ss_m = np.sum(cm * cm), np.sum(sm * sm)
        base = 0.5 - xi
        swirl = 2.0 * n * u / one_m_u2
        h[p_xn, p_xn] = base + swirl - (far**2 * sc_p - near**2 * sc_m) / one_m_u2
        h[p_yn, p_yn] = base + swirl - (far**2 * ss_p - near**2 * ss_m) / one_m_u2
        h[p_xs, p_xs] = base + swirl + (near**2 * sc_p - far**2 * sc_m) / one_m_u2
        h[p_ys, p_ys] = base + swirl + (near**2 * ss_p - far**2 * ss_m) / one_m_u2
        h[p_xn, p_xs] = h[p_xs, p_xn] = 0.5
        h[p_yn, p_ys] = h[p_ys, p_yn] = 0.5

    # the circulant generators evaluate cos(2 pi k / n) and its mirror
    # cos(2 pi (n - k) / n) independently, which can differ by one ulp;
    # averaging restores exact symmetry
    return 0.5 * (h + h.T)


def full_symplectic_form(desc: FamilyDescriptor) -> np.ndarray:
    """Symplectic form in the same ring coordinates as the Hessian."""
    desc = _analysis_descriptor(desc)
    n, kp = desc.n_per_ring, desc.k_p
    s = math.sin(desc.theta0)
    d = 4 * n + 2 * kp
    omega = np.zeros((d, d))
    for i in range(n):
        omega[i, 2 * n + i] = s  # plus ring, strength +1
        omega[n + i, 3 * n + i] = -s  # minus ring, strength -1
    if kp:
        # lambda_p / z_p = (+1)/(+1) at the north pole, (-1)/(-1) at the south
        omega[4 * n, 4 * n + 1] = 1.0
        omega[4 * n + 2, 4 * n + 3] = 1.0
    return omega - omega.T


# ---------------------------------------------------------------------------
# slice bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceBasis:
    """Ordered mode basis of a slice, grouped into decoupling blocks."""

    vectors: tuple[TangentVector, ...]
    labels: tuple[str, ...]
    matrix: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if len(self.vectors) != len(self.labels):
            raise ValueError("one label per vector is required")
        mat = np.column_stack([v.flat() for v in self.vectors])
        object.__setattr__(self, "matrix", mat)

    def __len__(self) -> int:
        return len(self.vectors)


def _orbit_generators(desc: FamilyDescriptor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation generators about x, y, z in ring coordinates."""
    n, kp = desc.n_per_ring, desc.k_p
    phi0 = _ring_phase(desc.family, n)
    u = math.cos(desc.theta0)
    s = math.sin(desc.theta0)
    cot = u / s

    def mode(component, trig, q, primed, name):
        return _mode(n, kp, component, trig, q, primed, phi0, name)

    gz = mode("phi", np.cos, 0, False, "gz").flat()
    gy = _combine(
        n,
        kp,
        "gy",
        (1.0, mode("theta", np.cos, 1, False, "")),
        (-cot, mode("phi", np.sin, 1, True, "")),
        *( ((1.0, _pole_mode(n, "x", True, "")),) if kp else () ),
    ).flat()
    gx = _combine(
        n,
        kp,
        "gx",
        (1.0, mode("theta", np.sin, 1, False, "")),
        (cot, mode("phi", np.cos, 1, True, "")),
        *( ((1.0, _pole_mode(n, "y", True, "")),) if kp else () ),
    ).flat()
    return gx, gy, gz


def _reduce_against(
    candidates: list[TangentVector],
    generators: list[np.ndarray],
    n: int,
    kp: int,
    label: str,
) -> list[TangentVector]:
    """Drop the orbit directions from the span of ``candidates``."""
    if not candidates:
        return []
    basis = []
    for g in generators:
        gn = g / np.linalg.norm(g)
        for b in basis:
            gn = gn - (b @ gn) * b
        norm = np.linalg.norm(gn)
        if norm > 1e-12:
            basis.append(gn / norm)
    stack = np.column_stack([v.flat() for v in candidates])
    for b in basis:
        stack = stack - np.outer(b, b @ stack)
    u_mat, sing, _ = np.linalg.svd(stack, full_matrices=False)
    keep = sing > 1e-8 * max(sing[0], 1.0)
    out = []
    for k, col in enumerate(u_mat.T[keep]):
        out.append(TangentVector.from_flat(col, n, kp, f"{label}-reduced{k + 1}"))
    return out


def slice_basis(desc: FamilyDescriptor) -> SliceBasis:
    """Fourier-mode basis of the slice, grouped into decoupling blocks.

    Every vector is annihilated by the linearized momentum map and is
    orthogonal to the rotation orbit; when the vertical momentum vanishes
    the rotation orbit is three-dimensional and the affected mode pairs
    are reduced accordingly.
    """
    desc = _analysis_descriptor(desc)
    n, kp = desc.n_per_ring, desc.k_p
    u = math.cos(desc.theta0)
    s = math.sin(desc.theta0)
    phi0 = _ring_phase(desc.family, n)
    staggered = desc.family is Family.DND_RRP
    reduced = abs(_vertical_momentum(desc)) < MOMENTUM_ZERO_TOL

    def mode(component, trig, q, primed, name):
        return _mode(n, kp, component, trig, q, primed, phi0, name)

    def pole(component, primed, name):
        return _pole_mode(n, component, primed, name)

    a0t = mode("theta", np.cos, 0, False, "a0.theta")
    ap0f = mode("phi", np.cos, 0, True, "a'0.phi")

    vectors: list[TangentVector] = []
    labels: list[str] = []

    def push(vecs, label):
        vectors.extend(vecs)
        labels.extend([label] * len(vecs))

    # -- wavenumbers 0 and 1 -------------------------------------------------
    if kp == 0:
        if n == 2:
            push([a0t, ap0f], "B0")
            if staggered:
                if not reduced:
                    m1 = _combine(
                        n, kp, "mix1",
                        (s, mode("theta", np.cos, 1, False, "")),
                        (u, mode("phi", np.sin, 1, True, "")),
                    )
                    m2 = _combine(
                        n, kp, "mix2",
                        (s, mode("theta", np.sin, 1, True, "")),
                        (u, mode("phi", np.cos, 1, False, "")),
                    )
                    push([m1, m2], "B1")
            else:
                push(
                    [
                        mode("theta", np.cos, 1, True, "a'1.theta"),
                        mode("phi", np.cos, 1, False, "a1.phi"),
                    ],
                    "B1",
                )
        else:
            push(
                [
                    a0t,
                    ap0f,
                    mode("phi", np.sin, 1, False, "b1.phi"),
                    mode("theta", np.cos, 1, True, "a'1.theta"),
                    mode("phi", np.cos, 1, False, "a1.phi"),
                    mode("theta", np.sin, 1, True, "b'1.theta"),
                ],
                "B0",
            )
            w1 = _combine(
                n, kp, "w1",
                (s, mode("theta", np.cos, 1, False, "")),
                (u, mode("phi", np.sin, 1, True, "")),
            )
            w2 = _combine(
                n, kp, "w2",
                (s, mode("theta", np.sin, 1, False, "")),
                (-u, mode("phi", np.cos, 1, True, "")),
            )
            if reduced:
                gx, gy, _ = _orbit_generators(desc)
                push(_reduce_against([w1, w2], [gx, gy], n, kp, "B1"), "B1")
            else:
                push([w1, w2], "B1")
    else:
        dxp = pole("x", False, "dx.pole")
        dyp = pole("y", False, "dy.pole")
        dxpp = pole("x", True, "dx'.pole")
        dypp = pole("y", True, "dy'.pole")
        if n == 2:
            if staggered:
                push([a0t, ap0f], "B0p")
                cand = [
                    _combine(
                        n, kp, "mix1",
                        (s, mode("theta", np.cos, 1, False, "")),
                        (u, mode("phi", np.sin, 1, True, "")),
                    ),
                    _combine(
                        n, kp, "mix2",
                        (s, mode("theta", np.sin, 1, True, "")),
                        (u, mode("phi", np.cos, 1, False, "")),
                    ),
                    dxp,
                    dyp,
                    _combine(
                        n, kp, "v3",
                        (1.0, mode("theta", np.cos, 1, False, "")),
                        (-u, dxpp),
                    ),
                    _combine(
                        n, kp, "v4",
                        (1.0, mode("theta", np.sin, 1, False, "")),
                        (-u, dypp),
                    ),
                ]
                if reduced:
                    gx, gy, _ = _orbit_generators(desc)
                    push(_reduce_against(cand, [gx, gy], n, kp, "B1p"), "B1p")
                else:
                    push(cand, "B1p")
            else:
                push(
                    [
                        a0t,
                        ap0f,
                        mode("theta", np.cos, 1, True, "a'1.theta"),
                        dxp,
                        mode("phi", np.cos, 1, False, "a1.phi"),
                        dyp,
                    ],
                    "B0p",
                )
                cand = [
                    _combine(
                        n, kp, "v3",
                        (1.0, mode("theta", np.cos, 1, False, "")),
                        (-2.0 * u, dxpp),
                    ),
                    _combine(
                        n, kp, "v4",
                        (1.0, mode("phi", np.cos, 1, True, "")),
                        (-2.0 * s, dypp),
                    ),
                ]
                if reduced:
                    gx, gy, _ = _orbit_generators(desc)
                    push(_reduce_against(cand, [gx, gy], n, kp, "B1p"), "B1p")
                else:
                    push(cand, "B1p")
        else:
            push(
                [
                    a0t,
                    ap0f,
                    mode("phi", np.sin, 1, False, "b1.phi"),
                    mode("theta", np.cos, 1, True, "a'1.theta"),
                    dxp,
                    mode("phi", np.cos, 1, False, "a1.phi"),
                    mode("theta", np.sin, 1, True, "b'1.theta"),
                    dyp,
                ],
                "B0p",
            )
            w1 = _combine(
                n, kp, "w1",
                (s, mode("theta", np.cos, 1, False, "")),
                (u, mode("phi", np.sin, 1, True, "")),
            )
            w2 = _combine(
                n, kp, "w2",
                (s, mode("theta", np.sin, 1, False, "")),
                (-u, mode("phi", np.cos, 1, True, "")),
            )
            v3 = _combine(
                n, kp, "v3",
                (1.0, mode("theta", np.cos, 1, False, "")),
                (-0.5 * n * u, dxpp),
            )
            v4 = _combine(
                n, kp, "v4",
                (1.0, mode("theta", np.sin, 1, False, "")),
                (-0.5 * n * u, dypp),
            )
            if reduced:
                gx, gy, _ = _orbit_generators(desc)
                push(_reduce_against([w1, v3, w2, v4], [gx, gy], n, kp, "B1p"), "B1p")
            else:
                push([w1, w2, v3, v4], "B1p")

    # -- intermediate wavenumbers --------------------------------------------
    if n >= 3:
        for q in range(2, (n + 1) // 2):
            push(
                [
                    mode("theta", np.cos, q, False, f"a{q}.theta"),
                    mode("phi", np.sin, q, True, f"b'{q}.phi"),
                    mode("theta", np.sin, q, False, f"b{q}.theta"),
                    mode("phi", np.cos, q, True, f"a'{q}.phi"),
                    mode("theta", np.cos, q, True, f"a'{q}.theta"),
                    mode("phi", np.sin, q, False, f"b{q}.phi"),
                    mode("theta", np.sin, q, True, f"b'{q}.theta"),
                    mode("phi", np.cos, q, False, f"a{q}.phi"),
                ],
                f"B{q}",
            )

    # -- top wavenumber (even ring size only) ---------------------------------
    if n >= 3 and n % 2 == 0:
        q = n // 2
        if staggered:
            push(
                [
                    mode("theta", np.cos, q, True, f"a'{q}.theta"),
                    mode("phi", np.sin, q, False, f"b{q}.phi"),
                    mode("theta", np.sin, q, True, f"b'{q}.theta"),
                    mode("phi", np.cos, q, False, f"a{q}.phi"),
                ],
                "Bhalf",
            )
        else:
            push(
                [
                    mode("theta", np.cos, q, False, f"a{q}.theta"),
                    mode("theta", np.cos, q, True, f"a'{q}.theta"),
                    mode("phi", np.cos, q, False, f"a{q}.phi"),
                    mode("phi", np.cos, q, True, f"a'{q}.phi"),
                ],
                "Bhalf",
            )

    expected = 4 * n + 2 * kp - (6 if reduced else 4)
    if len(vectors) != expected:
        raise RuntimeError(
            f"slice dimension bookkeeping is off: built {len(vectors)}, "
            f"expected {expected}"
        )
    return SliceBasis(tuple(vectors), tuple(labels))


def slice_symplectic_form(
    desc: FamilyDescriptor, basis: SliceBasis | None = None
) -> np.ndarray:
    """Symplectic form restricted to the slice basis.

    Raises :class:`DegenerateForm` if the restriction is singular, which
    would invalidate the reduced linearization.
    """
    desc_a = _analysis_descriptor(desc)
    if basis is None:
        basis = slice_basis(desc_a)
    omega = full_symplectic_form(desc_a)
    b = basis.matrix
    omega_b = b.T @ omega @ b
    # the congruence is antisymmetric in exact arithmetic; averaging
    # removes the one-ulp rounding skew of the two matrix products
    omega_b = 0.5 * (omega_b - omega_b.T)
    sing = np.linalg.svd(omega_b, compute_uv=False)
    if sing.size and sing[-1] < 1e-12 * max(sing[0], 1.0):
        raise DegenerateForm(
            "the symplectic form restricted to the slice is singular"
        )
    return omega_b


# ---------------------------------------------------------------------------
# deciding scalars (independent closed forms, ring size >= 3)
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


def deciding_scalars_ab(desc: FamilyDescriptor, q: int | None = None) -> tuple[float, float]:
    """Diagonal energies of the wavenumber-``q`` counter-phased pair.

    Returns ``(a, b)`` for the colatitude and longitude patterns whose
    product decides the block; ``q`` defaults to the top wavenumber.
    """
    desc = _analysis_descriptor(desc)
    n = desc.n_per_ring
    if n < 3:
        raise InvalidDescriptor("the mode-pair scalars need ring size >= 3")
    if q is None:
        q = n // 2
    if not (2 <= q <= n // 2):
        raise InvalidDescriptor("wavenumber must lie between 2 and n/2")
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
        payload = {
            "descriptor": None,
            "label": self.label,
            "mu_z": float(self.mu_z),
            "xi_z": float(self.xi_z),
            "verdict": self.verdict.value,
            "deciding_block": self.deciding_block,
            "blocks": [b.as_dict() for b in self.blocks],
        }
        if self.descriptor is not None:
            payload["descriptor"] = {
                "family": self.descriptor.family.value,
                "N": self.descriptor.n_per_ring,
                "theta0": self.descriptor.theta0,
                "kp": self.descriptor.k_p,
                "lambda_n": self.descriptor.lambda_n,
            }
        return payload

    def to_json(self, indent: int | None = None) -> str:
        import json

        return json.dumps(self.as_dict(), indent=indent)


def _sort_complex(eigs: np.ndarray) -> np.ndarray:
    eigs = np.asarray(eigs, complex)
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


def _decide(
    h_eigs: np.ndarray,
    l_eigs: np.ndarray,
    def_tol: float = DEFINITENESS_TOL,
    spec_tol: float = SPECTRAL_TOL,
) -> Verdict:
    lo = float(h_eigs.min())
    hi = float(h_eigs.max())
    if lo > def_tol or hi < -def_tol:
        return Verdict.LYAPUNOV_STABLE
    growth = float(np.max(np.abs(l_eigs.real))) if l_eigs.size else 0.0
    if growth > spec_tol:
        return Verdict.LINEARLY_UNSTABLE
    if lo < -def_tol and hi > def_tol:
        return Verdict.LINEARLY_STABLE
    return Verdict.INDETERMINATE


def _block_entries(label: str, names, hb: np.ndarray, l_eigs: np.ndarray, staggered: bool) -> dict:
    entries: dict[str, float] = {}
    dim = hb.shape[0]
    if label in ("B0", "B0p") and dim >= 2:
        # slice vector 0 is the uniform colatitude shift (the crossing
        # scalar s), vector 1 the ring counter-rotation (r, positive)
        entries["r"] = hb[1, 1]
        entries["s"] = hb[0, 0]
    elif label in ("B1", "B1p"):
        freqs = sorted(set(round(abs(x.imag), 12) for x in l_eigs))
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


def analyze(
    desc: FamilyDescriptor,
    def_tol: float = DEFINITENESS_TOL,
    spec_tol: float = SPECTRAL_TOL,
) -> StabilityReport:
    """Closed-form slice stability analysis of a ring-family member."""
    original = desc
    original.validate()
    desc = _analysis_descriptor(desc)
    staggered = desc.family is Family.DND_RRP
    xi = ring_angular_velocity(desc)
    mu = _vertical_momentum(desc)

    h_full = hessian_closed_form(desc, xi)
    basis = slice_basis(desc)
    b = basis.matrix
    hb = b.T @ h_full @ b
    hb = 0.5 * (hb + hb.T)
    omega_b = slice_symplectic_form(desc, basis)

    blocks = []
    for label, sl in _block_slices(basis.labels):
        h_blk = hb[sl, sl]
        l_blk = -np.linalg.solve(omega_b[sl, sl], h_blk)
        h_eigs = np.linalg.eigvalsh(h_blk)
        l_eigs = _sort_complex(np.linalg.eigvals(l_blk))
        names = [v.name for v in basis.vectors[sl]]
        blocks.append(
            BlockSpectrum(
                label,
                h_eigs,
                l_eigs,
                _block_entries(label, names, h_blk, l_eigs, staggered),
            )
        )

    # The blocks are symplectically orthogonal and do not couple in the
    # Hessian, so the slice spectrum is the union of the block spectra.
    h_eigs = np.concatenate([blk.hessian_eigenvalues for blk in blocks])
    l_eigs = np.concatenate([blk.linearization_eigenvalues for blk in blocks])
    verdict = _decide(h_eigs, l_eigs, def_tol, spec_tol)

    if verdict is Verdict.LINEARLY_UNSTABLE:
        deciding = max(
            blocks, key=lambda blk: np.max(np.abs(blk.linearization_eigenvalues.real))
        ).label
    else:
        deciding = min(
            blocks, key=lambda blk: np.min(np.abs(blk.hessian_eigenvalues))
        ).label

    return StabilityReport(
        descriptor=original,
        label=original.label,
        mu_z=mu,
        xi_z=xi,
        blocks=tuple(blocks),
        verdict=verdict,
        deciding_block=deciding,
    )


# ---------------------------------------------------------------------------
# numeric route: arbitrary configurations
# ---------------------------------------------------------------------------


def _rigid_rotation_rate(config: Configuration) -> float:
    """Rotation rate of ``config``, or NotRelativeEquilibrium.

    A configuration whose per-vortex rates disagree does not rotate
    rigidly about z and therefore cannot be a relative equilibrium of
    this kind; surface that as the dedicated error type rather than the
    generic one the rate helper raises.
    """
    try:
        return configuration_angular_velocity(config)
    except PoleSingularity:
        raise
    except VortexError as exc:
        raise NotRelativeEquilibrium(str(exc)) from exc


def analyze_small(
    config: Configuration,
    xi_z: float | None = None,
    label: str = "custom",
    def_tol: float = DEFINITENESS_TOL,
    spec_tol: float = SPECTRAL_TOL,
    residual_tol: float = 1e-6,
) -> StabilityReport:
    """Numeric slice stability analysis of an explicit configuration.

    The Hessian comes from finite differences of the analytic gradient;
    the slice is the numeric null space of the linearized momentum map
    with the rotation-orbit directions removed.
    """
    xi = _rigid_rotation_rate(config) if xi_z is None else float(xi_z)
    residual = re_residual(config, xi)
    if residual > residual_tol:
        raise NotRelativeEquilibrium(
            f"co-rotating field residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    chart = MixedChart(config)
    q = chart.coords()
    h = chart.hessian_fd(q, xi)
    omega = chart.symplectic_matrix(q)
    dphi = chart.momentum_rows(q)
    gens = chart.rotation_generators(q, np.eye(3))
    rows = [dphi]
    for g in gens:
        if np.linalg.norm(dphi @ g) <= 1e-8 * (1.0 + np.linalg.norm(g)):
            rows.append(g[None, :])
    slice_mat = null_space(np.vstack(rows))
    if slice_mat.shape[1] == 0:
        raise DegenerateForm("the slice is zero-dimensional")
    hs = slice_mat.T @ h @ slice_mat
    hs = 0.5 * (hs + hs.T)
    omega_s = slice_mat.T @ omega @ slice_mat
    sing = np.linalg.svd(omega_s, compute_uv=False)
    if sing[-1] < 1e-10 * max(sing[0], 1.0):
        raise DegenerateForm("the symplectic form restricted to the slice is singular")
    lin = -np.linalg.solve(omega_s, hs)
    h_eigs = np.linalg.eigvalsh(hs)
    l_eigs = _sort_complex(np.linalg.eigvals(lin))
    verdict = _decide(h_eigs, l_eigs, def_tol, spec_tol)
    block = BlockSpectrum("slice", h_eigs, l_eigs, {})
    mu = momentum_map(config)
    return StabilityReport(
        descriptor=None,
        label=label,
        mu_z=float(mu[2]),
        xi_z=xi,
        blocks=(block,),
        verdict=verdict,
        deciding_block="slice",
    )


def full_linearization_oracle(
    config: Configuration, xi_z: float | None = None, step: float = 1e-3
) -> np.ndarray:
    """Eigenvalues of the full co-rotating linearization (no slicing).

    The Jacobian of the co-rotating chart field is built with fourth-order
    central differences.  Relative to a slice analysis the spectrum gains
    the orbit/momentum modes: two zeros and a conjugate pair at the
    rotation rate when the momentum is vertical and nonzero, six zeros
    when it vanishes.
    """
    xi = _rigid_rotation_rate(config) if xi_z is None else float(xi_z)
    chart = MixedChart(config)
    q0 = chart.coords()
    d = q0.size
    jac = np.zeros((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        f_m2 = chart.corotating_field(q0 - 2 * e, xi)
        f_m1 = chart.corotating_field(q0 - e, xi)
        f_p1 = chart.corotating_field(q0 + e, xi)
        f_p2 = chart.corotating_field(q0 + 2 * e, xi)
        jac[:, k] = (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * step)
    eigs, _ = dense_eig(jac)
    return _sort_complex(eigs)


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
# verdict transitions along a family
# ---------------------------------------------------------------------------


def _resolve_family(family: Family | str) -> Family:
    if isinstance(family, Family):
        fam = family
    else:
        aliases = {"DNd": Family.DND_RRP, "DNh": Family.DNH_2R}
        fam = aliases.get(family)
        if fam is None:
            try:
                fam = Family(family)
            except ValueError as exc:
                raise InvalidDescriptor(f"unknown family name {family!r}") from exc
    if fam not in (Family.DNH_2R, Family.DND_RRP):
        raise InvalidDescriptor("latitude scans cover the two-ring families")
    return fam


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


def _classify(before: Verdict, after: Verdict) -> str | None:
    lyap = Verdict.LYAPUNOV_STABLE
    if before is not lyap and after is lyap:
        return "StabilityGain"
    if before is lyap and after is not lyap:
        return "StabilityLoss"
    if before is Verdict.LINEARLY_UNSTABLE and after is Verdict.LINEARLY_STABLE:
        return "HopfLower"
    if before is Verdict.LINEARLY_STABLE and after is Verdict.LINEARLY_UNSTABLE:
        return "HopfUpper"
    return None


def _refine_chain(
    verdict_at,
    lo: float,
    v_lo: Verdict,
    hi: float,
    v_hi: Verdict,
    min_width: float,
) -> list[tuple[float, Verdict]]:
    """Sample between two resolvable latitudes until every adjacent pair
    of samples either agrees or spans less than ``min_width``.

    Catches verdict windows narrower than the outer scan grid: each real
    boundary inside the interval costs ~log2(span/min_width) evaluations,
    while agreeing subintervals stop immediately.
    """
    if v_lo is v_hi or hi - lo <= min_width:
        return [(lo, v_lo), (hi, v_hi)]
    mid = 0.5 * (lo + hi)
    vm = verdict_at(mid)
    if vm is None:
        return [(lo, v_lo), (hi, v_hi)]
    left = _refine_chain(verdict_at, lo, v_lo, mid, vm, min_width)
    right = _refine_chain(verdict_at, mid, vm, hi, v_hi, min_width)
    return left + right[1:]


def list_transitions(
    family: Family | str,
    n_per_ring: int,
    k_p: int,
    grid_step: float = 0.005,
    tol: float = 1e-6,
) -> tuple[tuple[str, float], ...]:
    """All verdict changes along the latitude, refined by bisection.

    Returns ``(kind, theta_star)`` pairs in increasing latitude order,
    with ``kind`` one of :data:`TRANSITIONS`.  Latitudes whose verdict is
    :attr:`Verdict.INDETERMINATE` (definiteness margin below tolerance at
    double precision) are treated as non-informative: changes are measured
    between the nearest resolvable neighbours instead, so an unresolvable
    plateau contributes no transitions of its own.  Raises
    :class:`InvalidDescriptor` unless ``grid_step`` and ``tol`` are
    positive and finite.
    """
    fam = _resolve_family(family)
    if not (0.0 < grid_step < math.inf and 0.0 < tol < math.inf):
        raise InvalidDescriptor("grid_step and tol must be positive and finite")

    cache: dict[float, Verdict | None] = {}

    def verdict_at(theta: float) -> Verdict | None:
        key = round(theta, 12)
        if key not in cache:
            try:
                desc = FamilyDescriptor(fam, n_per_ring=n_per_ring, theta0=theta, k_p=k_p)
                v = analyze(desc).verdict
            except VortexError:
                v = None
            cache[key] = None if v is Verdict.INDETERMINATE else v
        return cache[key]

    pts = _scan_points(fam, k_p, grid_step)
    min_width = max(4.0 * tol, 1e-9)

    # Resolvable grid samples only; indeterminate or invalid points are
    # skipped without breaking adjacency.
    samples = [(t, v) for t in pts if (v := verdict_at(t)) is not None]

    found: list[tuple[str, float]] = []
    for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
        if v0 is v1:
            continue
        chain = _refine_chain(verdict_at, t0, v0, t1, v1, min_width)
        for (lo, a), (hi, b) in zip(chain, chain[1:]):
            if a is b:
                continue
            kind = _classify(a, b)
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                vm = verdict_at(mid)
                if vm is a:
                    lo = mid
                else:
                    hi = mid
            if kind is not None:
                found.append((kind, 0.5 * (lo + hi)))
    return tuple(found)


def critical_latitude(
    family: Family | str,
    n_per_ring: int,
    k_p: int,
    transition: str,
    occurrence: int = 0,
    grid_step: float = 0.005,
    tol: float = 1e-6,
) -> float:
    """Latitude of the ``occurrence``-th verdict change of the given kind.

    Raises :class:`NoTransition` when the family shows no such change.
    """
    found = list_transitions(family, n_per_ring, k_p, grid_step, tol)
    return _pick_transition(found, transition, occurrence)


def _pick_transition(
    found: tuple[tuple[str, float], ...], transition: str, occurrence: int
) -> float:
    """The ``occurrence``-th latitude of kind ``transition`` in ``found``."""
    if transition not in TRANSITIONS:
        raise InvalidDescriptor(
            f"transition must be one of {', '.join(TRANSITIONS)}"
        )
    matches = [theta for kind, theta in found if kind == transition]
    if occurrence >= len(matches):
        raise NoTransition(
            f"no {transition} transition (occurrence {occurrence}) for this family"
        )
    return matches[occurrence]


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
