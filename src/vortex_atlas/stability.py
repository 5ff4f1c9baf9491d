"""Linear and Lyapunov stability of ring relative equilibria.

The configurations analyzed here rotate rigidly about the vertical axis.
Stability is decided on a *slice*: a complement of the rotation-orbit
direction inside the kernel of the linearized momentum map.  For the
symmetric two-ring families the ring perturbations split into discrete
Fourier patterns by wavenumber q = 0..N/2 and by parity class (whether
the two rings' colatitudes move together or against each other).  The
momentum map and the rotation generators act only on wavenumber 0 of
class 1 and wavenumber 1 of class 0; :func:`slice_basis` replaces those
sectors by the kernels of their constraint blocks and keeps every other
pattern as it is.  Both the energy Hessian and the symplectic form
block-diagonalize over the resulting groups, so each block can be
examined independently and in closed form.

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
# descriptor plumbing
# ---------------------------------------------------------------------------


def _ring_phase(family: Family, n: int) -> float:
    """Longitude offset of the minus ring relative to the plus ring."""
    return 0.0 if family is Family.DNH_2R else math.pi / n


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
_POLE_ROWS = np.array(  # dPhi_x, dPhi_y, dPhi_z, g_z, g_x, g_y
    [[1, 0, -1, 0], [0, 1, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [0, -1, 0, 1], [1, 0, -1, 0]],
    float,
)


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
                if abs(row[j]) > best:
                    best, bi, bj = abs(row[j]), i, j
        if bi < 0:
            break
        pivot = block.pop(bi)
        pivot = [x / pivot[bj] for x in pivot]
        for row in block + [r for _, r in pivots]:
            f = row[bj]
            if f:
                row[:] = [x - f * y for x, y in zip(row, pivot)]
        pivots.append((bj, pivot))
        free.remove(bj)
    out = []
    for f in free:
        vec = [1.0 if k == f else 0.0 for k in range(width)]
        for j, row in pivots:
            vec[j] = -row[f]
        norm = math.sqrt(sum(x * x for x in vec))
        out.append([x / norm for x in vec])
    return out


def slice_basis(desc: FamilyDescriptor) -> SliceBasis:
    """Fourier-pattern basis of the slice, grouped into decoupling blocks.

    The patterns of wavenumber q = 0..N/2 in two parity classes span the
    ring coordinates.  A sector (one class at one wavenumber) that the
    momentum differential and the rotation generators leave alone enters
    unchanged; a sector they touch is replaced by the kernel of its
    constraint block.  The generators about x and y join the constraints
    when the vertical momentum vanishes and the rotation orbit grows.
    """
    desc = _analysis_descriptor(desc)
    n, kp = desc.n_per_ring, desc.k_p
    u, s = math.cos(desc.theta0), math.sin(desc.theta0)
    staggered = desc.family is Family.DND_RRP
    reduced = abs(_vertical_momentum(desc)) < MOMENTUM_ZERO_TOL
    top, d = n // 2, 4 * n + 2 * kp
    n_ring = 8 * (top + 1)  # rows of the ring patterns in the pattern table

    # pattern table: row 8q + key index for the ring patterns, then the
    # pole modes; plus-ring vortices first, then minus-ring
    ang = 2.0 * math.pi * np.arange(n) / n
    ang = np.concatenate([ang, ang + _ring_phase(desc.family, n)])
    arg = np.arange(top + 1.0)[:, None] * ang
    cos, sin = np.cos(arg), np.sin(arg)
    signed = np.empty((top + 1, 2, 2, 2 * n))  # (q, cos|sin, primed, vortex)
    signed[:, 0] = cos[:, None]
    signed[:, 1] = sin[:, None]
    signed[:, :, 1, n:] *= -1.0
    pat = np.zeros((n_ring + 2 * kp, d))
    ring = pat[:n_ring].reshape(top + 1, 2, 2, 2, d)
    ring[:, 0, :, :, : 2 * n] = signed
    ring[:, 1, :, :, 2 * n : 4 * n] = signed
    if kp:
        pat[n_ring:, 4 * n :] = _POLE_MODES

    # dPhi_x, dPhi_y, dPhi_z, the generator about z (and about x, y when the
    # momentum vanishes); primed patterns carry the ring strengths lam = +-1
    lam, lam_cos, lam_sin = signed[0, 0, 1], signed[1, 0, 1], signed[1, 1, 1]
    rows = np.zeros((6 if reduced else 4, d))
    th, ph = rows[:, : 2 * n], rows[:, 2 * n : 4 * n]
    th[0], ph[0] = u * cos[1], -s * lam_sin
    th[1], ph[1] = u * sin[1], s * lam_cos
    th[2] = -s * lam
    ph[3] = 1.0
    if reduced:
        th[4], ph[4] = -sin[1], -u / s * lam_cos
        th[5], ph[5] = cos[1], -u / s * lam_sin
    if kp:
        rows[:, 4 * n :] = _POLE_ROWS[: len(rows)]
    block = rows @ pat.T
    # unit largest entry per row, so that one tolerance serves every row
    block /= np.abs(block).max(axis=1, keepdims=True)
    tol = 1e-9
    touched = (np.abs(block).max(axis=0) > tol).tolist()
    alive = (np.abs(pat).max(axis=1) > 1e-8).tolist()

    vectors, labels = [], []
    suffix = "p" if kp else ""
    for q in range(top + 1):
        joint = staggered and 2 * q == n
        kind = "q=1" if q == 1 else "aligned top" if 2 * q == n else "generic"
        members = []  # (pattern row, sector) of the patterns that do not vanish
        for k, cls in _COLUMN_ORDER["staggered top" if joint else kind]:
            i = 8 * q + k if k < 8 else n_ring + k - 8
            if (k < 8 or (kp and q == 1)) and alive[i]:
                members.append((i, 0 if joint else cls))
        hit = sorted({sec for i, sec in members if touched[i]})
        free = [i for i, sec in members if sec not in hit]
        vectors.append(pat[free])
        n_kernel = 0
        for sec in hit:
            cols = [i for i, c in members if c == sec]
            coeffs = _kernel(block[:, cols].tolist(), tol)
            if coeffs:
                vectors.append(np.array(coeffs) @ pat[cols])
                n_kernel += len(coeffs)
        name = "B0" if q == 0 else "B1" if q == 1 else "Bhalf" if 2 * q == n else f"B{q}"
        name += suffix if q < 2 else ""
        # the untouched class at q = 1 joins B0, except for aligned pairs
        # without poles, where the constraints leave nothing of the other
        # class: there it keeps the name B1
        free_name = "B0" + suffix if q == 1 and (n_kernel or reduced) else name
        labels += [free_name] * len(free) + [name] * n_kernel

    basis = np.vstack(vectors)
    expected = d - (6 if reduced else 4)
    if len(basis) != expected:
        raise RuntimeError(f"slice has {len(basis)} vectors, expected {expected}")
    return SliceBasis(np.ascontiguousarray(basis.T), tuple(labels))


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


def _block_entries(label: str, hb: np.ndarray, l_eigs: np.ndarray, staggered: bool) -> dict:
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
        blocks.append(
            BlockSpectrum(
                label,
                h_eigs,
                l_eigs,
                _block_entries(label, h_blk, l_eigs, staggered),
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
