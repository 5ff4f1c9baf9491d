"""Hamiltonian dynamics of point vortices on the unit sphere.

The motion of ``M`` vortices with strengths ``lambda_i`` at positions
``x_i`` is

    dx_i/dt = sum_{j != i} lambda_j (x_j x x_i) / (1 - x_i . x_j),

the Hamiltonian flow of

    H = sum_{i<j} lambda_i lambda_j ln l_ij^2,   l_ij^2 = 2 (1 - x_i . x_j)

with respect to the weighted area form ``omega_x(u, v) = lambda x.(u x v)``
summed over vortices.  Rotations about any axis are symmetries; the
conserved momentum map is ``Phi = sum_i lambda_i x_i``.

This module provides:

* evaluation of ``H``, ``Phi``, the vector field, and the augmented
  Hamiltonian ``H_xi = H + xi (Phi_z - mu)`` whose critical points are the
  relative equilibria rotating at rate ``xi`` about the z-axis;
* :class:`MixedChart` — co-latitude/longitude coordinates for ring
  vortices combined with tangent-plane coordinates for pole vortices,
  with analytic gradients, the chart symplectic matrix, momentum
  differentials, rotation generators, and finite-difference Hessians;
* an adaptive Dormand-Prince 8(5,3) integrator (DOP853) with per-step
  renormalization onto the sphere, drift monitoring, near-collision abort
  and solver statistics.

The DOP853 stepper ports the step logic of SciPy's ``scipy.integrate.DOP853``
(SciPy 1.17; BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc.,
2003 SciPy Developers) operation for operation, so it takes the same
steps to the last bit, but it skips SciPy's 13th stage, the field at the
unrenormalized new state, which every weight leaves out; its table is
Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
Sec. II.10, in SciPy's digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    COLLISION_EPS,
    POLE_EPS,
    STACK_ELEMENTS,
    Configuration,
    OutOfDomain,
    PoleSingularity,
    VortexError,
    _pairwise_l2,
)

__all__ = [
    "CollisionApproach",
    "StepSizeUnderflow",
    "SolverStats",
    "Trajectory",
    "MixedChart",
    "hamiltonian",
    "hamiltonians",
    "vector_field",
    "momentum_map",
    "augmented_hamiltonian",
    "integrate",
]

# The integrator aborts (rather than grinding into a singularity) once any
# pair comes this close in chord distance.
NEAR_COLLISION_FACTOR = 10.0
# integrate holds each step to 1e-3 * tol; below this bound (2.22e-11) that
# step tolerance falls under 100 machine epsilons, finer than the rounding of
# a step's dozen stage sums, so such a tol is refused rather than chased.
MIN_INTEGRATION_TOL = 1e5 * np.finfo(float).eps
# Most steps integrate takes: over 100 times the longest trajectory of the tests
# and the benchmark (about 700); a close pair spinning at 1/chord**2 reaches it.
MAX_STEPS = 100_000


class _IntegrationStopped(VortexError, RuntimeError):
    """Integration stopped early; the trajectory so far is attached as ``.trajectory``."""

    def __init__(self, message: str, trajectory: "Trajectory") -> None:
        super().__init__(message)
        self.trajectory = trajectory


class CollisionApproach(_IntegrationStopped):
    """Integration stopped because two vortices nearly collided."""


class StepSizeUnderflow(_IntegrationStopped):
    """The adaptive step fell below the resolvable scale."""


# ---------------------------------------------------------------------------
# Energy, momentum, vector field
# ---------------------------------------------------------------------------


class _Pairs(NamedTuple):
    """Strength-dependent constants of the kernel, built once per run."""

    lam_off: np.ndarray  # (M, M): lambda_j off the diagonal, 0 on it
    eye: np.ndarray  # (M, M) identity: keeps the diagonal denominators at 1
    iu: tuple[np.ndarray, np.ndarray]  # indices of the pairs i < j
    weights: np.ndarray  # lambda_i lambda_j for each pair i < j


def _pair_constants(lam: np.ndarray) -> _Pairs:
    m = lam.shape[0]
    eye, iu = np.eye(m), np.triu_indices(m, k=1)
    return _Pairs(
        lam_off=np.where(eye == 0.0, lam[None, :], 0.0),
        eye=eye,
        iu=iu,
        weights=(lam[:, None] * lam[None, :])[iu],
    )


def _energy(pair_l2: np.ndarray, pairs: _Pairs) -> float | np.ndarray:
    """``H`` from the squared chords of the pairs ``i < j``: a float from
    ``(n_pairs,)``, or ``(K,)`` from a stack ``(K, n_pairs)``."""
    energy = np.sum(pairs.weights * np.log(pair_l2), axis=-1)
    return float(energy) if energy.ndim == 0 else energy


def _min_chord(pair_l2: np.ndarray) -> float:
    """Smallest chord distance among the pairs; ``inf`` when there are none."""
    return math.sqrt(float(pair_l2.min())) if pair_l2.size else math.inf


def _interaction(p: np.ndarray, pairs: _Pairs, l2: np.ndarray | None = None) -> np.ndarray:
    """``S_i = sum_{j != i} lambda_j x_j / (1 - x_i . x_j)``, shaped like ``p`` ``(..., M, 3)``;
    ``l2`` is ``_pairwise_l2(p)`` when the caller has it already."""
    # half the squared chord equals 1 - x_i . x_j on the sphere
    l2 = _pairwise_l2(p) if l2 is None else l2
    return (pairs.lam_off / (0.5 * l2 + pairs.eye)) @ p


# Cyclic component orders: (a x b)_c = a_{c+1} b_{c+2} - a_{c+2} b_{c+1}.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _field(p: np.ndarray, pairs: _Pairs, l2: np.ndarray | None = None) -> np.ndarray:
    """The vector field ``dx_i/dt = S_i x x_i``: the one kernel of the flow."""
    s = _interaction(p, pairs, l2)
    out = s.take(_NEXT, 1) * p.take(_PREV, 1)
    out -= s.take(_PREV, 1) * p.take(_NEXT, 1)
    return out


def hamiltonians(positions: np.ndarray, strengths: np.ndarray) -> float | np.ndarray:
    """``H`` of configurations that share their strengths ``(M,)``: a float
    from one position array ``(M, 3)``, ``(K,)`` from a stack ``(K, M, 3)``."""
    pairs = _pair_constants(np.asarray(strengths, dtype=float))
    l2 = _pairwise_l2(np.asarray(positions, dtype=float))[..., pairs.iu[0], pairs.iu[1]]
    # row by row in memory, so each row of a stack is summed as one row alone
    return _energy(np.ascontiguousarray(l2), pairs)


def hamiltonian(c: Configuration) -> float:
    """Interaction energy ``sum_{i<j} lambda_i lambda_j ln l_ij^2``."""
    return hamiltonians(c.positions, c.strengths)


def vector_field(c: Configuration) -> np.ndarray:
    """Right-hand side ``dx_i/dt`` as an ``(M, 3)`` array.

    Each row is tangent to the sphere at the corresponding vortex.
    """
    return _field(c.positions, _pair_constants(c.strengths))


def momentum_map(c: Configuration) -> np.ndarray:
    """Conserved momentum ``Phi = sum_i lambda_i x_i`` as a 3-vector."""
    return c.strengths @ c.positions


def augmented_hamiltonian(c: Configuration, xi: float, mu: float) -> float:
    """``H_xi = H + xi (Phi_z - mu)``; critical at relative equilibria."""
    phi_z = float(momentum_map(c)[2])
    return hamiltonian(c) + float(xi) * (phi_z - float(mu))


# ---------------------------------------------------------------------------
# Mixed chart
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _chart_offsets(ring: tuple[int, ...], poles: tuple[int, ...], m: int) -> np.ndarray:
    """Read-only flat offsets, in a ``(1 + dim, M, 3)`` buffer of positions then frames,
    of the values :meth:`MixedChart._frames` lists: a (row, vortex, component) block each."""
    ring, poles = np.array(ring, dtype=np.intp), np.array(poles, dtype=np.intp)
    n, rows = ring.size, 1 + 2 * ring.size + 2 * poles.size  # the positions row, then one per dof
    theta, phi, x = 1 + np.arange(n), 1 + n + np.arange(n), 1 + 2 * n + 2 * np.arange(poles.size)
    blocks = [(0, ring, 0), (0, ring, 1), (0, ring, 2), (theta, ring, 0), (theta, ring, 1), (theta, ring, 2)]
    blocks += [(phi, ring, 0), (phi, ring, 1), (0, poles, 0), (0, poles, 1), (0, poles, 2)]
    blocks += [(x, poles, 0), (x + 1, poles, 1), (x, poles, 2), (x + 1, poles, 2)]
    offsets = np.concatenate([np.ravel_multi_index(np.broadcast_arrays(*b), (rows, m, 3)) for b in blocks])
    offsets.setflags(write=False)
    return offsets


class MixedChart:
    """Canonical-style coordinates adapted to a configuration's layout.

    Ring vortices get co-latitude/longitude pairs; pole vortices get the
    ambient ``(x, y)`` components of their position (the z-component is
    reconstructed from the hemisphere the pole vortex lives in).  The
    degree-of-freedom ordering is::

        [theta (+ring ranks), theta (-ring ranks),
         phi   (+ring ranks), phi   (-ring ranks),
         x_n, y_n, x_s, y_s]

    where the trailing four entries appear only for configurations with a
    pole pair.  In these coordinates the symplectic form is block diagonal:
    ``lambda_i sin(theta_i) dtheta_i ^ dphi_i`` per ring vortex and
    ``(lambda_p / z_p) dx_p ^ dy_p`` per pole vortex, and the equations of
    motion read ``Omega(q) dq/dt = -grad H``.

    Every evaluation takes one chart point ``(dim,)`` or a stack of them
    ``(S, dim)`` (with one rate ``xi`` each), evaluated together, and
    returns its one-point result or a stack of them: :meth:`hessian_fd`
    evaluates the stencils of a whole stack in one pass, bit for bit as one
    :meth:`gradient` call per stencil point.
    """

    def __init__(self, config: Configuration) -> None:
        layout = config.layout
        self.config = config
        self.ring = tuple(layout.plus) + tuple(layout.minus)
        self.n_ring = len(self.ring)
        self.poles = (layout.north, layout.south) if config.pole_count == 2 else ()
        z = config.positions[list(self.poles), 2]
        if (z == 0.0).any():
            raise PoleSingularity("pole vortex sits on the equator; its chart hemisphere is undefined")
        self.pole_signs = np.sign(z)
        self.dim = 2 * self.n_ring + 2 * len(self.poles)
        self.strengths = config.strengths
        self._pairs = _pair_constants(self.strengths)
        self.m = len(config)
        self._offsets = _chart_offsets(self.ring, self.poles, self.m)

    # -- coordinates <-> positions ------------------------------------------

    def coords(self) -> np.ndarray:
        """Chart coordinates of the base configuration."""
        return self._coords(self.config.positions[None])[0]

    def _coords(self, p: np.ndarray) -> np.ndarray:
        """Chart coordinates ``(K, dim)`` of a position stack ``(K, M, 3)``."""
        q, n = np.empty((len(p), self.dim)), self.n_ring
        # A loop of math calls, not np.arctan2 / np.hypot over the rings: on
        # an AVX-512 host those differ from math.atan2 / math.hypot in the
        # last bit for 16,773 and 1,453 of 200,000 random unit vectors.
        for k, ring in enumerate(p[:, list(self.ring)].tolist()):
            for r, (x, y, z) in enumerate(ring):
                s = math.hypot(x, y)
                if s < POLE_EPS:
                    raise PoleSingularity(
                        f"ring vortex {self.ring[r]} at ({x}, {y}, {z}) is within {POLE_EPS} of a pole"
                    )
                q[k, r] = math.atan2(s, z)
                q[k, n + r] = math.atan2(y, x) % (2.0 * math.pi)
        q[:, 2 * n :] = p[:, list(self.poles), :2].reshape(len(p), -1)
        return q

    def positions(self, q: np.ndarray) -> np.ndarray:
        """Ambient positions ``(M, 3)`` for chart coordinates ``q``."""
        return self._frames(np.atleast_2d(q))[0].reshape(np.shape(q)[:-1] + (self.m, 3))

    def config_at(self, q: np.ndarray) -> Configuration:
        return self.config.with_positions(self.positions(q))

    def _frames(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions ``(S, M, 3)`` and tangent vectors ``d(position)/d(dof)``
        ``(S, dim, M, 3)`` at the chart points ``qs`` ``(S, dim)``."""
        n, s = self.n_ring, qs.shape[0]
        sin, cos = np.sin(qs[:, : 2 * n]), np.cos(qs[:, : 2 * n])
        st, sp, ct, cp = sin[:, :n], sin[:, n:], cos[:, :n], cos[:, n:]
        st_cp, minus_st = st * cp, -st  # values in the order of ``_chart_offsets``' blocks
        values = [st_cp, st * sp, ct, ct * cp, ct * sp, minus_st, minus_st * sp, st_cp]
        if self.poles:
            x, y = qs[:, 2 * n :: 2], qs[:, 2 * n + 1 :: 2]
            r2 = x * x + y * y
            if (r2 >= 1.0).any():
                raise PoleSingularity("pole chart coordinates left the hemisphere")
            z = self.pole_signs * np.sqrt(1.0 - r2)
            values += [x, y, z, np.ones_like(r2), np.ones_like(r2), -x / z, -y / z]
        out = np.zeros((s, 1 + self.dim, self.m, 3))
        out.reshape(s, -1)[:, self._offsets] = np.concatenate(values, axis=1)
        return out[:, 0], out[:, 1:]

    # -- differential objects -------------------------------------------------

    def gradient(self, q: np.ndarray, xi: float | np.ndarray) -> np.ndarray:
        """Analytic chart gradient of the augmented Hamiltonian ``H_xi``.

        The ambient gradient is ``grad_i H = -lambda_i S_i`` with
        ``S_i = sum_{j != i} lambda_j x_j / (1 - x_i . x_j)``, plus
        ``xi lambda_i e_z`` from the momentum term; chart components are
        its pairings with the per-dof tangent vectors.
        """
        p, frames = self._frames(np.atleast_2d(q))
        ambient = -self.strengths[:, None] * _interaction(p, self._pairs)
        ambient[..., 2] += np.multiply.outer(xi, self.strengths)
        return np.einsum("sdmk,smk->sd", frames, ambient).reshape(np.shape(q))

    def corotating_field(self, q: np.ndarray, xi: float) -> np.ndarray:
        """Chart velocity in the frame rotating about z at rate ``xi``.

        Computed from the ambient vector field (an independent route from
        :meth:`gradient`): ``dx_i/dt - xi e_z x x_i`` projected onto the
        chart frames.
        """
        p = self.positions(q)
        v = _field(p, self._pairs)
        v[:, 0] += float(xi) * p[:, 1]
        v[:, 1] -= float(xi) * p[:, 0]
        return self._chart_components(q, v)

    def symplectic_matrix(self, q: np.ndarray) -> np.ndarray:
        """Chart matrix of the weighted area form at ``q``."""
        qs, n, lam = np.atleast_2d(q), self.n_ring, self.strengths
        z = self.positions(qs)[:, list(self.poles), 2]
        a = np.concatenate([np.arange(n), np.arange(2 * n, self.dim, 2)])
        b = a + np.where(a < n, n, 1)
        w = np.concatenate([lam[list(self.ring)] * np.sin(qs[:, :n]), lam[list(self.poles)] / z], axis=1)
        omega = np.zeros((len(qs), self.dim, self.dim))
        omega[:, a, b], omega[:, b, a] = w, -w
        return omega.reshape(np.shape(q)[:-1] + omega.shape[1:])

    def momentum_rows(self, q: np.ndarray) -> np.ndarray:
        """Differential of the momentum map: a ``(3, dim)`` matrix."""
        rows = np.einsum("sdmk,m->skd", self._frames(np.atleast_2d(q))[1], self.strengths)
        return rows.reshape(np.shape(q)[:-1] + rows.shape[1:])

    def rotation_generators(self, q: np.ndarray, axes: np.ndarray) -> np.ndarray:
        """Chart components of the rotation generators ``x -> e x x``.

        ``axes`` is ``(n_axes, 3)``; the result is ``(n_axes, dim)``.
        """
        axes, qs = np.atleast_2d(np.asarray(axes, dtype=float)), np.atleast_2d(q)
        n, p, e = self.n_ring, self.positions(qs)[:, None], axes[:, None, :]
        v = e[..., _NEXT] * p[..., _PREV] - e[..., _PREV] * p[..., _NEXT]  # e x x, as np.cross
        st, sp, ct, cp = np.sin(qs[:, :n]), np.sin(qs[:, n : 2 * n]), np.cos(qs[:, :n]), np.cos(qs[:, n : 2 * n])
        # each ring vortex's theta-hat and phi-hat, (S, 1, 2, n_ring, 3)
        hats = np.array([[ct * cp, ct * sp, -st], [-sp, cp, np.zeros_like(st)]]).transpose(2, 0, 3, 1)[:, None].copy()
        along = np.vecdot(v[:, :, None, list(self.ring)], hats)
        poles = v[:, :, list(self.poles), :2].reshape(len(qs), len(axes), -1)
        gens = np.concatenate([along[:, :, 0], along[:, :, 1] / st[:, None], poles], axis=2)
        return gens.reshape(np.shape(q)[:-1] + gens.shape[1:])

    def _chart_components(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Chart components at ``q`` of ambient tangent vectors ``v`` (M, 3)."""
        dq = np.empty(self.dim)
        for r, i in enumerate(self.ring):
            th, ph = q[r], q[self.n_ring + r]
            st, ct = math.sin(th), math.cos(th)
            cp, sp = math.cos(ph), math.sin(ph)
            theta_hat = np.array([ct * cp, ct * sp, -st])
            phi_hat = np.array([-sp, cp, 0.0])
            dq[r] = v[i] @ theta_hat
            dq[self.n_ring + r] = (v[i] @ phi_hat) / st
        for k, i in enumerate(self.poles):
            dq[2 * self.n_ring + 2 * k] = v[i, 0]
            dq[2 * self.n_ring + 2 * k + 1] = v[i, 1]
        return dq

    def hessian_fd(self, q: np.ndarray, xi: float | np.ndarray) -> np.ndarray:
        """Hessian of ``H_xi`` by central differences of the analytic gradient:
        column ``k`` is ``(g(q + h e_k) - g(q - h e_k)) / (2 h)``, h = 1e-5."""
        d, step = self.dim, 1e-5
        points = (np.atleast_2d(q)[:, None] + step * np.concatenate([np.eye(d), -np.eye(d)])).reshape(-1, d)
        rates = np.repeat(np.reshape(xi, -1), 2 * d)
        rows = max(1, STACK_ELEMENTS // (d * self.m * 3))  # frames (S, dim, M, 3) per chunk
        g = np.concatenate([self.gradient(points[i : i + rows], rates[i : i + rows]) for i in range(0, len(points), rows)])
        g = g.reshape(np.shape(q)[:-1] + (2 * d, d))
        return np.ascontiguousarray(np.swapaxes((g[..., :d, :] - g[..., d:, :]) / (2.0 * step), -1, -2))


# ---------------------------------------------------------------------------
# Trajectories and integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverStats:
    """Work done by one :func:`integrate` call."""

    rhs_calls: int  # field evaluations: 2 to start, 11 per attempt, 1 per renormalized state
    accepted_steps: int
    rejected_steps: int  # attempts the error control turned down
    min_step: float  # smallest accepted step; ``inf`` when none was taken


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time series produced by :func:`integrate`.

    ``times`` is strictly increasing and starts at 0.  ``positions`` is the
    read-only ``(T, M, 3)`` array of the integrator's states, ``energies``
    holds ``H`` at each of them, and ``h_drift`` and ``phi_drift`` record
    ``|H(t) - H(0)|`` and ``max_k |Phi_k(t) - Phi_k(0)|``.  ``initial`` is
    the starting configuration, which fixes strengths and layout; the
    configurations of later states are built only when asked for.
    ``stats`` counts the solver's work.
    """

    initial: Configuration
    times: tuple[float, ...]
    positions: np.ndarray
    energies: tuple[float, ...]
    h_drift: tuple[float, ...]
    phi_drift: tuple[float, ...]
    stats: SolverStats

    @cached_property
    def states(self) -> tuple[Configuration, ...]:
        """The configuration at each stored time, built on first access."""
        return (self.initial,) + tuple(
            self.initial.with_positions(p) for p in self.positions[1:]
        )

    def final_state(self) -> Configuration:
        if len(self.times) == 1:
            return self.initial
        return self.initial.with_positions(self.positions[-1])

    def to_csv(self) -> str:
        n_rows, m = self.positions.shape[:2]
        header = ["t", *(f"{c}{i}" for i in range(1, m + 1) for c in "xyz"), "H", "|dH|", "|dPhi|_inf"]
        # Rows show ``states[k]`` and its energy.  ``with_positions``
        # normalizes each vortex once more, which can move H in the 12th
        # digit; the same stacked matmul norm reproduces it bit for bit
        # (``einsum`` does not).
        shown = self.positions.copy()
        later = shown[1:]
        later /= np.sqrt(later[..., None, :] @ later[..., None])[..., 0]
        # STACK_ELEMENTS // M**2 rows per stacked energy pass bound its (K, M, M, 3) pair differences
        size = max(1, STACK_ELEMENTS // m**2)
        energies = [hamiltonians(shown[k : k + size], self.initial.strengths) for k in range(0, n_rows, size)]
        table = np.column_stack(
            [
                self.times,
                shown.reshape(n_rows, 3 * m),
                np.concatenate(energies),
                self.h_drift,
                self.phi_drift,
            ]
        )
        row = ",".join(["%.12g"] * table.shape[1])
        lines = [",".join(header)] + [row % tuple(r) for r in table.tolist()]
        return "\n".join(lines) + "\n"


# Dormand-Prince 8(5,3) in SciPy's digits.  Row s < 12 of _DOP_A weighs the
# earlier stages into stage s and row 12 is B, the 8th-order solution's
# weights; _DOP_E3 and _DOP_E5 weigh the 12 stages into the two error
# estimates.  SciPy's tables give a 13th stage, the field at the new state,
# zero weight in B, E3 and E5, so it is neither stored nor evaluated.  The
# field does not depend on time, so the stage times C are left out.
_DOP_A = np.zeros((13, 12))
for _s, _cols, _row in (
    (1, [0], [5.26001519587677318785587544488e-2]),
    (2, [0, 1], [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    (3, [0, 2], [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]),
    (4, [0, 2, 3], [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1]),
    (5, [0, 3, 4], [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1]),
    (6, [0, 3, 4, 5], [3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
                       -1.7578125e-2]),
    (7, [0, 3, 4, 5, 6], [3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
                          1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
                          8.27378916381402288758473766002e-3]),
    (8, [0, 3, 4, 5, 6, 7], [6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
                             -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
                             2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]),
    (9, [0, 3, 4, 5, 6, 7, 8], [4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
                                -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
                                1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
                                -2.03312017085086261358222928593e-2]),
    (10, [0, 3, 4, 5, 6, 7, 8, 9], [-9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
                                    1.09143734899672957818500254654, -8.14978701074692612513997267357,
                                    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
                                    2.49360555267965238987089396762, -3.0467644718982195003823669022]),
    (11, [0, 3, 4, 5, 6, 7, 8, 9, 10], [2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
                                        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
                                        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
                                        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
                                        6.43392746015763530355970484046e-1]),
    (12, [0, 5, 6, 7, 8, 9, 10, 11], [5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
                                      1.89151789931450038304281599044, -5.8012039600105847814672114227,
                                      3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
                                      2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]),
):
    _DOP_A[_s, _cols] = _row
_DOP_E3 = _DOP_A[12].copy()
_DOP_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                        0.220588235294117647058823529412e-1]
_DOP_E5 = np.zeros(12)
_DOP_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]
for _a in (_DOP_A, _DOP_E3, _DOP_E5):
    _a.setflags(write=False)
del _s, _cols, _row, _a


def _rms(x: np.ndarray) -> float:
    """Root mean square of ``x``, as SciPy's ``common.norm`` takes it."""
    return np.linalg.norm(x) / x.size**0.5


def integrate(c0: Configuration, t_end: float, tol: float = 1e-10) -> Trajectory:
    """Evolve ``c0`` to time ``t_end > 0`` with accuracy target ``tol``.

    Steps an adaptive high-order embedded Runge-Kutta pair (Dormand-Prince
    8(5,3)) on the ambient Cartesian coordinates, renormalizing every
    accepted state back onto the unit sphere.  The per-step error is held
    three orders below ``tol`` so that the accumulated energy and momentum
    drift stays near ``tol`` over desk-scale horizons; both drifts are
    recorded at every accepted step, monitored rather than enforced.

    Raises
    ------
    CollisionApproach
        If any pair comes within ``10 * COLLISION_EPS`` in chord distance;
        the partial trajectory, which ends at the last state outside that
        guard, is attached to the exception.
    StepSizeUnderflow
        If the step size underflows or :data:`MAX_STEPS` steps end short of ``t_end``.
    OutOfDomain
        If ``t_end`` is not positive and finite or ``tol`` is not in
        [:data:`MIN_INTEGRATION_TOL`, 1).
    """
    if not (t_end > 0.0) or not math.isfinite(t_end):
        raise OutOfDomain("t_end must be a positive finite time")
    if not (MIN_INTEGRATION_TOL <= tol < 1.0):
        raise OutOfDomain(f"tol must lie in [{MIN_INTEGRATION_TOL:.4g}, 1)")

    lam = c0.strengths
    pairs = _pair_constants(lam)
    m = len(lam)
    y = c0.positions
    l2 = _pairwise_l2(y)
    pair_l2 = l2[pairs.iu]
    h0 = _energy(pair_l2, pairs)
    phi0 = lam @ y

    times = [0.0]
    positions = [y]
    energies = [h0]
    h_drift = [0.0]
    phi_drift = [0.0]
    rhs_calls = 0
    rejected_steps = 0

    def partial() -> Trajectory:
        stored = np.array(positions)
        stored.setflags(write=False)
        steps = np.diff(times)
        stats = SolverStats(
            rhs_calls, len(steps), rejected_steps,
            float(steps.min()) if steps.size else math.inf,
        )
        return Trajectory(
            c0, tuple(times), stored, tuple(energies), tuple(h_drift),
            tuple(phi_drift), stats,
        )

    guard = NEAR_COLLISION_FACTOR * COLLISION_EPS
    if _min_chord(pair_l2) < guard:
        raise CollisionApproach(
            "initial configuration is already within the near-collision guard",
            partial(),
        )

    # The stages K, one flat row each, and the same rows as (M, 3) states.
    flat = np.empty((12, 3 * m))
    stages = flat.reshape(12, m, 3)
    sums = [(flat[:s].T, _DOP_A[s, :s]) for s in range(1, 12)]
    step_tol = 1e-3 * tol
    stages[0] = _field(y, pairs, l2)
    # SciPy's select_initial_step (Hairer, Norsett & Wanner, Sec. II.4)
    scale = step_tol + np.abs(y) * step_tol
    d0, d1 = _rms(y / scale), _rms(stages[0] / scale)
    trial = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((_field(y + trial * stages[0], pairs) - stages[0]) / scale) / trial
    rhs_calls += 2
    h1 = max(1e-6, trial * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * trial, h1, t_end)

    t = 0.0
    while t < t_end:
        if len(times) > MAX_STEPS:
            raise StepSizeUnderflow(f"step budget of {MAX_STEPS} steps spent at t = {t:.6g}", partial())
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    f"step size underflow at t = {t:.6g}: "
                    "Required step size is less than spacing between numbers.",
                    partial(),
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            # SciPy's rk_step: the stage sums np.dot(K[:s].T, a[:s]) * h
            for s, (k, a) in enumerate(sums, start=1):
                stages[s] = _field(y + (np.dot(k, a) * h).reshape(m, 3), pairs)
            y_new = y + (h * np.dot(flat.T, _DOP_A[12])).reshape(m, 3)
            rhs_calls += 11
            # DOP853's error norm, from the 5th- and 3rd-order estimates
            scale = (step_tol + np.maximum(np.abs(y), np.abs(y_new)) * step_tol).reshape(-1)
            err5 = np.linalg.norm(np.dot(flat.T, _DOP_E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(flat.T, _DOP_E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * scale.size)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error**-0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error**-0.125)
            rejected = True
            rejected_steps += 1
        t = t_new
        y = y_new / np.linalg.norm(y_new, axis=1, keepdims=True)
        # the guard reads the new state before anything else does, so a
        # state closer than COLLISION_EPS is never stored or evaluated
        l2 = _pairwise_l2(y)
        pair_l2 = l2[pairs.iu]
        if _min_chord(pair_l2) < guard:
            raise CollisionApproach(f"near-collision at t = {t:.6g}", partial())
        stages[0] = _field(y, pairs, l2)
        rhs_calls += 1
        energy = _energy(pair_l2, pairs)
        times.append(float(t))
        positions.append(y)
        energies.append(energy)
        h_drift.append(abs(energy - h0))
        phi_drift.append(float(np.max(np.abs(lam @ y - phi0))))

    return partial()
