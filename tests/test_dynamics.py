"""Energy, momentum, flow symmetries, and the adaptive integrator."""

import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortex_atlas import dynamics
from vortex_atlas.atlas import EXIT_NUMERIC, EXIT_OK, main
from conftest import rotation_axis_matrix
from oracles import (
    GroupElement,
    apply_group_element,
    corotating_field,
    mirror_y_matrix,
    rotation_z_matrix,
    with_negated_strengths,
)
from vortex_atlas.core import (
    COLLISION_EPS,
    Configuration,
    Family,
    FamilyDescriptor,
    Layout,
    OutOfDomain,
    PoleSingularity,
)
from vortex_atlas.dynamics import (
    MIN_INTEGRATION_TOL,
    NEAR_COLLISION_FACTOR,
    CollisionApproach,
    MixedChart,
    StepSizeUnderflow,
    _field,
    _pair_constants,
    hamiltonian,
    hamiltonians,
    integrate,
    momentum_map,
)
from vortex_atlas.equilibria import (
    branch_c2v_RRp2p,
    make_equatorial_pm_ring,
    make_family,
    make_plus_ring_pole_pair,
    make_tetrahedral_pair,
    ring_angular_velocity,
)


POLAR_PAIR = Configuration([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1.0, -1.0])


# ---------------------------------------------------------------------------
# energy and momentum reference values
# ---------------------------------------------------------------------------


def test_energy_of_antipodal_pair():
    c = POLAR_PAIR
    # one pair at squared chord distance 4 with opposite strengths
    assert hamiltonian(c) == pytest.approx(-math.log(4.0), abs=1e-14)


def test_energy_of_orthogonal_like_signed_pair():
    c = Configuration([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0])
    assert hamiltonian(c) == pytest.approx(math.log(2.0), abs=1e-14)


def test_energy_of_alternating_square_vanishes():
    # two same-sign pairs at chord^2 = 4 cancel four mixed pairs at chord^2 = 2
    c = make_equatorial_pm_ring(2)
    assert abs(hamiltonian(c)) < 1e-12


def test_momentum_of_polar_pair():
    c = POLAR_PAIR
    np.testing.assert_allclose(momentum_map(c), [0.0, 0.0, 2.0], atol=1e-15)


@pytest.mark.parametrize("n,theta0,k_p", [(2, 0.6, 0), (4, 1.1, 0), (3, 0.9, 2)])
def test_momentum_of_two_ring_configurations(n, theta0, k_p):
    desc = FamilyDescriptor(Family.DND_RRP, n, theta0=theta0, k_p=k_p)
    phi = momentum_map(make_family(desc))
    expected_z = 2.0 * n * math.cos(theta0) + (2.0 if k_p else 0.0)
    np.testing.assert_allclose(phi, [0.0, 0.0, expected_z], atol=1e-12)


def test_augmented_energy_is_stationary_at_a_relative_equilibrium():
    desc = FamilyDescriptor(Family.DNH_2R, 3, theta0=0.8)
    c = make_family(desc)
    chart = MixedChart(c)
    xi = float(ring_angular_velocity(desc))

    def grad(rate):
        def f(qq):
            moved = c.with_positions(chart.positions(qq))
            return hamiltonian(moved) + rate * momentum_map(moved)[2]

        return _fd_gradient(f, chart.coords())

    assert np.max(np.abs(grad(xi))) < 1e-8
    assert np.max(np.abs(grad(xi + 0.5))) > 1e-2


# ---------------------------------------------------------------------------
# the vector field
# ---------------------------------------------------------------------------


def test_field_vanishes_for_antipodal_pair():
    c = POLAR_PAIR
    assert np.max(np.abs(_field(c.positions, _pair_constants(c.strengths)))) < 1e-15


def test_field_vanishes_at_fixed_equilibria():
    for c in (make_equatorial_pm_ring(3), make_tetrahedral_pair()):
        assert np.max(np.abs(_field(c.positions, _pair_constants(c.strengths)))) < 1e-12


def _reference_field(c: Configuration) -> np.ndarray:
    """The vector field written with ``np.cross`` and ``fill_diagonal``."""
    p, lam = c.positions, c.strengths
    diff = p[:, None, :] - p[None, :, :]
    denom = 0.5 * np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(denom, 1.0)
    w = lam[None, :] / denom
    np.fill_diagonal(w, 0.0)
    return np.cross(w @ p, p)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_field_matches_the_reference_kernel_bit_for_bit(pm_sampler, seed):
    # the integrator's output is compared byte for byte, so the kernel must
    # keep the reference's arithmetic, not merely its value
    rng = np.random.default_rng(100 + seed)
    for c in (
        pm_sampler(rng, 3 * (seed + 1), min_chord=0.05),
        make_family(FamilyDescriptor(Family.DND_RRP, seed + 2, theta0=0.9, k_p=2)),
    ):
        field, reference = _field(c.positions, _pair_constants(c.strengths)), _reference_field(c)
        assert np.array_equal(field, reference)
        assert np.array_equal(np.signbit(field), np.signbit(reference))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_field_is_tangent_to_the_sphere(pm_sampler, seed):
    rng = np.random.default_rng(seed)
    c = pm_sampler(rng, rng.integers(2, 5), min_chord=0.05)
    dots = np.einsum("ij,ij->i", c.positions, _field(c.positions, _pair_constants(c.strengths)))
    assert np.max(np.abs(dots)) < 1e-14


# ---------------------------------------------------------------------------
# symmetries of energy and momentum
# ---------------------------------------------------------------------------


_ELEMENTS = [
    GroupElement(rotation_z_matrix(1.1)),
    GroupElement(rotation_axis_matrix(np.array([1.0, -2.0, 0.5]), 0.8)),
    GroupElement(mirror_y_matrix()),
    GroupElement(rotation_z_matrix(2.2), tau_power=1),
]


@pytest.mark.parametrize("index", range(len(_ELEMENTS)))
def test_energy_is_invariant_under_the_symmetry_group(pm_sampler, index):
    rng = np.random.default_rng(21)
    c = pm_sampler(rng, 3, min_chord=0.2)
    g = _ELEMENTS[index]
    assert hamiltonian(apply_group_element(g, c)) == pytest.approx(
        hamiltonian(c), abs=1e-12
    )


@pytest.mark.parametrize("index", range(len(_ELEMENTS)))
def test_momentum_is_equivariant(pm_sampler, index):
    rng = np.random.default_rng(22)
    c = pm_sampler(rng, 3, min_chord=0.2)
    g = _ELEMENTS[index]
    lhs = momentum_map(apply_group_element(g, c))
    rhs = (-1.0) ** g.tau_power * g.orthogonal @ momentum_map(c)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _reversal_defect(c0: Configuration, g: GroupElement, t: float) -> float:
    """Max-norm distance between ``flow_t(g . c0)`` and ``g . flow_{chi(g) t}(c0)``;
    the backward flow is the forward flow of the strength-negated configuration."""
    def flow(c: Configuration) -> Configuration:
        return c.with_positions(integrate(c, t).positions[-1])

    left = flow(apply_group_element(g, c0)).positions
    if g.chi == 1:
        base = flow(c0)
    else:
        base = with_negated_strengths(flow(with_negated_strengths(c0)))
    right = apply_group_element(g, base).positions
    return float(np.max(np.abs(left - right)))


@pytest.mark.parametrize("index", range(len(_ELEMENTS)))
def test_flow_equivariance_and_reversal(pm_sampler, index):
    # chi = +1 elements commute with the flow; chi = -1 elements conjugate
    # it to the reversed flow -- one identity covers both via the character
    rng = np.random.default_rng(33)
    c = pm_sampler(rng, 3, min_chord=0.35)
    assert _reversal_defect(c, _ELEMENTS[index], t=1.0) < 1e-7


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_integrate_validates_inputs():
    c = make_equatorial_pm_ring(2)
    with pytest.raises(OutOfDomain):
        integrate(c, 0.0)
    with pytest.raises(OutOfDomain):
        integrate(c, -1.0)
    with pytest.raises(OutOfDomain):
        integrate(c, 1.0, tol=2.0)
    # below the bound the step tolerance 1e-3 * tol falls under 100 machine epsilons
    for tol in (1e-300, 1e-13, np.nextafter(MIN_INTEGRATION_TOL, 0.0)):
        with pytest.raises(OutOfDomain, match="tol must lie in"):
            integrate(c, 1.0, tol=tol)
    assert issubclass(OutOfDomain, ValueError)


def test_integrate_runs_at_the_finest_accepted_tol_without_a_warning(recwarn):
    traj = integrate(make_equatorial_pm_ring(2), 0.01, tol=MIN_INTEGRATION_TOL)
    assert traj.times[-1] == 0.01
    assert not recwarn.list


def test_fixed_equilibrium_stays_put():
    c = make_equatorial_pm_ring(2)
    traj = integrate(c, 10.0, tol=1e-10)
    drift = np.max(np.abs(c.with_positions(traj.positions[-1]).positions - c.positions))
    assert drift < 1e-9


def test_single_vortex_stays_put():
    c = Configuration([[0.6, 0.0, 0.8]], [1.0])
    traj = integrate(c, 1.0)
    assert set(traj.energies) == {0.0}
    np.testing.assert_array_equal(c.with_positions(traj.positions[-1]).positions, c.positions)


def test_rigidly_rotating_ring_returns_after_one_period():
    desc = FamilyDescriptor(Family.DNH_2R, 3, theta0=0.5)
    c = make_family(desc)
    xi = float(ring_angular_velocity(desc))
    period = 2.0 * math.pi / abs(xi)
    traj = integrate(c, period, tol=1e-10)
    assert np.max(np.abs(c.with_positions(traj.positions[-1]).positions - c.positions)) < 1e-6


def test_energy_and_momentum_drift_stay_small(pm_sampler):
    rng = np.random.default_rng(7)
    c = pm_sampler(rng, 3, min_chord=0.3)
    traj = integrate(c, 10.0, tol=1e-10)
    assert max(abs(d) for d in traj.h_drift) < 1e-8
    assert max(traj.phi_drift) < 1e-8
    # drifts are recorded against the recomputed invariants
    final = c.with_positions(traj.positions[-1])
    assert abs(hamiltonian(final) - hamiltonian(c)) == pytest.approx(
        traj.h_drift[-1], abs=1e-13
    )


def test_integration_is_deterministic():
    c = make_family(FamilyDescriptor(Family.DND_RRP, 2, theta0=0.9))
    t1 = integrate(c, 2.0, tol=1e-9)
    t2 = integrate(c, 2.0, tol=1e-9)
    assert t1.times == t2.times
    np.testing.assert_array_equal(t1.positions[-1], t2.positions[-1])


def test_collision_guard_raises_with_partial_trajectory():
    eps = 5e-9  # inside the guard band, outside the construction threshold
    b = np.array([math.cos(eps), math.sin(eps), 0.0])
    c = Configuration(
        [[1.0, 0.0, 0.0], b / np.linalg.norm(b), [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
        [1.0, -1.0, 1.0, -1.0],
    )
    with pytest.raises(CollisionApproach) as excinfo:
        integrate(c, 1.0)
    partial = excinfo.value.trajectory
    assert partial.times[0] == 0.0
    assert len(partial.times) == len(partial.positions)
    for p in partial.positions:
        c.with_positions(p)  # every state is a valid configuration


def test_step_size_underflow_keeps_the_partial_trajectory(tmp_path, monkeypatch, capsys):
    """After three accepted steps the field turns NaN, so the error control
    turns down every attempt until the step falls beneath its smallest: the
    error carries the three steps, and simulate writes them and exits 3."""
    real = dynamics._field

    def nan_after_three_steps():
        calls = itertools.count(1)

        def field(p, pairs, l2=None):
            out = real(p, pairs, l2)
            # 2 start-up evaluations, then 12 for each step accepted at once
            return out if next(calls) <= 2 + 12 * 3 else np.full_like(out, np.nan)

        monkeypatch.setattr(dynamics, "_field", field)

    c = make_family(FamilyDescriptor(Family.DND_RRP, 2, theta0=0.9))
    nan_after_three_steps()
    with pytest.raises(StepSizeUnderflow, match="step size underflow at t = ") as excinfo:
        integrate(c, 2.0, tol=1e-9)
    partial = excinfo.value.trajectory
    stats = partial.stats
    assert len(partial.times) == len(partial.positions) == 4
    assert stats.accepted_steps == 3 and stats.min_step == min(np.diff(partial.times))
    # the attempts of the failed step were all turned down
    assert stats.rejected_steps >= 10
    assert stats.rhs_calls == 2 + 12 * stats.accepted_steps + 11 * stats.rejected_steps

    nan_after_three_steps()
    config_path, out_path = tmp_path / "c.json", tmp_path / "partial.csv"
    config_path.write_text(c.to_json())
    argv = ["simulate", str(config_path), "--t-end", "2.0", "--tol", "1e-9", "--out", str(out_path)]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: step size underflow at t = ")
    assert out_path.read_text() == partial.to_csv()


def test_the_step_budget_stops_a_run_that_would_not_end(tmp_path, monkeypatch, capsys):
    """A +1/-1 pair 1e-7 apart on the equator spins at a rate of about 1e14
    and crawls forward in steps of 1e-16; past the step budget integrate
    raises StepSizeUnderflow with the steps taken, and simulate writes them
    and exits 3."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 50)
    c = Configuration([[1.0, 0.0, 0.0], [math.cos(1e-7), math.sin(1e-7), 0.0]], [1.0, -1.0])
    with pytest.raises(StepSizeUnderflow, match=r"^step budget of 50 steps spent at t = \S+$") as excinfo:
        integrate(c, 0.5)
    partial = excinfo.value.trajectory
    assert len(partial.times) == partial.stats.accepted_steps + 1 == 51
    assert partial.times[-1] < 1e-10

    config_path, out_path = tmp_path / "pair.json", tmp_path / "partial.csv"
    config_path.write_text(c.to_json())
    assert main(["simulate", str(config_path), "--t-end", "0.5", "--out", str(out_path)]) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: step budget of 50 steps spent at t = ")
    assert out_path.read_text() == partial.to_csv()


def test_trajectory_holds_arrays_and_its_csv_shows_the_states(pm_sampler, monkeypatch):
    rng = np.random.default_rng(5)
    c = pm_sampler(rng, 3, min_chord=0.3)
    traj = integrate(c, 1.0, tol=1e-9)
    t = len(traj.times)
    assert traj.positions.shape == (t, len(c), 3)
    assert not traj.positions.flags.writeable
    assert len(traj.energies) == len(traj.h_drift) == len(traj.phi_drift) == t
    assert traj.energies[0] == hamiltonian(c)
    # H and |dH| of a row belong to the same stored state
    assert np.array(traj.energies).tobytes() == hamiltonians(traj.positions, c.strengths).tobytes()
    assert traj.h_drift == tuple(abs(e - traj.energies[0]) for e in traj.energies)
    # |dPhi| of a row has the bits of that one state's momentum against the first state's
    phi0 = c.strengths @ traj.positions[0]
    assert traj.phi_drift == tuple(float(np.max(np.abs(c.strengths @ p - phi0))) for p in traj.positions)

    def no_energy_pass(*args):
        raise AssertionError("to_csv evaluated energies")

    # the CSV prints the stored arrays as they are, and evaluates no energy
    monkeypatch.setattr(dynamics, "hamiltonians", no_energy_pass)
    m = len(c)
    header = ["t"] + [f"{a}{i}" for i in range(1, m + 1) for a in "xyz"]
    lines = [",".join(header + ["H", "|dH|", "|dPhi|_inf"])]
    rows = zip(traj.times, traj.positions, traj.energies, traj.h_drift, traj.phi_drift)
    for t_k, p_k, h, dh, dphi in rows:
        values = [t_k, *p_k.ravel().tolist(), h, dh, dphi]
        lines.append(",".join("%.12g" % x for x in values))
    assert traj.to_csv() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["pole_pair_m6", "random_m6", "rotating_rings_m6"])
def test_stacked_energies_have_the_bits_of_one_configuration_at_a_time(name):
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.json"
    c = Configuration.from_json(golden.read_text())
    states = [c] + [c.with_positions(p) for p in integrate(c, 1.0).positions[1:]]
    stacked = hamiltonians(np.array([state.positions for state in states]), c.strengths)
    assert stacked.shape == (len(states),)
    assert stacked.tobytes() == np.array([hamiltonian(state) for state in states]).tobytes()


def test_solver_statistics_count_the_work_and_repeat():
    c = make_family(FamilyDescriptor(Family.DND_RRP, 2, theta0=0.9))
    first = integrate(c, 2.0, tol=1e-9)
    second = integrate(c, 2.0, tol=1e-9)
    assert first.stats == second.stats
    stats = first.stats
    assert stats.accepted_steps == len(first.times) - 1 > 0
    assert stats.min_step == min(np.diff(first.times)) > 0.0
    # two evaluations to start, eleven DOP853 stages per attempt (the first
    # is the field already held), and one after each renormalization
    assert stats.rhs_calls == 2 + 12 * stats.accepted_steps + 11 * stats.rejected_steps


def test_solver_statistics_count_rejected_steps_at_a_close_approach(monkeypatch):
    """The counter against the evaluations the integrator really makes."""
    real, calls = dynamics._field, itertools.count()

    def counted(p, pairs, l2=None):
        next(calls)
        return real(p, pairs, l2)

    monkeypatch.setattr(dynamics, "_field", counted)
    c = _close_pair(1e-2, 1.0, 0.3)
    # the close same-sign pair turns at about 2 / chord^2
    stats = integrate(c, 2e-4, tol=1e-10).stats
    assert stats.rejected_steps > 0
    assert next(calls) == stats.rhs_calls == 2 + 12 * stats.accepted_steps + 11 * stats.rejected_steps


def test_trajectory_csv_layout():
    c = make_equatorial_pm_ring(2)
    traj = integrate(c, 0.5, tol=1e-9)
    lines = traj.to_csv().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-3:] == ["H", "|dH|", "|dPhi|_inf"]
    assert len(header) == 3 * len(c) + 4
    assert len(lines) == 1 + len(traj.times)
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[-3] == pytest.approx(hamiltonian(c), abs=1e-12)


# ---------------------------------------------------------------------------
# the mixed latitude/longitude + pole chart
# ---------------------------------------------------------------------------


def _fd_gradient(f, q, h=1e-6):
    g = np.zeros_like(q)
    for k in range(q.size):
        e = np.zeros_like(q)
        e[k] = h
        g[k] = (f(q + e) - f(q - e)) / (2.0 * h)
    return g


def test_chart_round_trip_and_gradient():
    desc = FamilyDescriptor(Family.DND_RRP, 3, theta0=0.8, k_p=2)
    c = make_family(desc)
    chart = MixedChart(c)
    q0 = chart.coords()
    np.testing.assert_allclose(chart.positions(q0), c.positions, atol=1e-14)

    # move off the equilibrium so the gradient is generic
    q = q0 + 0.02 * np.sin(1.0 + np.arange(q0.size))
    xi = 0.4

    def f(qq):
        moved = c.with_positions(chart.positions(qq))
        return hamiltonian(moved) + xi * momentum_map(moved)[2]

    grad = chart.gradient(q, xi)
    np.testing.assert_allclose(grad, _fd_gradient(f, q), rtol=1e-6, atol=1e-8)


def test_chart_coords_reject_ring_vortices_on_a_pole():
    for on_pole in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-9, 0.0, 1.0]):
        chart = MixedChart(Configuration([on_pole, [1.0, 0.0, 0.0]], [1.0, -1.0]))
        with pytest.raises(PoleSingularity):
            chart.coords()


def test_chart_symplectic_structure():
    desc = FamilyDescriptor(Family.DND_RRP, 3, theta0=0.8, k_p=2)
    chart = MixedChart(make_family(desc))
    q = chart.coords() + 0.01 * np.cos(np.arange(chart.coords().size))
    omega = chart.symplectic_matrix(q)
    assert np.array_equal(omega, -omega.T)
    n = 3
    # latitude/longitude pairing weight is strength * sin(theta)
    assert omega[0, 2 * n] == pytest.approx(math.sin(q[0]), abs=1e-14)
    assert omega[n, 3 * n] == pytest.approx(-math.sin(q[n]), abs=1e-14)
    # the chart field solves the symplectic linear system for the gradient
    xi = 0.3
    lhs = omega @ corotating_field(chart, q, xi)
    np.testing.assert_allclose(lhs, chart.gradient(q, xi), atol=1e-10)


def test_chart_momentum_rows_match_finite_differences():
    desc = FamilyDescriptor(Family.DNH_2R, 2, theta0=0.7, k_p=2)
    chart = MixedChart(make_family(desc))
    q = chart.coords() + 0.015 * np.sin(2.0 + np.arange(chart.coords().size))
    rows = chart.momentum_rows(q)
    for axis in range(3):
        def f(qq, axis=axis):
            return float(momentum_map(chart.config.with_positions(chart.positions(qq)))[axis])

        np.testing.assert_allclose(
            rows[axis], _fd_gradient(f, q), rtol=1e-6, atol=1e-8
        )


def test_chart_hessian_is_symmetric():
    desc = FamilyDescriptor(Family.DNH_2R, 2, theta0=0.7)
    chart = MixedChart(make_family(desc))
    h = chart.hessian_fd(chart.coords(), xi=0.2)
    np.testing.assert_allclose(h, h.T, atol=1e-8)


# ---------------------------------------------------------------------------
# the stacked chart evaluation against per-point and per-vortex references
# ---------------------------------------------------------------------------


def _pole_pair_at_height(z: float) -> Configuration:
    """A +1 ring pair with -1 pole vortices whose north one sits at height ``z``."""
    x = math.sqrt(1.0 - z * z)
    positions = [[0.6, 0.0, 0.8], [-0.6, 0.0, 0.8], [x, 0.0, z], [0.0, 0.0, -1.0]]
    return Configuration(positions, [1.0, 1.0, -1.0, -1.0], 2, Layout((0, 1), (), 2, 3))


def _poles_first(c: Configuration) -> Configuration:
    """``c`` relabelled with its pole vortices first and the rings interleaved."""
    order = [c.layout.north, c.layout.south, *sum(zip(c.layout.plus, c.layout.minus), ())]
    layout = Layout((2, 4), (3, 5), 0, 1)
    return Configuration(c.positions[order], c.strengths[order], 2, layout)


STENCIL_CHARTS = {
    "M4": branch_c2v_RRp2p(0.3, 0.0, 1).configuration(),
    "M4_poles": make_plus_ring_pole_pair(1.0),
    "M6": make_family(FamilyDescriptor(Family.DND_RRP, 3, theta0=0.7)),
    "M6_poles": branch_c2v_RRp2p(0.3, 1.0, -1).configuration(),
    "M6_poles_first": _poles_first(branch_c2v_RRp2p(0.3, 1.0, -1).configuration()),
    "pole_near_rim": _pole_pair_at_height(0.01),
}


def _stencil_points(c: Configuration):
    """The chart's base point and a generic point near it."""
    chart = MixedChart(c)
    q = chart.coords()
    return chart, [q, q + 1e-3 * np.sin(1.0 + np.arange(q.size))]


def _reference_positions_and_frames(chart, q):
    """Positions and tangent frames built one vortex at a time."""
    n = chart.n_ring
    p, frames = np.empty((chart.m, 3)), np.zeros((chart.dim, chart.m, 3))
    for r, i in enumerate(chart.ring):
        st, ct = math.sin(q[r]), math.cos(q[r])
        sp, cp = math.sin(q[n + r]), math.cos(q[n + r])
        p[i] = (st * cp, st * sp, ct)
        frames[r, i] = (ct * cp, ct * sp, -st)
        frames[n + r, i] = (-st * sp, st * cp, 0.0)
    for k, i in enumerate(chart.poles):
        x, y = q[2 * n + 2 * k], q[2 * n + 2 * k + 1]
        z = chart.pole_signs[k] * math.sqrt(1.0 - (x * x + y * y))
        p[i] = (x, y, z)
        frames[2 * n + 2 * k, i] = (1.0, 0.0, -x / z)
        frames[2 * n + 2 * k + 1, i] = (0.0, 1.0, -y / z)
    return p, frames


@pytest.mark.parametrize("name", sorted(STENCIL_CHARTS))
def test_single_point_evaluation_matches_per_vortex_loops(name):
    chart, points = _stencil_points(STENCIL_CHARTS[name])
    lam = chart.strengths
    for q in points:
        p, frames = _reference_positions_and_frames(chart, q)
        assert chart.positions(q).tobytes() == p.tobytes()
        ambient = -lam[:, None] * dynamics._interaction(p, chart._pairs)
        ambient[:, 2] += 0.3 * lam
        want = np.einsum("dmk,mk->d", frames, ambient)
        assert chart.gradient(q, 0.3).tobytes() == want.tobytes()
        rows = np.einsum("dmk,m->kd", frames, lam)
        assert chart.momentum_rows(q).tobytes() == rows.tobytes()


@pytest.mark.parametrize("name", sorted(STENCIL_CHARTS))
def test_hessian_stencil_matches_a_loop_of_gradients(name):
    chart, points = _stencil_points(STENCIL_CHARTS[name])
    step = 1e-5
    for q in points:
        want = np.empty((chart.dim, chart.dim))
        for k in range(chart.dim):
            dq = np.zeros(chart.dim)
            dq[k] = step
            want[:, k] = (chart.gradient(q + dq, 0.3) - chart.gradient(q - dq, 0.3)) / (2.0 * step)
        got = chart.hessian_fd(q, 0.3)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_hessian_stencil_is_the_same_in_any_chunking(monkeypatch):
    chart, (q, _) = _stencil_points(STENCIL_CHARTS["M6_poles"])
    whole = chart.hessian_fd(q, 0.3)
    for elements in (1, 5 * chart.dim * chart.m * 3):
        monkeypatch.setattr(dynamics, "STACK_ELEMENTS", elements)
        assert chart.hessian_fd(q, 0.3).tobytes() == whole.tobytes()


@pytest.mark.parametrize("name", sorted(STENCIL_CHARTS))
def test_rotation_generators_match_cross_products_projected_per_vortex(name):
    chart, points = _stencil_points(STENCIL_CHARTS[name])
    n = chart.n_ring
    axes = np.vstack([np.eye(3), [[0.6, -0.48, 0.64]]])
    for q in points:
        p = chart.positions(q)
        want = np.empty((len(axes), chart.dim))
        for a, e in enumerate(axes):
            v = np.cross(e[None, :], p)
            for r, i in enumerate(chart.ring):
                st, ct = math.sin(q[r]), math.cos(q[r])
                sp, cp = math.sin(q[n + r]), math.cos(q[n + r])
                want[a, r] = v[i] @ np.array([ct * cp, ct * sp, -st])
                want[a, n + r] = (v[i] @ np.array([-sp, cp, 0.0])) / st
            for k, i in enumerate(chart.poles):
                want[a, 2 * n + 2 * k : 2 * n + 2 * k + 2] = v[i, :2]
        assert chart.rotation_generators(q, axes).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(STENCIL_CHARTS))
def test_stacked_evaluation_matches_one_point_at_a_time(name, monkeypatch):
    """A stack of points, each with its own rate, gives each point's
    one-point result bit for bit, however the stencils are chunked."""
    chart, (q, _) = _stencil_points(STENCIL_CHARTS[name])
    qs = q + 1e-6 * np.sin(np.arange(7)[:, None] * (1.0 + np.arange(q.size)))
    rates = 0.3 + 0.01 * np.arange(len(qs))
    got = [
        chart.positions(qs), chart.gradient(qs, rates), chart.symplectic_matrix(qs),
        chart.momentum_rows(qs), chart.rotation_generators(qs, np.eye(3)),
    ]
    for elements in (dynamics.STACK_ELEMENTS, 1, 5 * chart.dim * chart.m * 3):
        monkeypatch.setattr(dynamics, "STACK_ELEMENTS", elements)
        assert chart.hessian_fd(qs, rates).tobytes() == np.array(
            [chart.hessian_fd(p, xi) for p, xi in zip(qs, rates)]
        ).tobytes()
    for k, (p, xi) in enumerate(zip(qs, rates)):
        want = [
            chart.positions(p), chart.gradient(p, xi), chart.symplectic_matrix(p),
            chart.momentum_rows(p), chart.rotation_generators(p, np.eye(3)),
        ]
        for stacked, one in zip(got, want):
            assert stacked[k].tobytes() == one.tobytes()


def test_pole_chart_stencil_past_the_rim_raises():
    chart = MixedChart(_pole_pair_at_height(1e-4))
    q = chart.coords()
    chart.gradient(q, 0.3)  # the base point itself is inside the disc
    with pytest.raises(PoleSingularity):
        chart.hessian_fd(q, 0.3)


def test_hessian_stencil_memory_stays_bounded(pm_sampler):
    chart = MixedChart(pm_sampler(np.random.default_rng(80), 40, min_chord=0.05))
    q = chart.coords()
    tracemalloc.start()
    try:
        chart.hessian_fd(q, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_classify_an_80_vortex_configuration(tmp_path, capsys):
    path = tmp_path / "rings.json"
    path.write_text(make_family(FamilyDescriptor(Family.DNH_2R, 40, theta0=1.0)).to_json())
    assert main(["classify", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"]


# ---------------------------------------------------------------------------
# the near-collision guard
# ---------------------------------------------------------------------------

GUARD = NEAR_COLLISION_FACTOR * COLLISION_EPS


def _tilted(tilt: float) -> np.ndarray:
    """Rotation taking the equator to the great circle used below."""
    return rotation_axis_matrix(np.array([0.3, -1.0, 0.6]), tilt)


def _on_circle(angle: float, tilt: float) -> np.ndarray:
    return _tilted(tilt) @ np.array([math.cos(angle), math.sin(angle), 0.0])


def _close_pair(chord: float, strength: float, tilt: float) -> Configuration:
    """A pair at ``chord`` on a tilted great circle, plus a far +/-1 pair."""
    half = math.asin(chord / 2.0)
    points = (-half, half, 0.5 * math.pi, -0.5 * math.pi)
    rows = [_on_circle(a, tilt) for a in points]
    return Configuration(
        [r / np.linalg.norm(r) for r in rows], [1.0, strength, 1.0, -1.0]
    )


def _check_partial(exc: CollisionApproach) -> None:
    partial = exc.trajectory
    assert len(partial.positions) == len(partial.times)
    for p in partial.positions[1:]:
        partial.initial.with_positions(p)  # every state is a valid configuration
        l2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
        assert math.sqrt(np.min(l2[np.triu_indices(len(p), k=1)])) >= GUARD
    assert np.all(np.isfinite(partial.energies))


def _simulate(c: Configuration, t_end: float, tol: float) -> tuple[int, list[str]]:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "c.json", Path(tmp) / "t.csv"
        config.write_text(c.to_json())
        rc = main(["simulate", str(config), "--t-end", repr(t_end),
                   "--tol", repr(tol), "--out", str(out)])
        return rc, out.read_text().splitlines()


@settings(max_examples=40, deadline=None)
@given(
    log_chord=st.floats(math.log(1.01 * COLLISION_EPS), math.log(10.0 * GUARD)),
    strength=st.sampled_from([1.0, -1.0]),
    tilt=st.floats(0.0, 2.0 * math.pi),
    turns=st.floats(0.05, 2.0),
    tol=st.sampled_from([1e-10, 1e-6]),
)
def test_near_collision_raises_only_collision_approach(
    log_chord, strength, tilt, turns, tol
):
    c = _close_pair(math.exp(log_chord), strength, tilt)
    p = c.positions
    chord = float(np.linalg.norm(p[0] - p[1]))
    # a close same-sign pair turns at about 2 / chord^2; keep the run short
    t_end = turns * chord**2
    try:
        traj = integrate(c, t_end, tol=tol)
    except CollisionApproach as exc:
        _check_partial(exc)
        traj = exc.trajectory
        expected_rc = EXIT_NUMERIC
    else:
        assert chord >= GUARD
        expected_rc = EXIT_OK
    if chord < GUARD:
        assert expected_rc == EXIT_NUMERIC and len(traj.times) == 1
    rc, lines = _simulate(c, t_end, tol)
    assert rc == expected_rc
    assert len(lines) == 1 + len(traj.times)


@settings(max_examples=25, deadline=None)
@given(
    log_start=st.floats(math.log(2.0 * GUARD), math.log(1e-2)),
    # below 0.1 the end point lies inside COLLISION_EPS
    end_fraction=st.sampled_from([0.0, 0.05]) | st.floats(0.0, 0.9),
    strength=st.sampled_from([1.0, -1.0]),
    tilt=st.floats(0.0, 2.0 * math.pi),
)
def test_guard_trips_before_a_collapsed_state_is_evaluated(
    log_start, end_fraction, strength, tilt
):
    # Vortex 1 alone turns along the pair's great circle and reaches chord
    # ``end_fraction * GUARD`` from vortex 0 exactly at t_end.  The turn is
    # slow, so the last accepted step starts far outside the guard.
    start = math.exp(log_start)
    c = _close_pair(start, strength, tilt)
    normal = _tilted(tilt)[:, 2]
    t_end = 1.0
    turn = 2.0 * math.asin(end_fraction * GUARD / 2.0) - 2.0 * math.asin(start / 2.0)

    def spin(q, pairs, l2=None):
        v = np.zeros_like(q)
        v[1] = (turn / t_end) * np.cross(normal, q[1])
        return v

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_field", spin)
        with pytest.raises(CollisionApproach) as excinfo:
            integrate(c, t_end, tol=1e-10)
        _check_partial(excinfo.value)
        rc, lines = _simulate(c, t_end, 1e-10)
    assert rc == EXIT_NUMERIC
    assert len(lines) == 1 + len(excinfo.value.trajectory.times)
