"""Equilibrium builders, rotation rates, and branch solvers."""

import contextlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import NotTwoRings, TwoRingPhase, rotation_z_matrix, two_ring_phase_test
from vortex_atlas import atlas
from vortex_atlas.atlas import EXIT_NUMERIC, main
from vortex_atlas.core import (
    CollisionError,
    Configuration,
    Family,
    FamilyDescriptor,
    InvalidConfiguration,
    InvalidDescriptor,
    PoleSingularity,
    VortexError,
    _kept_rows,
)
from vortex_atlas.dynamics import _field, _pair_constants, hamiltonian, momentum_map
from vortex_atlas.equilibria import (
    NoRoot,
    NotRelativeEquilibrium,
    OutOfDomain,
    BranchPoint,
    _branch_stack,
    _certify,
    _rigid_rates,
    _vortex_rates,
    branch_c2v_2R2p,
    branch_c2v_RRp2p,
    branch_c2v_RmRmp,
    branch_c2v_RmRmp_all,
    configuration_angular_velocity,
    make_equatorial_pm_ring,
    make_family,
    make_plus_ring_pole_pair,
    make_single_plus_ring,
    make_tetrahedral_pair,
    re_residual,
    ring_angular_velocity,
)
from vortex_atlas.stability import _report, _small_outcomes, analyze_small

# positive root of a^4 + a^2 = 1: the meridian branch crosses the
# anti-diagonal at (a, -a) and (-a, a)
SQUARE_ROOT_HEIGHT = 0.7861513777574233

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_alternating_equatorial_ring_geometry():
    c = make_equatorial_pm_ring(3)
    assert len(c) == 6
    assert np.max(np.abs(c.positions[:, 2])) == 0.0
    assert sorted(c.strengths) == [-1.0] * 3 + [1.0] * 3
    # strengths alternate along the ring
    assert list(c.strengths[:4]) == [1.0, -1.0, 1.0, -1.0]
    with pytest.raises(InvalidDescriptor):
        make_equatorial_pm_ring(1)


def test_tetrahedral_pair_is_a_fixed_equilibrium():
    c = make_tetrahedral_pair()
    assert len(c) == 8
    assert np.max(np.abs(_field(c.positions, _pair_constants(c.strengths)))) < 1e-12
    np.testing.assert_allclose(momentum_map(c), np.zeros(3), atol=1e-15)


def test_two_ring_builder_places_rings_and_poles():
    desc = FamilyDescriptor(Family.DND_RRP, 4, theta0=0.8, k_p=2, lambda_n=-1.0)
    c = make_family(desc)
    p = c.positions
    u = math.cos(0.8)
    np.testing.assert_allclose(p[:4, 2], u, atol=1e-15)
    np.testing.assert_allclose(p[4:8, 2], -u, atol=1e-15)
    np.testing.assert_allclose(p[8], [0, 0, 1], atol=0)
    np.testing.assert_allclose(p[9], [0, 0, -1], atol=0)
    assert c.strengths[8] == -1.0 and c.strengths[9] == 1.0


def _child_stacks(monkeypatch):
    """Per child segment grid of both diagrams: the points its solver finds
    and the position stack built from them."""
    monkeypatch.setattr(atlas, "_branch", lambda solve: solve)
    for n_pairs in (2, 3):
        for seg in atlas._figure_segments(n_pairs):
            if seg.is_parent:
                continue
            solve = seg.evaluate
            points = []
            for x in seg.params.tolist():
                with contextlib.suppress(VortexError):
                    points.append(solve(x))
            points = [point for point in points if point is not None]
            yield seg.label, points, _branch_stack(points)


def test_a_segment_stack_holds_the_configurations_of_its_points(monkeypatch):
    """Each kept row of a child segment's stack has the bits of its point's
    one-point constructor, and a row is kept exactly where that constructor
    does not raise."""
    stacks = list(_child_stacks(monkeypatch))
    assert len(stacks) == 8
    for label, points, (positions, strengths, layout, kept) in stacks:
        assert len(points) == len(positions) == len(kept) > 0, label
        for point, row, keep in zip(points, positions, kept.tolist()):
            try:
                c = point.configuration() if isinstance(point, BranchPoint) else make_plus_ring_pole_pair(point)
            except VortexError:
                assert not keep, (label, point)
                continue
            assert keep, (label, point)
            assert row.tobytes() == c.positions.tobytes(), (label, point)
            assert strengths.tobytes() == c.strengths.tobytes() and layout == c.layout


def test_a_stack_drops_each_row_a_configuration_refuses():
    """Hand-made rows: a NaN, a point off the sphere, a collided pair, and
    their near misses, which a Configuration accepts."""
    good = BranchPoint(0.3, -0.2, 0.0, Family.C2V_2R2P).configuration()
    rows = [good.positions.copy() for _ in range(7)]
    rows[1][2, 0] = math.nan
    rows[2][1] *= 1.0 + 1e-11  # off the sphere by 2e-11
    rows[3][1] *= 1.0 + 1e-13  # within UNIT_NORM_TOL
    for k, chord in ((4, 5e-10), (5, 2e-9)):  # vortex 3 next to vortex 2
        rows[k][3] = rows[k][2] + [0.0, chord, 0.0]
        rows[k][3] /= np.linalg.norm(rows[k][3])
    rows[6][2] = -rows[6][2]  # the minus vortex on the plus one's antipode, far from all
    accepted = []
    for row in rows:
        try:
            Configuration(row, good.strengths, 2, good.layout)
            accepted.append(True)
        except (InvalidConfiguration, CollisionError):
            accepted.append(False)
    assert accepted == [True, False, False, True, False, True, True]
    assert _kept_rows(np.array(rows)).tolist() == accepted
    # and through the builder: an unsolved point (nan) and rings on one another
    points = [BranchPoint(0.3, -0.2, 0.0, Family.C2V_2R2P), BranchPoint(math.nan, 0.1, 0.0, Family.C2V_2R2P),
              BranchPoint(0.3, 0.3, 0.0, Family.C2V_2R2P)]
    positions, _, _, kept = _branch_stack(points)
    assert kept.tolist() == [True, False, False]
    assert positions[0].tobytes() == good.positions.tobytes()
    with pytest.raises(CollisionError):
        points[2].configuration()


def test_make_family_rejects_branch_parametrized_families():
    with pytest.raises(InvalidDescriptor):
        make_family(FamilyDescriptor(Family.C2V_2R2P, 2, theta0=0.5))


# ---------------------------------------------------------------------------
# rotation rates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", [Family.DNH_2R, Family.DND_RRP])
@pytest.mark.parametrize("n,k_p", [(2, 0), (5, 0), (3, 2)])
def test_ring_rate_matches_generic_formula(family, n, k_p):
    desc = FamilyDescriptor(family, n, theta0=0.8, k_p=k_p)
    xi = ring_angular_velocity(desc)
    c = make_family(desc)
    for rate in _vortex_rates(c.positions[None], c.strengths, list(range(2 * n)))[0]:
        assert rate == pytest.approx(xi, abs=1e-10)


@pytest.mark.parametrize("family", [Family.DNH_2R, Family.DND_RRP])
@pytest.mark.parametrize(
    "k_p,theta0", [(0, 1e-9), (2, 1e-9), (2, math.pi - 2e-9)]
)
def test_ring_rate_on_a_pole_raises_pole_singularity(family, k_p, theta0):
    # sin(theta0)^2 rounds to 0 here; the closed form would divide by it
    desc = FamilyDescriptor(family, 3, theta0=theta0, k_p=k_p)
    with pytest.raises(PoleSingularity):
        ring_angular_velocity(desc)


def test_single_ring_rate_closed_form():
    for n in (3, 4, 5):
        c = make_single_plus_ring(n, 1.0)
        expected = math.cos(1.0) * (n - 1) / math.sin(1.0) ** 2
        assert _vortex_rates(c.positions[None], c.strengths, [0])[0, 0] == pytest.approx(expected, abs=1e-12)
        assert configuration_angular_velocity(c) == pytest.approx(
            expected, abs=1e-10
        )


def test_plus_ring_with_polar_counter_vortices():
    theta0 = 1.2
    c = make_plus_ring_pole_pair(theta0)
    u = math.cos(theta0)
    xi = configuration_angular_velocity(c)
    assert xi == pytest.approx(-u / math.sin(theta0) ** 2, abs=1e-12)
    assert xi == pytest.approx(-0.41712796729414825, abs=1e-12)
    assert hamiltonian(c) == pytest.approx(-math.log(1.0 - u * u), abs=1e-12)
    np.testing.assert_allclose(momentum_map(c), [0.0, 0.0, 2.0 * u], atol=1e-14)
    with pytest.raises(OutOfDomain):
        make_plus_ring_pole_pair(0.0)


def _rate_by_loop(c, i):
    """The per-vortex rate as a scalar loop over the partners, in index
    order: the reference for the bits of the array pass."""
    p, lam = c.positions, c.strengths
    rho2 = 1.0 - p[i, 2] ** 2
    total = 0.0
    for j in range(len(c)):
        if j != i:
            dot = float(p[i] @ p[j])
            horizontal = p[i, 0] * p[j, 0] + p[i, 1] * p[j, 1]
            total += lam[j] * (rho2 * p[j, 2] - p[i, 2] * horizontal) / (rho2 * (1.0 - dot))
    return total


def test_rates_have_the_bits_of_a_loop_over_partners():
    # x = -0.90307 and theta0 = 0.4038 give ring heights z where libm's
    # pow(z, 2) is not z * z
    grid = [branch_c2v_RRp2p(x, 1.0, -1).configuration() for x in [-0.90307, *np.linspace(-0.9, 0.9, 60)]]
    members = [
        make_family(FamilyDescriptor(family, n, theta0=theta0, k_p=k_p))
        for family in (Family.DNH_2R, Family.DND_RRP)
        for n in (2, 3, 5)
        for theta0 in (0.4, 0.4038, 1.1)
        for k_p in (0, 2)
    ]
    meridian = [bp.configuration() for x in (-0.9, -0.5, 0.5) for bp in branch_c2v_RmRmp_all(x)]
    for c in grid + members + meridian + [make_plus_ring_pole_pair(0.7), make_single_plus_ring(5, 1.2)]:
        ring = list(c.layout.plus) + list(c.layout.minus)
        want = np.array([_rate_by_loop(c, i) for i in ring])
        assert _vortex_rates(c.positions[None], c.strengths, ring)[0].tobytes() == want.tobytes()
        assert np.float64(configuration_angular_velocity(c)).tobytes() == want[0].tobytes()
    # one array pass over a stack of configurations that share a layout
    stacked, _ = _rigid_rates(np.array([c.positions for c in grid]), grid[0].strengths, grid[0].layout)
    assert stacked.tobytes() == np.array([_rate_by_loop(c, 0) for c in grid]).tobytes()


def test_rate_requires_a_relative_equilibrium(pm_sampler):
    rng = np.random.default_rng(5)
    c = pm_sampler(rng, 2, min_chord=0.4)
    with pytest.raises(VortexError):
        configuration_angular_velocity(c)


def test_re_residual_distinguishes_rates():
    desc = FamilyDescriptor(Family.DNH_2R, 3, theta0=0.7)
    c = make_family(desc)
    xi = float(ring_angular_velocity(desc))
    assert re_residual(c, xi) < 1e-10
    assert re_residual(c, xi + 0.5) > 1e-2


def test_the_certificate_judges_each_configuration_of_a_stack():
    good = make_family(FamilyDescriptor(Family.DNH_2R, 3, theta0=0.9))
    spun = good.positions.copy()
    spun[0] = spun[0] @ rotation_z_matrix(1e-3).T  # one vortex moved along its ring
    turned = good.positions.copy()
    minus = list(good.layout.minus)
    turned[minus] = turned[minus] @ rotation_z_matrix(1e-6).T  # still rigid to 1e-15, residual 2.3e-7
    configs = [good, good.with_positions(spun), good.with_positions(turned)]
    # the diagram's route: the numeric analysis at the branch bound
    outcomes = _small_outcomes(np.array([c.positions for c in configs]), good.strengths, good.layout, 1e-8)
    got = [_report(None, outcome) for outcome in outcomes]
    assert [type(r).__name__ for r in got] == ["StabilityReport", "NotRelativeEquilibrium", "NotRelativeEquilibrium"]
    assert str(got[1]).startswith("per-vortex rotation rates disagree by ")
    assert re.fullmatch(r"co-rotating field residual 2\.3\d\de-07 exceeds 1\.0e-08", str(got[2]))
    assert _small_outcomes(np.empty((0, 6, 3)), good.strengths, good.layout, 1e-8) == []
    # the public solvers' route: one configuration at a time
    _certify(good)
    with pytest.raises(NotRelativeEquilibrium, match="^per-vortex rotation rates disagree by "):
        _certify(configs[1])
    with pytest.raises(OutOfDomain, match=r"^the equilibrium residual 2\.3\d\de-07 exceeds 1e-8$"):
        _certify(configs[2])


@pytest.mark.filterwarnings("error")
def test_a_pair_closer_than_round_off_is_refused_by_its_rates(tmp_path, capsys):
    """At chord 1e-8, above COLLISION_EPS, 1 - x_i . x_j rounds to 0 and the
    pair's rates are 0 / 0: the nan spread refuses the configuration without
    a warning, before a nan Hessian reaches the eigen-solve."""
    c = Configuration(
        [[1.0, 0.0, 0.0], [math.cos(1e-8), math.sin(1e-8), 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
        [1.0, -1.0, 1.0, -1.0],
        pole_count=2,
    )
    with pytest.raises(NotRelativeEquilibrium, match="disagree by nan"):
        analyze_small(c)
    (refused,) = _small_outcomes(c.positions[None], c.strengths, c.layout, 1e-8)
    assert isinstance(refused, NotRelativeEquilibrium)
    with pytest.raises(NotRelativeEquilibrium, match="disagree by nan"):
        _certify(c)
    path = tmp_path / "close.json"
    path.write_text(c.to_json())
    assert main(["classify", str(path)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: per-vortex rotation rates disagree by nan")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# branch solvers
# ---------------------------------------------------------------------------


def test_two_rings_of_two_with_poles_rational_branch():
    for lam in (1.0, -1.0):
        for x in np.linspace(-0.9, 0.9, 13):
            bp = branch_c2v_2R2p(float(x), lam)
            expected_y = (2.0 * lam * x + 1.0) / (x + 2.0 * lam)
            assert bp.y == pytest.approx(expected_y, abs=1e-12)
            c = bp.configuration()
            assert re_residual(c, configuration_angular_velocity(c)) < 1e-8


def _crossed_rings_relation(x: float, y: float, lam: float) -> float:
    return (
        x * x * y * y
        - 2.0 * y * y
        - 2.0 * x * x
        + 2.0 * x * y
        + 1.0
        - 2.0 * lam * (1.0 - x * y) * (x - y)
    )


def test_crossed_rings_branch_satisfies_its_quartic():
    cases = [(1.0, -1), (-1.0, 1), (0.0, -1)]
    for lam, sign in cases:
        solved = 0
        for x in np.linspace(-0.85, 0.85, 18):
            try:
                bp = branch_c2v_RRp2p(float(x), lam, sign)
            except (OutOfDomain, NoRoot):
                continue
            solved += 1
            assert abs(_crossed_rings_relation(bp.x, bp.y, lam)) < 1e-10
            assert bp.alpha == pytest.approx(math.pi / 2)
        assert solved >= 8, f"too few branch points solved for lambda_n={lam}"


def test_crossed_rings_branch_rejects_out_of_range_roots():
    # the other sign choice at x = 0 lands outside the unit interval
    with pytest.raises(OutOfDomain):
        branch_c2v_RRp2p(0.0, 1.0, +1)
    bp = branch_c2v_RRp2p(0.0, 1.0, -1)
    assert bp.y == pytest.approx((1.0 - math.sqrt(3.0)) / 2.0, abs=1e-12)


def test_crossed_rings_branch_geometry():
    bp = branch_c2v_RRp2p(0.2, 1.0, -1)
    c = bp.configuration()
    p = c.positions
    # + ring spans longitudes 0 and pi, - ring is turned a quarter turn
    np.testing.assert_allclose(p[0][1], 0.0, atol=1e-15)
    np.testing.assert_allclose(p[2][0], 0.0, atol=1e-12)
    assert c.pole_count == 2


def test_meridian_branch_roots_are_frozen():
    a = SQUARE_ROOT_HEIGHT
    assert a**4 + a**2 - 1.0 == pytest.approx(0.0, abs=1e-15)

    points = branch_c2v_RmRmp_all(-a)
    ys = [bp.y for bp in points]
    assert ys == pytest.approx([-0.6232358358342481, a], abs=1e-9)

    (across,) = branch_c2v_RmRmp_all(-0.5)
    assert across.y == pytest.approx(0.9533410869496951, abs=1e-9)

    assert branch_c2v_RmRmp_all(0.0) == ()
    # x + 1e-9 rounds up to 1.0, past the scan's top 1 - 1e-9: no bracket at all
    assert branch_c2v_RmRmp_all(1 - 1e-9) == ()
    with pytest.raises(NoRoot):
        branch_c2v_RmRmp(0.0)
    with pytest.raises(OutOfDomain):
        branch_c2v_RmRmp(0.75)
    with pytest.raises(OutOfDomain):
        branch_c2v_RmRmp_all(1.0)


def test_meridian_roots_match_the_golden_file():
    """Every root, digit for digit, at the diagram's 482 parameters and at
    2049 evenly spaced ones over the same range.

    ``tests/golden/meridian_roots.json`` holds ``repr(y)`` of each root, or
    the name of the error raised, as the per-sample scan recorded them.
    """
    golden = json.loads((GOLDEN / "meridian_roots.json").read_text())
    top = 1.0 / math.sqrt(2.0) - 1e-4
    for name, count in (("diagram", 482), ("benchmark", 2049)):
        rows = []
        for x in np.linspace(-0.98, top, count):
            try:
                ys = [repr(bp.y) for bp in branch_c2v_RmRmp_all(float(x))]
            except VortexError as exc:
                ys = type(exc).__name__
            rows.append([repr(float(x)), ys])
        assert rows == golden[name], name


def test_meridian_branch_configurations():
    bp = branch_c2v_RmRmp(-0.5)
    c = bp.configuration()
    p = c.positions
    # all four vortices in one vertical plane
    np.testing.assert_allclose(p[:, 1], 0.0, atol=1e-15)
    # + heights are (x, -y), - heights are (y, -x)
    np.testing.assert_allclose(
        p[list(c.layout.plus), 2], [bp.x, -bp.y], atol=1e-12
    )
    np.testing.assert_allclose(
        p[list(c.layout.minus), 2], [bp.y, -bp.x], atol=1e-12
    )
    assert re_residual(c, configuration_angular_velocity(c)) < 1e-8


# ---------------------------------------------------------------------------
# ring phase classification
# ---------------------------------------------------------------------------


def test_two_ring_phase_of_constructed_families():
    aligned = make_family(FamilyDescriptor(Family.DNH_2R, 4, theta0=0.7))
    assert two_ring_phase_test(aligned) is TwoRingPhase.IN_PHASE
    staggered = make_family(FamilyDescriptor(Family.DND_RRP, 4, theta0=0.7, k_p=2))
    assert two_ring_phase_test(staggered) is TwoRingPhase.OUT_OF_PHASE_BY_PI_OVER_N


def test_two_ring_phase_neither_for_intermediate_offset():
    offset = 0.3
    theta = np.array([0.7, 0.7, 2.2, 2.2])
    phi = np.array([0.0, math.pi, offset, math.pi + offset])
    positions = np.column_stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    c = Configuration(positions, [1.0, 1.0, -1.0, -1.0])
    assert two_ring_phase_test(c) is TwoRingPhase.NEITHER


def test_two_ring_phase_rejects_non_ring_configurations():
    with pytest.raises(NotTwoRings):
        two_ring_phase_test(make_single_plus_ring(3, 0.8))
    with pytest.raises(NotTwoRings):
        two_ring_phase_test(make_tetrahedral_pair())
