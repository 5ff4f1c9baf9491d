"""Sphere geometry, configurations, symmetry action, and descriptors."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rotation_axis_matrix
from oracles import (
    GroupElement,
    apply_group_element,
    is_fixed_by,
    mirror_y_matrix,
    mirror_z_matrix,
    rotation_z_matrix,
    with_negated_strengths,
)
from vortex_atlas.core import (
    MAX_RING_SIZE,
    CollisionError,
    Configuration,
    Family,
    FamilyDescriptor,
    InvalidConfiguration,
    InvalidDescriptor,
    Layout,
    PoleSingularity,
)
from vortex_atlas.dynamics import MixedChart
from vortex_atlas.equilibria import make_equatorial_pm_ring, make_family

X_HAT = [1.0, 0.0, 0.0]
Y_HAT = [0.0, 1.0, 0.0]
Z_HAT = [0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


def test_unit_vector_must_lie_on_sphere():
    for bad in ([1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0 + 2e-12]):
        with pytest.raises(InvalidConfiguration):
            Configuration([X_HAT, bad], [1.0, -1.0])
    for bad in ([math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(InvalidConfiguration):
            Configuration([X_HAT, bad], [1.0, -1.0])
    # within UNIT_NORM_TOL of the sphere is on it
    Configuration([X_HAT, [0.0, 0.0, 1.0 + 2e-13]], [1.0, -1.0])


# ---------------------------------------------------------------------------
# sphere charts (ring vortices by co-latitude/longitude, poles by (x, y))
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=1e-3, max_value=math.pi - 1e-3),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
def test_spherical_round_trip(theta, phi):
    s = math.sin(theta)
    ring = [s * math.cos(phi), s * math.sin(phi), math.cos(theta)]
    c = Configuration([ring, [-x for x in ring]], [1.0, -1.0])
    chart = MixedChart(c)
    q = chart.coords()
    assert q[0] == pytest.approx(theta, abs=1e-12)
    assert 0.0 <= q[2] < 2.0 * math.pi
    assert math.isclose(
        math.cos(q[2] - phi), 1.0, abs_tol=1e-9
    ), f"longitude {q[2]} differs from {phi}"
    np.testing.assert_allclose(chart.positions(q), c.positions, atol=1e-12)


def test_pole_chart_round_trip():
    """Pole vortices get their ambient (x, y); z is rebuilt from their
    hemisphere, and (x, y) outside the unit disc has no point."""
    north, south = [0.3, -0.2, math.sqrt(0.87)], [0.3, -0.2, -math.sqrt(0.87)]
    c = Configuration([X_HAT, north, south], [1.0, 2.0, -2.0], pole_count=2)
    chart = MixedChart(c)
    q = chart.coords()
    assert q[2:].tolist() == north[:2] + south[:2]
    p = chart.positions(q)
    assert p[2, 0] == pytest.approx(0.3)
    assert p[2, 1] == pytest.approx(-0.2)
    assert p[2, 2] == pytest.approx(-math.sqrt(1.0 - 0.09 - 0.04))
    np.testing.assert_allclose(p, c.positions, atol=1e-15)
    with pytest.raises(PoleSingularity):
        chart.positions(np.concatenate([q[:2], [0.8, 0.8], q[4:]]))
    with pytest.raises(InvalidConfiguration):
        Configuration([X_HAT, [0.0, 0.6, 0.8], Y_HAT], [1.0, 2.0, -2.0], pole_count=2)


def test_configuration_shapes_are_checked():
    with pytest.raises(InvalidConfiguration):
        Configuration([[1.0, 0.0]], [1.0])
    with pytest.raises(InvalidConfiguration):
        Configuration([X_HAT, Y_HAT], [1.0])
    with pytest.raises(InvalidConfiguration):
        Configuration([X_HAT, [0.0, 1.0]], [1.0, -1.0])


def test_configuration_arrays_are_read_only_copies():
    p = np.array([X_HAT, Y_HAT])
    c = Configuration(p, [1.0, -1.0])
    p[0] = Z_HAT
    assert c.positions[0].tolist() == X_HAT
    assert not c.positions.flags.writeable
    assert not c.strengths.flags.writeable


def test_with_positions_normalizes_rows():
    c = Configuration([X_HAT, Y_HAT], [1.0, -1.0])
    moved = c.with_positions([[3.0, 0.0, 4.0], [0.0, -2.0, 0.0]])
    np.testing.assert_allclose(moved.positions, [[0.6, 0.0, 0.8], [0.0, -1.0, 0.0]], atol=1e-15)
    for bad in ([[0.0, 0.0, 0.0], Y_HAT], [[math.nan, 0.0, 1.0], Y_HAT]):
        with pytest.raises(InvalidConfiguration):
            c.with_positions(bad)
    with pytest.raises(InvalidConfiguration):
        c.with_positions(np.ones((2, 4)))


def test_vortex_strength_must_be_finite_nonzero():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidConfiguration):
            Configuration([Z_HAT, X_HAT], [bad, 1.0])


def test_ring_populations_enforce_unit_strengths():
    positions, strengths = [X_HAT, Y_HAT], [-1.0, 1.0]
    with pytest.raises(InvalidConfiguration):
        Configuration(positions, strengths, 0, Layout(plus=(0,), minus=(1,)))
    # the same vortices are fine once labeled consistently
    ok = Configuration(positions, strengths, 0, Layout(plus=(1,), minus=(0,)))
    assert len(ok) == 2


def test_configuration_rejects_collisions():
    with pytest.raises(CollisionError):
        Configuration([X_HAT, X_HAT], [1.0, -1.0])


def test_layout_must_cover_each_index_once():
    positions, strengths = [X_HAT, Y_HAT], [1.0, -1.0]
    with pytest.raises(InvalidConfiguration):
        Configuration(positions, strengths, 0, Layout(plus=(0, 0), minus=()))
    with pytest.raises(InvalidConfiguration):
        Configuration(positions, strengths, 0, Layout(plus=(0,), minus=()))


def test_pole_count_and_layout_must_agree():
    with pytest.raises(InvalidConfiguration):
        Configuration([X_HAT, Y_HAT], [1.0, -1.0], 2, Layout(plus=(0,), minus=(1,)))


def test_negating_strengths_swaps_populations():
    c = make_family(FamilyDescriptor(Family.DND_RRP, 3, theta0=0.8, k_p=2))
    flipped = with_negated_strengths(c)
    assert flipped.layout.plus == c.layout.minus
    assert flipped.layout.minus == c.layout.plus
    np.testing.assert_allclose(flipped.strengths, -c.strengths)
    np.testing.assert_allclose(flipped.positions, c.positions)


def test_with_positions_keeps_strengths_and_layout():
    c = make_equatorial_pm_ring(2)
    rot = rotation_z_matrix(0.4)
    moved = c.with_positions(c.positions @ rot.T)
    assert moved.layout == c.layout
    np.testing.assert_allclose(moved.strengths, c.strengths)
    np.testing.assert_allclose(moved.positions, c.positions @ rot.T, atol=1e-15)


def test_configuration_json_round_trip():
    c = make_family(FamilyDescriptor(Family.DND_RRP, 3, theta0=0.7, k_p=2))
    back = Configuration.from_json(c.to_json())
    assert back.pole_count == c.pole_count
    np.testing.assert_allclose(back.positions, c.positions, atol=1e-15)
    np.testing.assert_allclose(back.strengths, c.strengths)
    assert back.layout.north is not None and back.layout.south is not None
    # the more northerly pole slot is the north one
    assert back.positions[back.layout.north][2] > 0


def test_from_json_validates_payloads():
    with pytest.raises(InvalidConfiguration):
        Configuration.from_json("not json")
    with pytest.raises(InvalidConfiguration):
        Configuration.from_json('{"poles": 0}')
    with pytest.raises(InvalidConfiguration):
        Configuration.from_json('{"vortices": []}')
    with pytest.raises(InvalidConfiguration):
        Configuration.from_json(
            '{"vortices": [{"pos": [1, 0], "strength": 1}]}'
        )


def test_from_json_pole_strength_strictness():
    # a +ring balanced by two equal negative pole vortices: legal to build
    # directly, rejected by the strict parser, accepted when relaxed
    payload = {
        "vortices": [
            {"pos": [math.sin(1.2), 0.0, math.cos(1.2)], "strength": 1.0},
            {"pos": [-math.sin(1.2), 0.0, math.cos(1.2)], "strength": 1.0},
            {"pos": [0.0, 0.0, 1.0], "strength": -1.0},
            {"pos": [0.0, 0.0, -1.0], "strength": -1.0},
        ],
        "poles": 2,
    }
    text = json.dumps(payload)
    with pytest.raises(InvalidConfiguration):
        Configuration.from_json(text)


# ---------------------------------------------------------------------------
# group elements and their action
# ---------------------------------------------------------------------------


def test_group_element_requires_orthogonal_matrix():
    with pytest.raises(InvalidConfiguration):
        GroupElement(np.diag([1.0, 2.0, 1.0]))
    # max|A^T A - I| of a NaN matrix is NaN, which no bound rejects by itself
    with pytest.raises(InvalidConfiguration):
        GroupElement(np.full((3, 3), np.nan))
    with pytest.raises(InvalidConfiguration):
        GroupElement(np.diag([1.0, 1.0, math.inf]))
    for power in (1.7, 2, -1):
        with pytest.raises(InvalidConfiguration):
            GroupElement(np.eye(3), tau_power=power)
    assert GroupElement(np.eye(3), tau_power=1.0).tau_power == 1


def test_temporal_character_values():
    rot = GroupElement(rotation_z_matrix(0.7))
    assert rot.chi == 1
    mirror = GroupElement(mirror_y_matrix())
    assert mirror.chi == -1
    swap = GroupElement(rotation_z_matrix(0.7), tau_power=1)
    assert swap.chi == -1
    mirror_swap = GroupElement(mirror_z_matrix(), tau_power=1)
    assert mirror_swap.chi == 1


_ELEMENT_POOL = [
    GroupElement(rotation_z_matrix(2.0 * math.pi / 3)),
    GroupElement(mirror_y_matrix()),
    GroupElement(rotation_axis_matrix(np.array([1.0, 1.0, 0.0]), 0.9), 1),
    GroupElement(mirror_z_matrix(), 1),
]


def test_action_preserves_chord_distances(pm_sampler):
    rng = np.random.default_rng(11)
    c = pm_sampler(rng, 3, min_chord=0.2)
    for g in _ELEMENT_POOL:
        moved = apply_group_element(g, c)
        for p in (c, moved):
            assert sorted(np.round(p.strengths, 12)) == [-1.0] * 3 + [1.0] * 3
        gram_old = c.positions @ c.positions.T
        gram_new = moved.positions @ moved.positions.T
        # same multiset of pairwise separations
        old = np.sort(gram_old[np.triu_indices(6, 1)])
        new = np.sort(gram_new[np.triu_indices(6, 1)])
        np.testing.assert_allclose(new, old, atol=1e-12)


def test_population_swap_moves_minus_positions_into_plus_slots():
    c = make_equatorial_pm_ring(2)
    g = GroupElement(np.eye(3), tau_power=1)
    swapped = apply_group_element(g, c)
    np.testing.assert_allclose(
        swapped.positions[list(c.layout.plus)],
        c.positions[list(c.layout.minus)],
        atol=1e-15,
    )
    # strengths stay attached to the slots
    np.testing.assert_allclose(swapped.strengths, c.strengths)


def test_population_swap_needs_balanced_rings():
    lop = Configuration([X_HAT, Y_HAT], [1.0, 1.0])
    g = GroupElement(np.eye(3), tau_power=1)
    with pytest.raises(InvalidConfiguration):
        apply_group_element(g, lop)


def test_alternating_ring_symmetries():
    c = make_equatorial_pm_ring(3)
    # rotation by one full spacing permutes each population into itself
    step = GroupElement(rotation_z_matrix(2.0 * math.pi / 3))
    assert is_fixed_by(c, step)
    # rotation by half a spacing exchanges the two populations
    half = GroupElement(rotation_z_matrix(math.pi / 3), tau_power=1)
    assert is_fixed_by(c, half)
    # the equatorial plane mirror fixes every vortex
    flat = GroupElement(mirror_z_matrix())
    assert is_fixed_by(c, flat)
    # a generic rotation is not a symmetry
    skew = GroupElement(rotation_z_matrix(0.3))
    assert not is_fixed_by(c, skew)


def test_two_ring_symmetry_with_poles():
    c = make_family(FamilyDescriptor(Family.DNH_2R, 4, theta0=0.6, k_p=2))
    step = GroupElement(rotation_z_matrix(math.pi / 2))
    assert is_fixed_by(c, step)
    # swapping the rings flips the poles too, which works out because the
    # upside-down flip maps each ring onto the other
    flip = GroupElement(rotation_axis_matrix(np.array([1.0, 0.0, 0.0]), math.pi), tau_power=1)
    assert is_fixed_by(c, flip)


# ---------------------------------------------------------------------------
# family descriptors
# ---------------------------------------------------------------------------


def test_descriptor_validation():
    with pytest.raises(InvalidDescriptor):
        FamilyDescriptor(Family.DNH_2R, 1, theta0=0.5).validate()
    with pytest.raises(InvalidDescriptor):
        FamilyDescriptor(Family.DNH_2R, 3, theta0=2.0).validate()  # k_p = 0
    with pytest.raises(InvalidDescriptor):
        FamilyDescriptor(Family.DNH_2R, 3, theta0=0.5, k_p=1).validate()
    with pytest.raises(InvalidDescriptor):
        FamilyDescriptor(Family.DNH_2R, 3, theta0=0.5, k_p=2, lambda_n=0.0).validate()
    with pytest.raises(InvalidDescriptor):
        FamilyDescriptor(Family.EQUATORIAL_PM_RING, 3, k_p=2).validate()
    # poles widen the admissible co-latitude range to the whole sphere
    FamilyDescriptor(Family.DNH_2R, 3, theta0=2.0, k_p=2).validate()


def test_descriptor_labels():
    assert FamilyDescriptor(Family.DNH_2R, 3, theta0=0.5).label == "D3h(2R)"
    assert FamilyDescriptor(Family.DND_RRP, 4, theta0=0.5).label == "D4d(R,R')"
    assert (
        FamilyDescriptor(Family.DNH_2R, 4, theta0=0.5, k_p=2).label
        == "D4h(2R,2p)"
    )
    assert FamilyDescriptor(Family.EQUATORIAL_PM_RING, 2).label == "D4h(Re)"
    assert FamilyDescriptor(Family.C2V_2R2P, 2).label == "C2v_2R2p"
    assert FamilyDescriptor(Family.C2V_RRP2P, 2).label == "C2v_RRp2p"
    assert FamilyDescriptor(Family.C2V_RM_RMP, 2).label == "C2v_RmRmp"


def test_descriptor_json_round_trip():
    desc = FamilyDescriptor(Family.DND_RRP, 5, theta0=1.1, k_p=2, lambda_n=-1.0)
    back = FamilyDescriptor.from_json(desc.to_json())
    assert back == desc
    assert FamilyDescriptor.from_mapping(desc.as_dict()) == desc
    assert list(desc.as_dict()) == ["family", "N", "theta0", "kp", "lambda_n"]


def test_descriptor_mapping_accepts_short_family_names():
    assert FamilyDescriptor("DNd", 3) == FamilyDescriptor(Family.DND_RRP, 3)
    assert FamilyDescriptor("DNh2R", 3, k_p=2) == FamilyDescriptor(Family.DNH_2R, 3, k_p=2)
    desc = FamilyDescriptor.from_mapping({"family": "DNh", "N": 4, "theta0": 0.9})
    assert desc.family is Family.DNH_2R
    assert desc.n_per_ring == 4
    with pytest.raises(InvalidDescriptor):
        FamilyDescriptor.from_mapping({"family": "nope"})
    with pytest.raises(InvalidDescriptor):
        FamilyDescriptor.from_mapping({"family": "DNh", "N": np.bool_(True)})


@pytest.mark.parametrize("family", list(Family))
@given(
    n=st.integers(2, MAX_RING_SIZE),
    k_p=st.sampled_from((0, 2)),
    lambda_n=st.floats(-10.0, 10.0),
    theta0=st.floats(0.0, math.pi),
)
@settings(max_examples=20, deadline=None)
def test_a_member_keeps_every_field_of_its_template_but_the_latitude(family, n, k_p, lambda_n, theta0):
    ring = FamilyDescriptor(family, n, k_p=k_p, lambda_n=lambda_n)
    member = ring.at(theta0)
    assert member.theta0 == theta0
    assert replace(member, theta0=ring.theta0) == ring


@pytest.mark.parametrize(
    "payload",
    [
        {"family": "DNh", "N": 257, "theta0": 0.9},
        {"family": "DNd", "N": 1e9, "theta0": 0.9},
        {"family": "DNd", "N": 257, "theta0": 2.0, "kp": 2},
        {"family": "EquatorialPmRing", "N": 257},
        {"family": "EquatorialPmRing", "N": 1e9},
    ],
)
def test_descriptor_mapping_bounds_the_ring_size(payload):
    with pytest.raises(InvalidDescriptor):
        FamilyDescriptor.from_mapping(payload)
    FamilyDescriptor.from_mapping({**payload, "N": MAX_RING_SIZE})


def test_descriptor_mapping_accepts_numpy_scalars():
    desc = FamilyDescriptor.from_mapping(
        {"family": "DNd", "N": np.int64(5), "theta0": np.float32(1.0), "kp": np.int64(2)}
    )
    assert desc == FamilyDescriptor(Family.DND_RRP, 5, theta0=float(np.float32(1.0)), k_p=2)
    assert type(desc.n_per_ring) is int and type(desc.k_p) is int
    with pytest.raises(InvalidDescriptor):
        FamilyDescriptor.from_json("[1, 2]")


@pytest.mark.parametrize("payload", [[1], None, "x", 3])
def test_descriptor_mapping_refuses_a_payload_that_is_not_an_object(payload):
    """As ``Configuration.from_mapping`` refuses each of them with its typed error."""
    with pytest.raises(InvalidDescriptor, match="descriptor JSON must be an object"):
        FamilyDescriptor.from_mapping(payload)
    with pytest.raises(InvalidDescriptor, match="descriptor JSON must be an object"):
        FamilyDescriptor.from_json(json.dumps(payload))
