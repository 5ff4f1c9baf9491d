"""Error paths of the public API: each bad call raises its typed error."""

import math

import numpy as np
import pytest

from oracles import (
    GroupElement,
    NotTwoRings,
    deciding_scalars_ab,
    deciding_scalars_rs,
    spectrum_match,
    two_ring_phase_test,
)
from vortex_atlas.atlas import build_diagram
from vortex_atlas.core import (
    Configuration,
    Family,
    FamilyDescriptor,
    InvalidConfiguration,
    InvalidDescriptor,
    Layout,
    PoleSingularity,
)
from vortex_atlas.equilibria import (
    BranchPoint,
    NotRelativeEquilibrium,
    OutOfDomain,
    branch_c2v_2R2p,
    branch_c2v_RRp2p,
    configuration_angular_velocity,
    make_family,
    make_single_plus_ring,
    ring_angular_velocity,
)
from vortex_atlas.stability import analyze, analyze_small, list_transitions

DNH = Family.DNH_2R


def _poles_only():
    return Configuration([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1.0, -1.0], 2, Layout((), (), 0, 1))


def _ring_vortex_on_a_pole():
    """No pole vortices, so nothing exempts the vortex at the north pole from
    the rate formula."""
    positions = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
    return Configuration(positions, [1.0, 1.0, -1.0, -1.0])


def _not_rigid_with_poles_on_the_equator():
    """Its rates disagree, and its pole vortices leave the chart no hemisphere."""
    positions = [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
    return Configuration(positions, [1.0, -1.0, 1.0, -1.0], 2, Layout((0,), (1,), 2, 3))


CASES = [
    (lambda: branch_c2v_2R2p(1.5), OutOfDomain, "must lie in (-1, 1)"),
    (lambda: branch_c2v_2R2p(0.5, 0.0), OutOfDomain, "needs pole vortices"),
    (lambda: branch_c2v_2R2p(-0.5, 0.25), OutOfDomain, "degenerates at x = -2 lambda_n"),
    (lambda: branch_c2v_2R2p(0.5, 0.1), OutOfDomain, "solved y = 1.57143 leaves (-1, 1)"),
    (lambda: branch_c2v_RRp2p(2.0), OutOfDomain, "must lie in (-1, 1)"),
    (lambda: branch_c2v_RRp2p(0.2, 1.0, 0), OutOfDomain, "sign must be +1 or -1"),
    (lambda: branch_c2v_RRp2p(1 - math.sqrt(3), 1.0), OutOfDomain, "degenerates at this x"),
    (lambda: two_ring_phase_test(make_family(FamilyDescriptor(DNH, 3, theta0=1e-9))), NotTwoRings, "on a pole"),
    (lambda: deciding_scalars_rs(FamilyDescriptor(DNH, 2, theta0=0.9)), InvalidDescriptor, "ring size >= 3"),
    (lambda: deciding_scalars_ab(FamilyDescriptor(DNH, 3, theta0=0.9)), InvalidDescriptor, "ring size >= 4"),
    (lambda: analyze(FamilyDescriptor(Family.TETRAHEDRAL_PAIR, 2)), InvalidDescriptor, "use analyze_small"),
    (lambda: list_transitions("TetrahedralPair", 2, 0), InvalidDescriptor, "cover the two-ring families"),
    (lambda: FamilyDescriptor.from_json("{"), InvalidDescriptor, "malformed descriptor JSON"),
    (lambda: FamilyDescriptor("Foo", 2), InvalidDescriptor, "unknown family name 'Foo'"),
    (lambda: FamilyDescriptor(DNH, 3, theta0=math.pi, k_p=2).validate(), InvalidDescriptor, "(0, pi)"),
    (lambda: FamilyDescriptor(Family.TETRAHEDRAL_PAIR, 2, k_p=2).validate(), InvalidDescriptor, "has no poles"),
    (lambda: make_single_plus_ring(1, 1.0), InvalidDescriptor, "at least two vortices"),
    (lambda: ring_angular_velocity(FamilyDescriptor(Family.EQUATORIAL_PM_RING, 2)), InvalidDescriptor,
     "two-ring families only"),
    (lambda: Configuration([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], [1.0, -1.0, 1.0], pole_count=1),
     InvalidConfiguration, "pole_count must be 0 or 2"),
    (lambda: Configuration([[0, 0, 1.0], [0, 0, -1.0]], [1.0, -1.0], pole_count=2), InvalidConfiguration,
     "at least one ring vortex"),
    (lambda: GroupElement(np.eye(2)), InvalidConfiguration, "3x3 matrix"),
    (lambda: configuration_angular_velocity(_poles_only()), PoleSingularity, "no ring rate"),
    (lambda: configuration_angular_velocity(_ring_vortex_on_a_pole()), PoleSingularity,
     "vortex sits too close to a pole for the rate formula"),
    (lambda: build_diagram(4), OutOfDomain, "the diagram is built for 2 or 3 vortex pairs"),
    (lambda: spectrum_match(np.zeros(2), np.zeros(3)), ValueError, "equal size"),
    # the rates are checked before the chart is built
    (lambda: analyze_small(_not_rigid_with_poles_on_the_equator()), NotRelativeEquilibrium, "rates disagree"),
    # a ring size or pole count no descriptor takes is refused before the scan
    *[(lambda n=n: list_transitions(DNH, n, 0), InvalidDescriptor, "ring families need 2 <= n_per_ring <= 256")
      for n in (0, 1, -1, 300)],
    (lambda: list_transitions(DNH, 3, 1), InvalidDescriptor, "k_p must be 0 or 2"),
    # a fractional ring size or pole count is refused, not truncated, and a field that
    # does not convert is refused with the descriptor's error
    (lambda: analyze(FamilyDescriptor(Family.DND_RRP, 3.9, 0.9)), InvalidDescriptor,
     "n_per_ring and k_p must be whole numbers, got 3.9 and 0"),
    (lambda: list_transitions(DNH, 2.7, 0.0), InvalidDescriptor, "whole numbers, got 2.7 and 0.0"),
    (lambda: FamilyDescriptor(DNH, "3"), InvalidDescriptor, "whole numbers, got '3' and 0"),
    (lambda: FamilyDescriptor(DNH, 3, k_p=0.5), InvalidDescriptor, "whole numbers, got 3 and 0.5"),
    (lambda: FamilyDescriptor(DNH, "x"), InvalidDescriptor, "bad descriptor field"),
    (lambda: FamilyDescriptor(DNH, math.nan), InvalidDescriptor, "bad descriptor field"),
    (lambda: FamilyDescriptor(DNH, math.inf), InvalidDescriptor, "bad descriptor field"),
    (lambda: FamilyDescriptor(DNH, 3, theta0=None), InvalidDescriptor, "bad descriptor field"),
    # a branch point off the square of ring cosines is refused before its co-latitudes are taken
    *[(lambda p=p: BranchPoint(*p).configuration(), OutOfDomain, "must lie in [-1, 1]")
      for p in ((1.5, 0.2, 0.0, Family.C2V_2R2P, 1.0), (0.2, -1.5, math.pi / 2, Family.C2V_RRP2P, 1.0),
                (0.2, 1.5, math.pi, Family.C2V_RM_RMP, 0.0), (-2.0, 0.5, math.pi, Family.C2V_RM_RMP, 0.0))],
]


@pytest.mark.parametrize("call, error, fragment", CASES)
def test_each_bad_call_raises_its_error(call, error, fragment):
    with pytest.raises(error) as raised:
        call()
    assert fragment in str(raised.value)
