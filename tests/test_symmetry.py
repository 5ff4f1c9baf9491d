"""Every printed symmetry label is carried by configurations with that symmetry.

``classify`` prints ``FamilyDescriptor.label`` and ``diagram`` prints a
label per segment.  One table maps each label to generators ``(A, tau)``
of its isotropy group and to a few elements outside that group; a
configuration carries its label when every generator fixes it and no
outside element does.
"""

import math

import numpy as np

from oracles import (
    GroupElement,
    TwoRingPhase,
    is_fixed_by,
    mirror_y_matrix,
    mirror_z_matrix,
    two_ring_phase_test,
)
from oracles import rotation_z_matrix as _rz
from vortex_atlas import atlas
from vortex_atlas.core import (
    Configuration,
    Family,
    FamilyDescriptor,
    Layout,
    VortexError,
)
from vortex_atlas.equilibria import (
    branch_c2v_2R2p,
    branch_c2v_RmRmp,
    branch_c2v_RmRmp_all,
    branch_c2v_RRp2p,
    make_equatorial_pm_ring,
    make_family,
    two_ring_positions,
)

MX = np.diag([-1.0, 1.0, 1.0])
MY = mirror_y_matrix()
MZ = mirror_z_matrix()
RING_SIZES = range(2, 7)
# every STRIDE-th parameter of each diagram segment's grid is checked
STRIDE = 4


def _g(a: np.ndarray, tau_power: int = 0) -> GroupElement:
    return GroupElement(a, tau_power)


def _symmetry_table() -> dict[str, tuple[tuple[GroupElement, ...], tuple[GroupElement, ...]]]:
    """Printed label -> (generators of its group, elements outside it)."""
    table = {}
    for n in RING_SIZES:
        step, half = _rz(2.0 * math.pi / n), _rz(math.pi / n)
        for k_p in (0, 2):
            table[FamilyDescriptor(Family.DNH_2R, n, k_p=k_p).label] = (
                (_g(step), _g(MY), _g(MZ, 1)),
                (_g(half), _g(MZ)),
            )
            table[FamilyDescriptor(Family.DND_RRP, n, k_p=k_p).label] = (
                (_g(step), _g(MY), _g(half @ MZ, 1)),
                (_g(MZ, 1),),
            )
        table[FamilyDescriptor(Family.EQUATORIAL_PM_RING, n).label] = (
            (_g(half, 1), _g(MY), _g(MZ)),
            (_g(half),),
        )
    table[FamilyDescriptor(Family.TETRAHEDRAL_PAIR).label] = (
        (_g(_rz(math.pi)), _g(-np.eye(3), 1)),
        (_g(_rz(math.pi / 2)),),
    )
    c2v = (_g(_rz(math.pi)), _g(MY), _g(MX))
    for label in ("C2v(R,R')", "C2v(R,R',2p)", "C2v(2R,2p)"):
        table[label] = (c2v, (_g(MZ, 1),))
    # no - ring for tau to exchange
    table["C2v(R,2p)"] = (c2v, (_g(MZ),))
    table["C2v(Rm,Rm')"] = ((_g(MY), _g(MZ, 1)), (_g(_rz(math.pi)), _g(MX), _g(MZ)))
    return table


TABLE = _symmetry_table()


def _printed(label: str) -> str:
    """A diagram segment's label without its ``(a) `` ... ``(e) `` prefix."""
    return label.split(" ", 1)[1]


def _branch_label(bp) -> str:
    """The label the diagram prints for a branch point's family."""
    poles = bp.lambda_n != 0.0
    return {
        (Family.C2V_2R2P, True): "C2v(2R,2p)",
        (Family.C2V_RRP2P, False): "C2v(R,R')",
        (Family.C2V_RRP2P, True): "C2v(R,R',2p)",
        (Family.C2V_RM_RMP, False): "C2v(Rm,Rm')",
    }[bp.family, poles]


def _answers(label: str, c: Configuration) -> list[bool]:
    """``is_fixed_by`` for each generator, then each outside element."""
    generators, outside = TABLE[label]
    return [is_fixed_by(c, g) for g in generators + outside]


def _misfits(label: str, c: Configuration) -> list[str]:
    generators, outside = TABLE[label]
    return [f"generator {k} does not fix it"
            for k, g in enumerate(generators) if not is_fixed_by(c, g)] + [
        f"outside element {k} fixes it" for k, g in enumerate(outside) if is_fixed_by(c, g)
    ]


def _family_members():
    for n in RING_SIZES:
        for k_p, thetas in ((0, (0.3, 0.9, 1.4)), (2, (0.3, 1.4, 2.2))):
            for family in (Family.DNH_2R, Family.DND_RRP):
                for theta0 in thetas:
                    yield FamilyDescriptor(family, n, theta0, k_p)
        yield FamilyDescriptor(Family.EQUATORIAL_PM_RING, n)
    yield FamilyDescriptor(Family.TETRAHEDRAL_PAIR)


def _branch_points():
    xs = np.linspace(-0.9, 0.9, 7)
    for x in xs:
        yield branch_c2v_2R2p(x)
        for lambda_n in (0.0, 1.0):
            for sign in (1, -1):
                try:
                    yield branch_c2v_RRp2p(x, lambda_n, sign)
                except VortexError:
                    pass
    for x in np.linspace(-0.95, 1 / math.sqrt(2.0) - 1e-4, 9):
        yield from branch_c2v_RmRmp_all(x)
    yield branch_c2v_RmRmp(-0.5)


def test_family_labels_name_their_symmetry():
    for desc in _family_members():
        assert _misfits(desc.label, make_family(desc)) == [], desc


def test_branch_solver_outputs_carry_their_labels():
    points = list(_branch_points())
    assert {_branch_label(bp) for bp in points} == {
        "C2v(2R,2p)", "C2v(R,R')", "C2v(R,R',2p)", "C2v(Rm,Rm')"
    }
    for bp in points:
        assert _misfits(_branch_label(bp), bp.configuration()) == [], bp


def _segment_samples(n_pairs: int, monkeypatch) -> dict[str, list[Configuration]]:
    """The configurations each diagram segment evaluates on a thinned grid,
    keyed by the segment's printed label, and the fixed point ``E``."""
    seen: list[Configuration] = []
    ring_labels: set[str] = set()

    def record_small(positions, strengths, layout, bound):
        seen.extend(Configuration(p, strengths, 0 if layout.north is None else 2, layout) for p in positions)
        return [VortexError("only the configuration is needed")] * len(positions)

    def record_members(family, n, k_p, lambda_n, thetas):
        positions, strengths, clear = two_ring_positions(family, n, k_p, lambda_n, thetas)
        layout = Layout.standard(n, n, k_p)
        seen.extend(Configuration(p, strengths, k_p, layout) for p, ok in zip(positions, clear) if ok)
        ring_labels.add(FamilyDescriptor(family, n, k_p=k_p, lambda_n=lambda_n).label)
        return positions, strengths, clear

    monkeypatch.setattr(atlas, "_small_outcomes", record_small)
    monkeypatch.setattr(atlas, "two_ring_positions", record_members)
    samples: dict[str, list[Configuration]] = {}
    for seg in atlas._figure_segments(n_pairs):
        seen.clear()
        ring_labels.clear()
        seg.params = seg.params[::STRIDE]
        seg.sample()
        label = _printed(seg.label)
        if seg.ring:
            assert ring_labels == {label}
        assert seen, seg.label
        samples.setdefault(label, []).extend(seen)
    samples["E"] = [make_equatorial_pm_ring(n_pairs)]
    return samples


def test_every_diagram_label_is_carried_by_its_samples(monkeypatch):
    for n_pairs in (2, 3):
        samples = _segment_samples(n_pairs, monkeypatch)
        assert len(samples) == 6
        equatorial = FamilyDescriptor(Family.EQUATORIAL_PM_RING, n_pairs).label
        for label, configs in samples.items():
            key = equatorial if label == "E" else label
            for c in configs:
                assert _misfits(key, c) == [], (n_pairs, label, c.positions)


def _relabellings(c: Configuration):
    """``c`` with each ring population reversed, then rotated by one slot,
    under the same layout."""
    for reorder in (lambda ring: ring[::-1], lambda ring: ring[1:] + ring[:1]):
        source = np.arange(len(c))
        for ring in (c.layout.plus, c.layout.minus):
            source[list(ring)] = reorder(ring)
        yield Configuration(c.positions[source], c.strengths, c.pole_count, c.layout)


def test_relabelling_never_changes_is_fixed_by():
    labelled = [(desc.label, make_family(desc)) for desc in _family_members()]
    labelled += [(_branch_label(bp), bp.configuration()) for bp in _branch_points()]
    for label, c in labelled:
        answers = _answers(label, c)
        for relabelled in _relabellings(c):
            assert not np.array_equal(relabelled.positions, c.positions)
            assert _answers(label, relabelled) == answers, label


def _two_ring_variants(desc: FamilyDescriptor):
    """The member, the member turned about z, and the member with its - ring
    turned by a quarter of the ring spacing (a configuration of neither phase)."""
    c = make_family(desc)
    yield c
    yield c.with_positions(c.positions @ _rz(0.37).T)
    minus = list(c.layout.minus)
    skewed = c.positions.copy()
    skewed[minus] = skewed[minus] @ _rz(math.pi / (2 * desc.n_per_ring)).T
    yield c.with_positions(skewed)


def test_phase_test_agrees_with_the_labels():
    phases = set()
    for desc in _family_members():
        if desc.family not in (Family.DNH_2R, Family.DND_RRP):
            continue
        in_phase = _g(MZ, 1)
        staggered = _g(_rz(math.pi / desc.n_per_ring) @ MZ, 1)
        for c in _two_ring_variants(desc):
            phase = two_ring_phase_test(c)
            phases.add(phase)
            assert (phase is TwoRingPhase.IN_PHASE) == is_fixed_by(c, in_phase), desc
            assert (phase is TwoRingPhase.OUT_OF_PHASE_BY_PI_OVER_N) == is_fixed_by(
                c, staggered
            ), desc
    assert phases == set(TwoRingPhase)
