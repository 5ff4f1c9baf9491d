"""Slice construction, block spectra, verdicts, and critical latitudes."""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vortex_atlas.atlas import EXIT_OK, main
from vortex_atlas.core import Family, FamilyDescriptor, InvalidDescriptor, VortexError
from vortex_atlas.dynamics import MixedChart
from vortex_atlas.equilibria import (
    branch_c2v_RmRmp,
    configuration_angular_velocity,
    make_equatorial_pm_ring,
    make_family,
    ring_angular_velocity,
)
from vortex_atlas.stability import (
    DEFINITENESS_TOL,
    REFERENCE_THRESHOLDS,
    NoTransition,
    NotRelativeEquilibrium,
    Verdict,
    _decide,
    analyze,
    analyze_small,
    critical_latitude,
    deciding_scalars_ab,
    deciding_scalars_rs,
    full_linearization_oracle,
    hessian_closed_form,
    list_transitions,
    slice_basis,
    slice_symplectic_form,
    spectrum_match,
)

DND = Family.DND_RRP
DNH = Family.DNH_2R


def _desc(family, n, theta0, k_p=0):
    return FamilyDescriptor(family, n, theta0=theta0, k_p=k_p)


# ---------------------------------------------------------------------------
# the closed-form Hessian
# ---------------------------------------------------------------------------


def test_hessian_is_exactly_symmetric():
    m = hessian_closed_form(_desc(DND, 4, 0.9, 2))
    assert np.array_equal(m, m.T)


def test_hessian_same_sign_latitude_longitude_entries_vanish():
    n = 5
    m = hessian_closed_form(_desc(DNH, n, 0.7))
    assert np.max(np.abs(m[0:n, 2 * n : 3 * n])) == 0.0
    assert np.max(np.abs(m[n : 2 * n, 3 * n : 4 * n])) == 0.0


@pytest.mark.parametrize(
    "family,n,theta0,k_p",
    [(DNH, 3, 0.7, 0), (DND, 2, 2.0, 2), (DND, 4, 1.1, 0)],
)
def test_hessian_matches_finite_differences(family, n, theta0, k_p):
    desc = _desc(family, n, theta0, k_p)
    closed = hessian_closed_form(desc)
    chart = MixedChart(make_family(desc))
    xi = float(ring_angular_velocity(desc))
    fd = chart.hessian_fd(chart.coords(), xi, step=1e-5)
    assert np.max(np.abs(closed - fd)) < 1e-6


# ---------------------------------------------------------------------------
# slice bases
# ---------------------------------------------------------------------------


def test_slice_dimensions_by_case():
    assert len(slice_basis(_desc(DND, 3, 0.8))) == 8  # 4N - 4
    assert len(slice_basis(_desc(DNH, 4, 0.8, 2))) == 16  # 4N
    assert len(slice_basis(_desc(DND, 3, math.pi / 2))) == 6  # 4N - 6
    # zero total vertical momentum with poles: two more directions removed
    balanced = math.acos(-0.5)  # ring momentum cancels the pole momentum
    assert len(slice_basis(_desc(DND, 2, balanced, 2))) == 6


@pytest.mark.parametrize(
    "family,n,theta0,k_p",
    [
        (DNH, 2, 0.6, 0),
        (DNH, 5, 1.1, 0),
        (DND, 2, 0.9, 2),
        (DND, 4, 2.2, 2),
        (DND, 3, math.pi / 2, 0),
    ],
)
def test_slice_vectors_annihilate_momentum_and_orbit_directions(
    family, n, theta0, k_p
):
    desc = _desc(family, n, theta0, k_p)
    basis = slice_basis(desc)
    chart = MixedChart(make_family(desc))
    q = chart.coords()
    rows = chart.momentum_rows(q)
    generators = chart.rotation_generators(q, np.eye(3))
    mu_z = float(np.round(2 * n * math.cos(theta0), 12)) + (
        2.0 if k_p else 0.0
    )

    mat = basis.matrix
    scale = np.linalg.norm(mat, axis=0)
    assert np.max(np.abs(rows @ mat) / scale) < 1e-10

    if abs(mu_z) < 1e-8:
        tangent = generators
    else:
        tangent = generators[2:3]  # rotations about the momentum axis
    for gen in tangent:
        overlap = np.abs(gen @ mat) / (np.linalg.norm(gen) * scale)
        assert np.max(overlap) < 1e-10


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from([DNH, DND]),
    n=st.integers(2, 12),
    k_p=st.sampled_from([0, 2]),
    fraction=st.floats(0.0, 1.0),
    balanced=st.booleans(),
)
@example(family=DND, n=12, k_p=0, fraction=0.0, balanced=True)
@example(family=DNH, n=2, k_p=2, fraction=0.0, balanced=True)
@example(family=DND, n=7, k_p=2, fraction=0.0, balanced=True)
def test_slice_basis_spans_a_decoupled_slice(family, n, k_p, fraction, balanced):
    """Full rank, the slice dimension, the constraints, and block decoupling.

    ``balanced`` picks the latitude where the vertical momentum vanishes
    (the equator without poles, cos theta0 = -1/N with poles).
    """
    if balanced:
        assume(k_p or family is DND)
        theta0 = math.acos(-1.0 / n) if k_p else math.pi / 2
    else:
        hi = math.pi / 2 if k_p == 0 else math.pi - 0.01
        theta0 = 0.01 + fraction * (hi - 0.01)
        assume(family is DND or abs(theta0 - math.pi / 2) > 1e-3)
    desc = _desc(family, n, theta0, k_p)
    zero_momentum = abs(2 * n * math.cos(theta0) + k_p) < 1e-8
    basis = slice_basis(desc)
    mat = basis.matrix
    assert mat.shape[1] == 4 * n + 2 * k_p - (6 if zero_momentum else 4)
    sv = np.linalg.svd(mat, compute_uv=False)
    assert sv[-1] > 1e-8 * sv[0]

    chart = MixedChart(make_family(desc))
    q = chart.coords()
    generators = chart.rotation_generators(q, np.eye(3))
    scale = np.linalg.norm(mat, axis=0)
    for row in [*chart.momentum_rows(q), *(generators if zero_momentum else generators[2:])]:
        assert np.max(np.abs(row @ mat) / (np.linalg.norm(row) * scale)) < 1e-10

    different = np.not_equal.outer(basis.labels, basis.labels)
    for form in (mat.T @ hessian_closed_form(desc) @ mat, slice_symplectic_form(desc, basis)):
        assert np.max(np.abs(form[different]), initial=0.0) < 1e-9 * np.max(np.abs(form))


def test_slice_symplectic_form_is_antisymmetric_and_nondegenerate():
    desc = _desc(DNH, 5, 0.7)
    basis = slice_basis(desc)
    omega = slice_symplectic_form(desc, basis)
    assert np.array_equal(omega, -omega.T)
    scaled = omega / np.max(np.abs(omega))
    assert abs(np.linalg.det(scaled)) > 1e-12


def test_distinct_blocks_are_symplectically_orthogonal():
    desc = _desc(DND, 5, 0.9, 2)
    basis = slice_basis(desc)
    omega = slice_symplectic_form(desc, basis)
    labels = basis.labels
    biggest = np.max(np.abs(omega))
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            if li != lj:
                assert abs(omega[i, j]) < 1e-12 * biggest


@pytest.mark.parametrize(
    "family,n,theta0,k_p", [(DNH, 3, 0.7, 0), (DND, 4, 1.2, 2), (DNH, 2, 0.5, 0)]
)
def test_distinct_blocks_do_not_couple_in_the_hessian(family, n, theta0, k_p):
    desc = _desc(family, n, theta0, k_p)
    basis = slice_basis(desc)
    mat = basis.matrix
    projected = mat.T @ hessian_closed_form(desc) @ mat
    biggest = np.max(np.abs(projected))
    labels = basis.labels
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            if li != lj:
                assert abs(projected[i, j]) < 1e-9 * biggest


# ---------------------------------------------------------------------------
# deciding scalars and block spectra
# ---------------------------------------------------------------------------


def _rotation_energy_highprec(n: int, theta0: float) -> float:
    """The positive deciding scalar, summed at 50 digits.

    Near the pole the energy decays below the double-precision noise
    floor of the closed-form sums, so positivity there needs an
    independent high-precision evaluation.
    """
    mp.mp.dps = 50
    u = mp.cos(mp.mpf(theta0))
    total = mp.mpf(0)
    for j in range(n):
        ang = 2 * mp.pi * j / n + mp.pi / n
        c = mp.cos(ang)
        den = (1 + u * u - (1 - u * u) * c) ** 2
        total += ((1 - u * u) - (1 + u * u) * c) / den
    return float(4 * n * (1 - u * u) * total)


def test_first_deciding_scalar_positive_and_second_increasing():
    for n in range(3, 9):
        previous = None
        for theta0 in np.linspace(0.02, math.pi / 2, 100):
            r, s = deciding_scalars_rs(_desc(DND, n, float(theta0)))
            if abs(r) < 1e-12:
                r = _rotation_energy_highprec(n, float(theta0))
            assert r > 0.0
            if previous is not None:
                assert s > previous
            previous = s


def test_deciding_scalars_match_reported_block_entries():
    desc = _desc(DND, 4, 0.9)
    report = analyze(desc)
    half = next(b for b in report.blocks if b.label == "Bhalf")
    a, b = deciding_scalars_ab(desc)
    assert half.entries["a"] == pytest.approx(a, rel=1e-12)
    assert half.entries["b"] == pytest.approx(b, rel=1e-12)


def _block_symplectic_scale(desc, label):
    """Uniform pairing strength of one block of the slice symplectic form."""
    basis = slice_basis(desc)
    omega = slice_symplectic_form(desc, basis)
    idx = [k for k, lab in enumerate(basis.labels) if lab == label]
    sv = np.linalg.svd(omega[np.ix_(idx, idx)], compute_uv=False)
    assert np.allclose(sv, sv[0], rtol=1e-9)
    return float(sv[0])


def test_quad_block_spectrum_follows_its_entry_formula():
    """The wavenumber blocks' spectra come from their scalar entries.

    Each (a, b, c) system contributes the quadruple +-i(c +- sqrt(ab))
    divided by the block's symplectic pairing scale when ab >= 0, and
    real parts appear exactly when some system has ab < 0.
    """
    checked_formula = checked_sign = 0
    for n, theta0 in [(4, 0.3), (4, 0.6), (5, 0.5), (5, 1.2), (5, 1.377), (7, 0.8)]:
        desc = _desc(DND, n, theta0)
        report = analyze(desc)
        for block in report.blocks:
            entries = block.entries
            if not {"a", "b", "c"} <= set(entries):
                continue
            systems = [(entries["a"], entries["b"], entries["c"])]
            if "a_plus" in entries:
                systems.append(
                    (entries["a_plus"], entries["b_plus"], entries["c_plus"])
                )
            eigs = np.sort_complex(block.linearization_eigenvalues)
            if all(a * b >= 0.0 for a, b, _ in systems):
                w = _block_symplectic_scale(desc, block.label)
                expected = []
                for a, b, c in systems:
                    root = math.sqrt(a * b)
                    expected += [
                        1j * (c + root) / w,
                        -1j * (c + root) / w,
                        1j * (c - root) / w,
                        -1j * (c - root) / w,
                    ]
                expected = np.sort_complex(expected)
                scale = max(1.0, float(np.max(np.abs(expected))))
                assert spectrum_match(eigs, expected) < 1e-8 * scale
                checked_formula += 1
            else:
                assert np.max(np.abs(eigs.real)) > 1e-8
                checked_sign += 1
    assert checked_formula >= 2 and checked_sign >= 2


def test_paired_mode_block_is_always_linearly_stable():
    for n, theta0 in [(3, 0.6), (5, 1.0), (4, 1.3)]:
        report = analyze(_desc(DND, n, theta0))
        b1 = next(b for b in report.blocks if b.label == "B1")
        assert np.max(np.abs(b1.linearization_eigenvalues.real)) < 1e-10
        assert abs(b1.entries["w"]) > 0.0


def test_linearization_eigenvalues_come_in_opposite_pairs():
    report = analyze(_desc(DNH, 4, 0.9, 2))
    eigs = report.linearization_eigenvalues()
    assert spectrum_match(eigs, -eigs) < 1e-9


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_verdict_reference_points():
    assert analyze(_desc(DND, 2, 1.3)).verdict is Verdict.LYAPUNOV_STABLE
    for theta0 in np.arange(0.1, 1.55, 0.1):
        report = analyze(_desc(DND, 5, float(theta0)))
        assert report.verdict is Verdict.LINEARLY_UNSTABLE
    assert analyze(_desc(DNH, 3, 0.5)).verdict is Verdict.LYAPUNOV_STABLE
    assert analyze(_desc(DNH, 3, 0.775)).verdict is Verdict.LINEARLY_STABLE
    assert analyze(_desc(DNH, 3, 1.0)).verdict is Verdict.LINEARLY_UNSTABLE


def test_equatorial_alternating_rings():
    assert (
        analyze(FamilyDescriptor(Family.EQUATORIAL_PM_RING, 2)).verdict
        is Verdict.LYAPUNOV_STABLE
    )
    for n in (3, 4, 5):
        report = analyze(FamilyDescriptor(Family.EQUATORIAL_PM_RING, n))
        assert report.verdict is Verdict.LINEARLY_UNSTABLE
        assert abs(report.xi_z) < 1e-12


def test_verdict_is_indeterminate_at_unresolvable_margins():
    # the definiteness margin collapses below double precision here; an
    # honest verdict refuses to pick a side
    report = analyze(_desc(DNH, 7, 0.2, 2))
    assert report.verdict is Verdict.INDETERMINATE


def _assert_verdict_follows_from_the_blocks(report):
    expected = _decide(report.hessian_eigenvalues(), report.linearization_eigenvalues())
    assert report.verdict is expected


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from([DNH, DND]),
    n=st.integers(2, 12),
    k_p=st.sampled_from([0, 2]),
    fraction=st.floats(0.0, 1.0),
)
def test_verdict_follows_from_the_reported_block_spectra(family, n, k_p, fraction):
    hi = math.pi / 2 if k_p == 0 else math.pi - 1e-3
    theta0 = 1e-3 + fraction * (hi - 1e-3)
    try:
        report = analyze(_desc(family, n, theta0, k_p))
    except VortexError:
        assume(False)  # rings on the equator collide or the slice degenerates
    _assert_verdict_follows_from_the_blocks(report)


@pytest.mark.parametrize(
    "family,n,k_p,theta0,verdict",
    [
        # near a pole the full-slice eigen-solve used to disagree with the
        # block spectra printed in the same report
        (DNH, 3, 0, 0.002, Verdict.LINEARLY_UNSTABLE),
        (DND, 5, 2, 0.002, Verdict.LYAPUNOV_STABLE),
        (DNH, 7, 2, 0.016 / 3, Verdict.INDETERMINATE),
    ],
)
def test_verdict_follows_from_the_block_spectra_near_the_poles(
    family, n, k_p, theta0, verdict
):
    report = analyze(_desc(family, n, theta0, k_p))
    assert report.verdict is verdict
    _assert_verdict_follows_from_the_blocks(report)


def test_report_serialization():
    report = analyze(_desc(DND, 3, 0.8, 2))
    payload = json.loads(report.to_json())
    assert payload["verdict"] == report.verdict.value
    assert payload["descriptor"]["N"] == 3
    assert payload["deciding_block"] == report.deciding_block
    labels = [b["label"] for b in payload["blocks"]]
    assert labels == [b.label for b in report.blocks]
    for b in payload["blocks"]:
        assert len(b["lin_eigs_re"]) == len(b["lin_eigs_im"])


GOLDEN = Path(__file__).parent / "golden"


def _inertia(eigs):
    eigs = np.asarray(eigs)
    return int(np.sum(eigs > DEFINITENESS_TOL)), int(np.sum(eigs < -DEFINITENESS_TOL))


def test_ring_reports_match_the_golden_file():
    """``analyze`` against reports recorded from the hand-written basis.

    ``tests/golden/ring_reports.json`` holds ``analyze(desc).as_dict()`` for
    DNh/DNd, N in {2, 3, 4, 5, 8, 12}, k_p 0/2, theta0 in {0.3, 0.9, 1.4}
    (and 2.2 with poles), plus the zero-momentum latitudes.  Blocks free of
    momentum constraints must agree to the bit; in B1/B1p, which the
    constraints cut down, the basis vectors may differ, so only the
    spectrum (to round-off) and the Hessian inertia must agree.
    """
    golden = json.loads((GOLDEN / "ring_reports.json").read_text())
    assert len(golden) == 102
    for want in golden:
        spec = want["descriptor"]
        desc = FamilyDescriptor(Family(spec["family"]), spec["N"], spec["theta0"], spec["kp"])
        got = analyze(desc).as_dict()
        where = f"{desc.label} theta0={desc.theta0!r}"
        assert got["verdict"] == want["verdict"], where
        assert got["deciding_block"] == want["deciding_block"], where
        assert [(b["label"], len(b["hessian_eigs"])) for b in got["blocks"]] == [
            (b["label"], len(b["hessian_eigs"])) for b in want["blocks"]
        ], where
        for g, w in zip(got["blocks"], want["blocks"]):
            if g["label"] in ("B1", "B1p"):
                g_eigs = np.array(g["lin_eigs_re"]) + 1j * np.array(g["lin_eigs_im"])
                w_eigs = np.array(w["lin_eigs_re"]) + 1j * np.array(w["lin_eigs_im"])
                scale = max(1.0, float(np.max(np.abs(w_eigs))))
                assert spectrum_match(g_eigs, w_eigs) < 1e-9 * scale, where
                assert _inertia(g["hessian_eigs"]) == _inertia(w["hessian_eigs"]), where
            else:
                assert json.dumps(g) == json.dumps(w), f"{where} {g['label']}"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_staggered_rings_with_poles_on_the_equator(n, capsys):
    desc = _desc(DND, n, math.pi / 2, 2)
    assert analyze(desc).verdict is analyze_small(make_family(desc)).verdict
    raw = f'{{"family": "DNd", "N": {n}, "theta0": {math.pi / 2!r}, "kp": 2}}'
    assert main(["classify", raw]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"]

    # on the equator itself every route meets a multiple eigenvalue, so the
    # spectra are compared just off it
    near = _desc(DND, n, math.pi / 2 - 1e-8, 2)
    expected = analyze(near).linearization_eigenvalues()
    found = full_linearization_oracle(make_family(near))
    assert found.size == expected.size + 4
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(expected[:, None] - found[None, :])
    rows, cols = linear_sum_assignment(cost)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(cost[rows, cols].max()) < 1e-6 * scale


# ---------------------------------------------------------------------------
# explicit-configuration analysis and the full-linearization oracle
# ---------------------------------------------------------------------------


def test_numeric_analysis_agrees_with_closed_form_analysis():
    desc = _desc(DNH, 3, 0.5)
    closed = analyze(desc)
    numeric = analyze_small(make_family(desc))
    assert numeric.verdict is closed.verdict
    found = numeric.linearization_eigenvalues()
    expected = closed.linearization_eigenvalues()
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert spectrum_match(found, expected) < 1e-6 * scale


def test_numeric_analysis_rejects_non_equilibria(pm_sampler):
    rng = np.random.default_rng(9)
    with pytest.raises(NotRelativeEquilibrium):
        analyze_small(pm_sampler(rng, 2, min_chord=0.5))


def test_meridian_plane_hemisphere_rule():
    same_side = branch_c2v_RmRmp(-0.5).configuration()  # + heights -0.5, -0.95
    z_plus = same_side.positions()[list(same_side.layout.plus), 2]
    assert z_plus[0] * z_plus[1] > 0
    assert analyze_small(same_side).verdict is Verdict.LYAPUNOV_STABLE

    # With the (+)vortices in opposite hemispheres the restricted Hessian is
    # indefinite, so the energy argument fails and the verdict must drop below
    # LyapunovStable (the spectrum itself stays on the imaginary axis here).
    split = branch_c2v_RmRmp(0.5).configuration()  # + heights 0.5, -0.88
    z_plus = split.positions()[list(split.layout.plus), 2]
    assert z_plus[0] * z_plus[1] < 0
    report = analyze_small(split)
    assert report.verdict is not Verdict.LYAPUNOV_STABLE
    hess_eigs = np.concatenate([b.hessian_eigenvalues for b in report.blocks])
    assert hess_eigs.min() < -1e-9 < 1e-9 < hess_eigs.max()


def test_full_linearization_matches_slice_spectra():
    desc = _desc(DNH, 3, 0.5)
    full = full_linearization_oracle(make_family(desc))
    slice_eigs = analyze(desc).linearization_eigenvalues()
    # the full spectrum carries four extra rigid/momentum modes; match the
    # slice spectrum against its best-fitting subset
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(slice_eigs[:, None] - full[None, :])
    rows, cols = linear_sum_assignment(cost)
    scale = max(1.0, float(np.max(np.abs(slice_eigs))))
    assert float(cost[rows, cols].max()) < 1e-6 * scale
    assert full.size == slice_eigs.size + 4


def test_full_linearization_flags_unstable_fixed_equilibrium():
    eigs = full_linearization_oracle(make_equatorial_pm_ring(3), xi_z=0.0)
    assert np.max(eigs.real) > 1e-3


def test_full_linearization_spectrum_symmetry():
    eigs = full_linearization_oracle(make_family(_desc(DND, 2, 1.0)))
    assert spectrum_match(eigs, -eigs) < 1e-6
    assert spectrum_match(eigs, np.conj(eigs)) < 1e-6


# ---------------------------------------------------------------------------
# transitions along a family
# ---------------------------------------------------------------------------


def test_single_stability_loss_for_two_aligned_pairs():
    found = list_transitions(DNH, 2, 0)
    kinds = [k for k, _ in found]
    assert kinds == ["StabilityLoss"]
    assert found[0][1] == pytest.approx(0.66, abs=0.01)


def test_narrow_stable_window_of_three_staggered_pairs():
    lower = critical_latitude(DND, 3, 0, "HopfLower")
    upper = critical_latitude(DND, 3, 0, "HopfUpper")
    assert lower == pytest.approx(1.302, abs=0.005)
    assert upper == pytest.approx(1.315, abs=0.005)
    assert lower < upper


def test_refinement_catches_windows_thinner_than_the_scan_grid():
    found = list_transitions(DNH, 5, 0)
    uppers = [theta for kind, theta in found if kind == "HopfUpper"]
    assert uppers and min(abs(t - 0.68) for t in uppers) < 0.01


def test_missing_transition_raises():
    with pytest.raises(NoTransition):
        critical_latitude(DND, 5, 0, "StabilityGain")
    with pytest.raises(InvalidDescriptor):
        critical_latitude(DND, 2, 0, "Wobble")


@pytest.mark.parametrize(
    "grid_step,tol",
    [(0.005, 0.0), (0.005, -1.0), (0.005, math.nan), (0.005, math.inf),
     (0.0, 1e-6), (-1.0, 1e-6), (math.nan, 1e-6), (math.inf, 1e-6)],
)
def test_transition_scan_rejects_bad_step_and_tolerance(grid_step, tol):
    with pytest.raises(InvalidDescriptor):
        list_transitions(DNH, 2, 0, grid_step=grid_step, tol=tol)


def test_reference_threshold_table_is_well_formed():
    assert len(REFERENCE_THRESHOLDS) == 32
    keys = {
        (r.family, r.n_per_ring, r.k_p, r.transition, r.occurrence)
        for r in REFERENCE_THRESHOLDS
    }
    assert len(keys) == 32
    for row in REFERENCE_THRESHOLDS:
        assert row.tolerance in (0.01, 0.005)
        assert 0.0 < row.reference_value < math.pi
