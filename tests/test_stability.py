"""Slice construction, block spectra, verdicts, and critical latitudes."""

import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rotation_axis_matrix
from oracles import (
    GroupElement,
    apply_group_element,
    chord_deviation,
    deciding_scalars_ab,
    deciding_scalars_rs,
    fitted_growth,
    full_linearization_oracle,
    mirror_y_matrix,
    rotation_z_matrix,
    spectrum_match,
)
from vortex_atlas import atlas, stability
from vortex_atlas.atlas import EXIT_OK, main
from vortex_atlas.core import (
    MAX_GRID_POINTS,
    STACK_ELEMENTS,
    Configuration,
    Family,
    FamilyDescriptor,
    InvalidDescriptor,
    Layout,
    PoleSingularity,
    VortexError,
)
from vortex_atlas.dynamics import MixedChart
from vortex_atlas.equilibria import (
    _rigid_rates,
    branch_c2v_2R2p,
    branch_c2v_RmRmp,
    branch_c2v_RmRmp_all,
    branch_c2v_RRp2p,
    configuration_angular_velocity,
    make_equatorial_pm_ring,
    make_family,
    make_plus_ring_pole_pair,
    make_single_plus_ring,
    ring_angular_velocity,
)
from vortex_atlas.stability import (
    DEFINITENESS_TOL,
    REFERENCE_THRESHOLDS,
    Decision,
    DegenerateForm,
    NoTransition,
    NotRelativeEquilibrium,
    RESIDUAL_TOL,
    SPECTRAL_TOL,
    StabilityReport,
    Verdict,
    _block_slices,
    _pick_transition,
    _restrict,
    _rings,
    _singular,
    _slice_bases,
    _stack_entry,
    _symplectic_forms,
    _transition_reader,
    _verdicts,
    analyze,
    analyze_many,
    analyze_small,
    analyze_small_many,
    decide_many,
    hessian_closed_form,
    list_transitions,
    slice_basis,
    slice_symplectic_form,
    verdict_changes,
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
    fd = chart.hessian_fd(chart.coords(), xi)
    assert np.max(np.abs(closed - fd)) < 1e-6


@pytest.mark.parametrize("family", [DNH, DND])
@pytest.mark.parametrize("k_p", [0, 2])
def test_symplectic_form_matches_the_charts(family, k_p):
    """The closed-form symplectic form is the chart's, entry by entry: the
    two are built apart, ``lambda sin(theta)`` on each ring pair of the chart's
    coordinates and ``lambda_p / z_p`` at each pole."""
    for n in range(2, 7):
        rings = _rings(family, n, k_p, 1.0 if k_p else 0.0)
        for theta in [0.3, 0.7, 1.2] + [2.1] * (k_p == 2):
            chart = MixedChart(make_family(_desc(family, n, theta, k_p)))
            closed = _symplectic_forms(rings, np.array([math.sin(theta)]))[0]
            assert np.abs(closed - chart.symplectic_matrix(chart.coords())).max() <= 1e-15, (n, theta)


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
    for form in (mat.T @ hessian_closed_form(desc) @ mat, slice_symplectic_form(desc)):
        assert np.max(np.abs(form[different]), initial=0.0) < 1e-9 * np.max(np.abs(form))


def test_slice_basis_bits_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    """The kernel vectors' norms add their squares left to right, as Python
    3.11's ``sum`` does; 3.12's compensated ``sum`` (here ``math.fsum``)
    must change no bit of a basis."""
    thetas = np.arange(0.1, 1.5, 0.05).tolist()
    descs = [_desc(family, n, theta, k_p) for family, n, k_p in ((DNH, 3, 0), (DND, 5, 2)) for theta in thetas]
    want = [slice_basis(desc).matrix.tobytes() for desc in descs]
    monkeypatch.setattr(stability, "sum", math.fsum, raising=False)
    assert [slice_basis(desc).matrix.tobytes() for desc in descs] == want


@pytest.mark.parametrize("family", [DNH, DND])
@pytest.mark.parametrize("k_p", [0, 2])
def test_only_two_sectors_meet_the_momentum_map_and_the_generators(family, k_p):
    """What the slice relies on, from the chart's rows rather than the
    closed forms: dPhi_z and the generator about z touch only q = 0 tc'
    and pc, with rank 2 there, and dPhi_x, dPhi_y and the generators about
    x and y touch only the ``hit`` rows of the slice's patterns."""
    for n in range(2, 13):
        rings = _rings(family, n, k_p, 1.0 if k_p else 0.0)
        elsewhere = rings.free + [1, 4]
        assert len(elsewhere) + len(rings.hit) == rings.d
        thetas = [0.3, 1.2] + [math.pi / 2] * (family is DND) + [math.acos(-1.0 / n)] * (k_p == 2)
        for theta in thetas:
            chart = MixedChart(make_family(_desc(family, n, theta, k_p)))
            q = chart.coords()
            rows = np.concatenate([chart.momentum_rows(q), chart.rotation_generators(q, np.eye(3))])
            on = rows @ rings.pat.T
            on /= np.abs(on).max(axis=1, keepdims=True)
            z_rows, xy_rows = on[[2, 5]], on[[0, 1, 3, 4]]
            where = f"{family.value} N={n} k_p={k_p} theta0={theta!r}"
            assert np.flatnonzero((np.abs(z_rows) > 1e-9).any(axis=0)).tolist() == [1, 4], where
            assert np.linalg.matrix_rank(z_rows[:, [1, 4]]) == 2, where
            assert not (np.abs(xy_rows[:, elsewhere]) > 1e-9).any(), where


def test_one_kernel_per_latitude(monkeypatch):
    """``decide_many`` eliminates one block per latitude, over the ``hit``
    patterns: the sector the constraints touch."""
    calls = []

    def counted(block, tol):
        calls.append(len(block[0]))
        return kernel(block, tol)

    kernel = stability._kernel
    monkeypatch.setattr(stability, "_kernel", counted)
    for family, n, k_p in ((DNH, 3, 0), (DND, 2, 0), (DND, 5, 2)):
        thetas = np.linspace(0.2, 1.4, 9).tolist()
        calls.clear()
        assert all(isinstance(d, Decision) for d in decide_many([_desc(family, n, t, k_p) for t in thetas]))
        assert len(calls) == len(thetas)
        assert set(calls) == {len(_rings(family, n, k_p, 1.0 if k_p else 0.0).hit)}


def test_slice_symplectic_form_is_antisymmetric_and_nondegenerate():
    desc = _desc(DNH, 5, 0.7)
    basis = slice_basis(desc)
    omega = slice_symplectic_form(desc)
    assert np.array_equal(omega, -omega.T)
    scaled = omega / np.max(np.abs(omega))
    assert abs(np.linalg.det(scaled)) > 1e-12


def test_distinct_blocks_are_symplectically_orthogonal():
    desc = _desc(DND, 5, 0.9, 2)
    basis = slice_basis(desc)
    omega = slice_symplectic_form(desc)
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
    with mp.workdps(50):
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
                dps = mp.mp.dps
                r = _rotation_energy_highprec(n, float(theta0))
                assert mp.mp.dps == dps  # the 50 digits are scoped to the call
            assert r > 0.0
            if previous is not None:
                assert s > previous
            previous = s


def test_deciding_scalars_match_reported_block_entries():
    """``r`` and ``s`` are the uniform block's entries, ``a`` and ``b`` those
    of the top-wavenumber block (``Bhalf`` for even N, ``B{N//2}`` for odd
    N), with and without poles; the closed form agrees with the block to
    1e-12 relative, except ``r`` at N = 6, theta0 = 0.6 (DNh 1.9e-12, DNd
    2.3e-12), which is held to 1e-11."""
    cases = [(k_p, theta0) for k_p in (0, 2) for theta0 in (0.6, 0.9, 1.3)] + [(2, 2.0)]
    for family, n, (k_p, theta0) in itertools.product((DNH, DND), range(3, 7), cases):
        desc = _desc(family, n, theta0, k_p)
        blocks = {b.label: b.entries for b in analyze(desc).blocks}
        uniform = blocks["B0p" if k_p else "B0"]
        r, s = deciding_scalars_rs(desc)
        r_rel = 1e-11 if (n, theta0) == (6, 0.6) else 1e-12
        assert uniform["r"] == pytest.approx(r, rel=r_rel), desc
        assert uniform["s"] == pytest.approx(s, rel=1e-12), desc
        if n >= 4:
            top = blocks["Bhalf" if n % 2 == 0 else f"B{n // 2}"]
            a, b = deciding_scalars_ab(desc)
            assert top["a"] == pytest.approx(a, rel=1e-12), desc
            assert top["b"] == pytest.approx(b, rel=1e-12), desc


def _twist_energy(family, n, theta0):
    """The exact twist energy at 50 digits: with rho = tan^2(theta0 / 2),
    -8 N^3 rho^N / (1 - rho^N)^2 for DNh and +8 N^3 rho^N / (1 + rho^N)^2
    for DNd, whatever k_p and lambda_n (the poles lie on the twist's axis)."""
    with mp.workdps(50):
        rho_n = mp.tan(mp.mpf(theta0) / 2) ** (2 * n)
        sign = -1 if family is DNH else 1
        return sign * 8 * n**3 * rho_n / (1 + sign * rho_n) ** 2


def _counter_rotated_energy(family, n, theta0, eps):
    """``sum_{i<j} lambda_i lambda_j ln l_ij^2`` of the two rings, built in
    mpmath, with the plus ring's longitudes advanced by ``eps`` and the minus
    ring's moved back by ``eps``."""
    theta = mp.mpf(theta0)
    phase = 0 if family is DNH else mp.pi / n
    rings = [(1, theta, eps), (-1, mp.pi - theta, phase - eps)]
    vortices = [
        (lam, mp.matrix([mp.sin(t) * mp.cos(phi), mp.sin(t) * mp.sin(phi), mp.cos(t)]))
        for lam, t, offset in rings
        for phi in (2 * mp.pi * k / n + offset for k in range(n))
    ]
    return mp.fsum(
        li * lj * mp.log(mp.norm(xi - xj) ** 2)
        for (li, xi), (lj, xj) in itertools.combinations(vortices, 2)
    )


@pytest.mark.parametrize(
    "family,n,theta0", [(DNH, 3, 0.7), (DND, 4, 0.9), (DNH, 5, 0.02), (DND, 8, 0.3), (DNH, 7, 0.1), (DND, 6, 0.05)]
)
def test_twist_energy_is_the_second_derivative_along_the_counter_rotation(family, n, theta0):
    """The closed form against a 50-digit derivative of the energy itself,
    down to the near-pole latitudes where it falls to 1e-17."""
    with mp.workdps(50):
        exact = mp.diff(lambda eps: _counter_rotated_energy(family, n, theta0, eps), 0, 2)
        assert abs(exact - _twist_energy(family, n, theta0)) < mp.mpf(10) ** -43 * abs(exact)


def test_twist_entry_follows_its_closed_form():
    """Block B0/B0p's ``r`` is the twist energy wherever the closed form
    resolves it (|r| > 1e-6); the largest relative error is 1.8e-8."""
    thetas = [0.3 + 0.05 * k for k in range(17)]
    descs = [_desc(f, n, t, k_p) for f in (DNH, DND) for n in range(2, 9) for k_p in (0, 2) for t in thetas]
    checked = 0
    for desc, report in zip(descs, analyze_many(descs)):
        (r,) = [b.entries["r"] for b in report.blocks if b.label in ("B0", "B0p")]
        if abs(r) > 1e-6:
            checked += 1
            assert r == pytest.approx(float(_twist_energy(desc.family, desc.n_per_ring, desc.theta0)), rel=1e-7), desc
    assert checked > 400


def test_a_block_of_odd_index_has_a_real_pair():
    """The parity rule (MacKay 1986; van der Meer, LNM 1160): a block whose
    Hessian has an odd number of negative eigenvalues, all of them resolved,
    has a real linearization pair, since det(H) < 0 forces an odd number of
    them; checked on the 0.05 grid of both ring families."""
    descs = [
        _desc(f, n, 0.05 * k, k_p)
        for f in (DNH, DND) for n in range(2, 13) for k_p in (0, 2) for k in range(1, 32 if k_p == 0 else 63)
    ]
    checked = 0
    for desc, report in zip(descs, analyze_many(descs)):
        for block in report.blocks:
            h = block.hessian_eigenvalues
            if np.all(np.abs(h) > DEFINITENESS_TOL) and np.count_nonzero(h < 0) % 2:
                checked += 1
                lin = np.asarray(block.linearization_eigenvalues, complex)
                assert np.any((np.abs(lin.imag) <= SPECTRAL_TOL) & (np.abs(lin.real) > SPECTRAL_TOL)), (desc, block.label)
    assert checked > 800  # 874 blocks


def _block_symplectic_scale(desc, label):
    """Uniform pairing strength of one block of the slice symplectic form."""
    basis = slice_basis(desc)
    omega = slice_symplectic_form(desc)
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


def test_the_verdict_rule_decides_each_row_at_its_edges():
    """One call decides every row ``(lo, hi, growth)``: a Hessian definite
    beyond DEFINITENESS_TOL is Lyapunov stable whatever the growth; otherwise
    growth above SPECTRAL_TOL is unstable and an indefinite Hessian linearly
    stable; a Hessian within the margin or NaN decides nothing."""
    table = [
        ((1e-9, 5.0, 0.0), Verdict.INDETERMINATE),
        ((2e-9, 5.0, 1.0), Verdict.LYAPUNOV_STABLE),
        ((-5.0, -2e-9, 0.0), Verdict.LYAPUNOV_STABLE),
        ((-5.0, 5.0, 1e-8), Verdict.LINEARLY_STABLE),
        ((-5.0, 5.0, math.nan), Verdict.LINEARLY_STABLE),
        ((-5.0, 5.0, 1.1e-8), Verdict.LINEARLY_UNSTABLE),
        ((-5.0, 1e-9, 0.0), Verdict.INDETERMINATE),
        ((math.nan, math.nan, 0.0), Verdict.INDETERMINATE),
    ]
    rows = np.array([row for row, _ in table])
    assert _verdicts(*rows.T).tolist() == [verdict for _, verdict in table]


def test_verdict_is_indeterminate_at_unresolvable_margins():
    # the definiteness margin collapses below double precision here; an
    # honest verdict refuses to pick a side
    report = analyze(_desc(DNH, 7, 0.2, 2))
    assert report.verdict is Verdict.INDETERMINATE


def _assert_verdict_follows_from_the_blocks(report):
    hess, growth = report.hessian_eigenvalues(), np.abs(report.linearization_eigenvalues().real)
    (expected,) = _verdicts(*np.array([[hess.min()], [hess.max()], [growth.max()]]))
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


# The numeric route's inputs: every branch type the diagram analyses
# (C2v(R,R') without poles on both roots, C2v(R,R',2p), both meridian
# roots with and without the relabelling swap, up to the x = 1/sqrt(2) - 1e-4
# end of the diagram's grid, C2v(R,2p)) plus two-ring members at M = 4 and 6.
SMALL_CASES = (
    [
        {"kind": "RRp2p", "x": x, "lambda_n": lam, "sign": sign}
        for lam, sign in ((0.0, 1), (0.0, -1), (1.0, -1))
        for x in (-0.9, -0.3, 0.3, 0.9)
    ]
    + [
        {"kind": "RmRmp", "x": x, "root": root, "swap": swap}
        for x, roots in ((-0.9, 2), (-0.5, 1), (0.1, 1), (0.5, 1), (0.7, 1), (1 / math.sqrt(2.0) - 1e-4, 1))
        for root in range(roots)
        for swap in (False, True)
    ]
    + [{"kind": "plus_ring_pole_pair", "theta0": t} for t in (0.2, 0.6, 1.0, 1.4, 1.7, 2.2, 2.9)]
    + [
        {"kind": "family", "family": f.value, "N": n, "theta0": t, "kp": kp}
        for f, n, t, kp in ((DNH, 2, 0.5, 2), (DNH, 2, 2.2, 2), (DND, 3, 0.7, 0), (DNH, 3, 1.0, 0), (DND, 2, 1.2, 0))
    ]
)


def small_case_configuration(case):
    kind = case["kind"]
    if kind == "RRp2p":
        return branch_c2v_RRp2p(case["x"], case["lambda_n"], case["sign"]).configuration()
    if kind == "RmRmp":
        bp = branch_c2v_RmRmp_all(case["x"])[case["root"]]
        return (replace(bp, x=bp.y, y=bp.x) if case["swap"] else bp).configuration()
    if kind == "plus_ring_pole_pair":
        return make_plus_ring_pole_pair(case["theta0"])
    return make_family(_desc(Family(case["family"]), case["N"], case["theta0"], case["kp"]))


def test_small_reports_match_the_golden_file():
    """``analyze_small`` reproduces its recorded reports to the bit.

    ``tests/golden/small_reports.json`` holds, for each entry of
    ``SMALL_CASES``, the case and ``analyze_small(config).as_dict()``;
    ``json.dumps`` writes each float with ``repr``, so equal text is equal
    bits in every eigenvalue, ``mu_z`` and ``xi_z``.
    """
    golden = json.loads((GOLDEN / "small_reports.json").read_text())
    assert [g["case"] for g in golden] == SMALL_CASES
    for want in golden:
        got = analyze_small(small_case_configuration(want["case"])).as_dict()
        assert json.dumps(got) == json.dumps(want["report"]), want["case"]


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
# the stacked pass and its one-point case
# ---------------------------------------------------------------------------


def _report_bytes(report):
    """Every field of a report or error, floats as raw bytes."""
    if isinstance(report, VortexError):
        return type(report), str(report)
    blocks = [
        (
            b.label,
            b.hessian_eigenvalues.dtype.str,
            b.hessian_eigenvalues.tobytes(),
            b.linearization_eigenvalues.dtype.str,
            b.linearization_eigenvalues.tobytes(),
            [(key, np.float64(value).tobytes()) for key, value in b.entries.items()],
        )
        for b in report.blocks
    ]
    return (
        report.descriptor,
        report.label,
        np.float64(report.mu_z).tobytes(),
        np.float64(report.xi_z).tobytes(),
        report.verdict,
        report.deciding_block,
        blocks,
    )


def _analyze_one(desc):
    try:
        return analyze(desc)
    except VortexError as exc:
        return exc


@st.composite
def _latitude_lists(draw):
    family = draw(st.sampled_from([DNH, DND]))
    n = draw(st.integers(2, 12))
    k_p = draw(st.sampled_from([0, 2]))
    hi = math.pi / 2 if k_p == 0 else math.pi
    special = st.sampled_from(
        [
            1e-4, 1e-3, 0.002,  # next to the pole
            math.pi / 2, math.acos(-1.0 / n),  # zero momentum without / with poles
            math.pi / 2 - 5e-7, math.pi / 2 + 5e-7, math.pi / 2 - 2e-6,  # the equator
        ]
    )
    thetas = draw(st.lists(st.one_of(st.floats(1e-4, hi - 1e-4), special), min_size=1, max_size=12))
    if draw(st.booleans()):  # more latitudes than one stack holds
        size = STACK_ELEMENTS // (4 * n + 2 * k_p) ** 2 + 3
        start = draw(st.floats(0.01, 0.5))
        thetas += np.linspace(start, hi - start, size).tolist()
    return family, n, k_p, thetas


@settings(max_examples=40, deadline=None)
@given(case=_latitude_lists())
@example(case=(DND, 3, 0, [0.3, math.pi / 2, 0.5, 2.0, 0.7, math.pi / 2]))
@example(case=(DNH, 4, 2, [1.0, math.pi / 2, math.pi / 2 + 5e-7, 2.0, 0.002]))
@example(case=(DND, 5, 2, [math.acos(-0.2), 1.0, math.acos(-0.2), math.pi / 2]))
@example(case=(DND, 2, 0, np.linspace(0.001, math.pi / 2, 300).tolist()))
def test_stacked_pass_matches_the_one_point_analysis(case):
    family, n, k_p, thetas = case
    descs = [_desc(family, n, theta, k_p) for theta in thetas]
    stacked = list(analyze_many(descs))
    assert len(stacked) == len(descs)
    for desc, got in zip(descs, stacked):
        want = _analyze_one(desc)
        assert _report_bytes(got) == _report_bytes(want), f"{desc.label} theta0={desc.theta0!r}"


def test_stacked_pass_yields_errors_in_place():
    descs = [
        _desc(DNH, 3, 0.5),
        _desc(DNH, 3, math.pi / 2),  # rings collide on the equator
        _desc(DNH, 3, 2.0),  # past the equator without poles
        FamilyDescriptor(Family.DNH_2R, 3, theta0=1.0, k_p=2, lambda_n=0.5),
        _desc(DNH, 3, 0.6),
    ]
    kinds = [type(r).__name__ for r in analyze_many(descs)]
    assert kinds == [
        "StabilityReport", "CollisionError", "InvalidDescriptor", "InvalidDescriptor",
        "StabilityReport",
    ]


def test_the_closed_form_passes_stream():
    """Each pass yields its first outcome from an input without end: no run
    of one stack key is gathered before its first stack (113 latitudes here)
    is decided.  A pass that reads on past 1,000 fails instead of hanging."""
    desc = _desc(DND, 3, 0.7)

    def endless():
        for k in itertools.count():
            assert k < 1000, "the pass read on far past its first stack"
            yield desc

    assert next(decide_many(endless())) == next(decide_many([desc]))
    assert _report_bytes(next(analyze_many(endless()))) == _report_bytes(analyze(desc))


def test_a_latitude_whose_kernel_has_another_size_raises(monkeypatch):
    """Every latitude of a stack shares one slice size: a kernel one vector
    short at the middle latitude of three is an error of the whole pass."""
    kernel, calls = stability._kernel, []

    def short_in_the_middle(block, tol):
        calls.append(None)
        vectors = kernel(block, tol)
        return vectors[:-1] if len(calls) == 2 else vectors

    monkeypatch.setattr(stability, "_kernel", short_in_the_middle)
    descs = [_desc(DND, 5, theta, 2) for theta in (0.5, 0.7, 0.9)]
    expected = 4 * 5 + 2 * 2 - 4
    with pytest.raises(RuntimeError, match=f"^slice has {expected - 1} vectors, expected {expected}$"):
        list(decide_many(descs))
    assert len(calls) == 3


def test_a_singular_restricted_form_is_an_error_in_place(monkeypatch):
    """One row of a stack whose restricted symplectic form is called singular
    gets a DegenerateForm, on either route; the others keep every bit, and
    the numeric stack is not analysed again row by row."""
    descs = [_desc(DNH, 4, theta) for theta in (0.5, 0.7, 0.9)]
    want_decisions, want_reports = list(decide_many(descs)), list(analyze_many(descs))
    pole_pair = make_plus_ring_pole_pair(0.6)
    positions = np.array([make_plus_ring_pole_pair(theta).positions for theta in (0.6, 0.9, 1.2)])
    small = (positions, pole_pair.strengths, pole_pair.layout, RESIDUAL_TOL)
    want_small = [_report_bytes(stability._report(None, o)) for o in stability._small_outcomes(*small)]
    real = stability._singular

    def second_singular(omega_blocks):
        singular = real(omega_blocks)
        singular[1] = True
        return singular

    monkeypatch.setattr(stability, "_singular", second_singular)
    decisions, reports = list(decide_many(descs)), list(analyze_many(descs))
    for got in (decisions[1], reports[1]):
        assert (type(got), str(got)) == (DegenerateForm, "the symplectic form restricted to the slice is singular")
    assert [repr(tuple(d)) for d in decisions[::2]] == [repr(tuple(d)) for d in want_decisions[::2]]
    assert [_report_bytes(r) for r in reports[::2]] == [_report_bytes(r) for r in want_reports[::2]]
    last = next(stability._stacked(descs))[2][1]  # decided at its own stack row
    assert last[2] == 2 and _report_bytes(stability._report(descs[2], last)) == _report_bytes(want_reports[2])

    small_stack, calls = stability._small_stack, []

    def counted_stack(*args):
        calls.append(None)
        return small_stack(*args)

    monkeypatch.setattr(stability, "_small_stack", counted_stack)
    got = [_report_bytes(stability._report(None, o)) for o in stability._small_outcomes(*small)]
    assert len(calls) == 1
    assert got[1] == (DegenerateForm, "the symplectic form restricted to the slice is singular")
    assert got[::2] == want_small[::2] and [r[1] for r in got[::2]] == ["custom", "custom"]

    monkeypatch.setattr(stability, "_singular", lambda omega_blocks: np.ones(len(omega_blocks[0]), dtype=bool))
    with pytest.raises(DegenerateForm):
        analyze(descs[1])
    with pytest.raises(DegenerateForm, match="^the symplectic form restricted to the slice is singular$"):
        slice_symplectic_form(descs[1])


@pytest.mark.parametrize("family", [DNH, DND])
@pytest.mark.parametrize("k_p", [0, 2])
def test_verdict_stage_gives_the_report_fields_bit_for_bit(family, k_p):
    hi = math.pi / 2 if k_p == 0 else math.pi
    thetas = [*np.linspace(0.02, hi - 0.02, 29).tolist(), math.pi / 2, 1e-9]
    for n in range(2, 13):
        descs = [_desc(family, n, theta, k_p) for theta in thetas]
        for desc, decided, report in zip(descs, decide_many(descs), analyze_many(descs)):
            if isinstance(report, VortexError):
                assert (type(decided), str(decided)) == (type(report), str(report))
                continue
            fields = (report.verdict, report.deciding_block, report.mu_z, report.xi_z)
            assert isinstance(decided, Decision)
            assert repr(tuple(decided)) == repr(fields), f"{desc.label} theta0={desc.theta0!r}"


def _whole_form_singular(omega_b):
    """The singularity rule on the whole restricted form, one SVD per
    latitude: the oracle of the per-block test."""
    sing = np.linalg.svd(omega_b, compute_uv=False)
    return sing[:, -1] < 1e-12 * np.maximum(sing[:, 0], 1.0)


@pytest.mark.parametrize("family", [DNH, DND])
@pytest.mark.parametrize("k_p", [0, 2])
def test_block_singularity_test_agrees_with_the_whole_form(family, k_p):
    hi = math.pi / 2 if k_p == 0 else math.pi
    shrunk_singular = 0
    for n in range(2, 13):
        for theta in np.linspace(0.05, hi - 0.05, 12).tolist():
            try:
                key, _ = _stack_entry(_desc(family, n, theta, k_p))
            except VortexError:
                continue
            rings = _rings(*key[:4])
            u, s = np.array([math.cos(theta)]), np.array([math.sin(theta)])
            basis, labels = _slice_bases(rings, key[4], u, s)
            omega_b = _restrict(basis, _symplectic_forms(rings, s), antisymmetric=True)
            slices = _block_slices(labels)
            # the blocks are symplectically orthogonal up to rounding
            off = omega_b.copy()
            for _, sl in slices:
                off[:, sl, sl] = 0.0
            assert np.abs(off).max() <= 1e-13 * max(np.abs(omega_b).max(), 1.0)
            assert _singular([omega_b[:, sl, sl] for _, sl in slices]).tolist() == _whole_form_singular(omega_b).tolist() == [False]
            # one block shrunk towards zero: both tests call the form singular
            for _, sl in slices:
                shrunk = omega_b.copy()
                shrunk[:, sl, sl] *= 1e-13
                want = _whole_form_singular(shrunk).tolist()
                assert _singular([shrunk[:, sl, sl] for _, sl in slices]).tolist() == want
                shrunk_singular += want[0]
    assert shrunk_singular > 0


# ---------------------------------------------------------------------------
# the stacked numeric pass and its one-configuration case
# ---------------------------------------------------------------------------


def _stack_configurations(positions, strengths, layout):
    """The configurations of a position stack's rows."""
    return [Configuration(p, strengths, 0 if layout.north is None else 2, layout) for p in positions]


def _diagram_configurations(n_pairs, monkeypatch):
    """Every configuration the low-symmetry segments of the diagram analyse,
    in the order they are analysed, built from the position stacks."""
    seen = []

    def record(positions, strengths, layout, bound):
        seen.extend(_stack_configurations(positions, strengths, layout))
        return [VortexError("only the configurations are needed")] * len(positions)

    monkeypatch.setattr(atlas, "_small_outcomes", record)
    for seg in atlas._figure_segments(n_pairs):
        if not seg.ring:
            seg.sample()
    return seen


def _outcome(result):
    """A report as its ``as_dict`` text (floats written with ``repr``, so
    equal text is equal bits), an error as its class and message."""
    if isinstance(result, VortexError):
        return type(result), str(result)
    return json.dumps(result.as_dict())


def _analyze_small_one(config):
    try:
        return analyze_small(config)
    except VortexError as exc:
        return exc


def _segment_grid(solve, params):
    """The configurations a branch segment finds on its grid."""
    found = []
    for x in params:
        try:
            found.append(solve(x))
        except VortexError:
            pass
    return found


# The two largest segment grids: (e) C2v(R,2p) of the pairs-2 diagram
# (M = 4, stacks of 256) and (c) C2v(R,R',2p) of the pairs-3 diagram
# (M = 6, stacks of 113), 482 parameters each.
_LARGEST_GRIDS = (
    (make_plus_ring_pole_pair, np.linspace(0.1, math.pi - 0.1, 482)),
    (lambda x: branch_c2v_RRp2p(x, 1.0, -1).configuration(), np.linspace(-0.97, 0.97, 482)),
)


def test_stacked_numeric_pass_matches_the_one_configuration_case(monkeypatch):
    sample = []
    for n_pairs in (2, 3):
        sample += _diagram_configurations(n_pairs, monkeypatch)[::8]
    monkeypatch.undo()
    assert {(len(c), c.pole_count) for c in sample} == {(4, 0), (4, 2), (6, 2)}
    want = {id(c): _outcome(_analyze_small_one(c)) for c in sample}
    half = len(sample) // 2
    lists = [
        sample,  # runs of one layout, as the diagram sends them
        [c for pair in zip(sample[:half], sample[::-1]) for c in pair],  # layouts mixed
        sample[::-1],
    ]
    for configs in lists:
        got = analyze_small_many(configs)
        assert len(got) == len(configs)
        for c, result in zip(configs, got):
            assert _outcome(result) == want[id(c)]
    # a whole grid, more than one stack of one chart
    grid = _segment_grid(*_LARGEST_GRIDS[0])
    for c, result in zip(grid, analyze_small_many(grid)):
        assert _outcome(result) == _outcome(_analyze_small_one(c))


def _tilted_fixed_ring(angle):
    """The alternating equatorial ring of four, a fixed equilibrium, turned
    by ``angle`` about a horizontal axis, with its last two vortices taken
    as the pole pair: the north one at height 2 sin(angle)/sqrt(5), the
    south one at -sin(angle)/sqrt(5)."""
    ring = make_equatorial_pm_ring(2)
    a = rotation_axis_matrix(np.array([1.0, 2.0, 0.0]), angle)
    layout = Layout(plus=(0,), minus=(1,), north=2, south=3)
    return Configuration(ring.positions @ a.T, ring.strengths, 2, layout)


def test_the_numeric_route_refuses_a_rigid_rotation_off_equilibrium():
    """DNh N=3 at theta0 = 0.9 with its minus ring turned by 1e-5 still
    rotates rigidly (its rates agree to 1e-9), but its chart residual is
    2.3e-6, above the 1e-6 that analyze_small accepts."""
    member = make_family(_desc(DNH, 3, 0.9))
    turned = member.positions.copy()
    minus = list(member.layout.minus)
    turned[minus] = turned[minus] @ rotation_z_matrix(1e-5).T
    config = member.with_positions(turned)
    assert _rigid_rates(config.positions[None], config.strengths, config.layout)[1] == [None]
    with pytest.raises(NotRelativeEquilibrium, match=r"^co-rotating field residual 2\.346e-06 exceeds 1\.0e-06$"):
        analyze_small(config)


def test_stacked_numeric_pass_returns_errors_in_place(pm_sampler):
    meridian = [branch_c2v_RmRmp(x).configuration() for x in (-0.5, -0.3, 0.3, 0.5)]
    not_rigid = pm_sampler(np.random.default_rng(9), 2, min_chord=0.5)  # the meridian's layout
    pole_pair = make_plus_ring_pole_pair(1.0)
    pole_on_equator = Configuration(
        np.vstack([pole_pair.positions[:2], [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]]),
        pole_pair.strengths, 2, pole_pair.layout,
    )
    configs = [
        meridian[0], not_rigid, meridian[1],
        pole_on_equator,
        make_single_plus_ring(3, 1.0), make_single_plus_ring(3, math.pi / 2), make_single_plus_ring(3, 0.5),
        make_single_plus_ring(2, 1.0),
        # one chart for the three, but the middle one's pole stencil leaves
        # its hemisphere, so each is analysed alone
        _tilted_fixed_ring(0.3), _tilted_fixed_ring(1e-3), _tilted_fixed_ring(0.5),
        meridian[2], meridian[3],
    ]
    got = analyze_small_many(configs)
    assert [type(r).__name__ for r in got] == [
        "StabilityReport", "NotRelativeEquilibrium", "StabilityReport",
        "PoleSingularity",
        "StabilityReport", "DegenerateForm", "StabilityReport",
        "DegenerateForm",
        "StabilityReport", "PoleSingularity", "StabilityReport",
        "StabilityReport", "StabilityReport",
    ]
    assert str(got[3]) == "pole vortex sits on the equator; its chart hemisphere is undefined"
    assert str(got[9]) == "pole chart coordinates left the hemisphere"
    for c, result in zip(configs, got):
        assert _outcome(result) == _outcome(_analyze_small_one(c))


def test_a_stack_an_error_hits_as_a_whole_is_analysed_one_row_at_a_time():
    """A pole vortex on the equator makes the chart of the whole position
    stack raise PoleSingularity, whichever row seeds it; every other row
    still gets the outcome analyze_small gives its configuration, bit for
    bit, and the bad row gets its own error."""
    thetas = [0.6, 0.9, 1.2, 1.5, 2.0]
    pole_pair = make_plus_ring_pole_pair(1.0)
    on_equator = np.vstack([pole_pair.positions[:2], [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]])
    for bad in (0, 2):
        positions = np.array([make_plus_ring_pole_pair(t).positions for t in thetas])
        positions[bad] = on_equator
        configs = _stack_configurations(positions, pole_pair.strengths, pole_pair.layout)
        with pytest.raises(PoleSingularity):
            stability._small_stack(positions, configs[0], RESIDUAL_TOL)
        outcomes = stability._small_outcomes(positions, pole_pair.strengths, pole_pair.layout, RESIDUAL_TOL)
        got = [stability._report(None, outcome) for outcome in outcomes]
        assert len(got) == len(thetas)
        assert isinstance(got[bad], PoleSingularity)
        assert str(got[bad]) == "pole vortex sits on the equator; its chart hemisphere is undefined"
        assert sum(isinstance(r, StabilityReport) for r in got) == len(thetas) - 1
        for c, result in zip(configs, got):
            assert _outcome(result) == _outcome(_analyze_small_one(c))


def test_a_zero_dimensional_slice_is_an_error_in_place(monkeypatch):
    """A +1/-1 pair mirrored in the equator leaves no slice, and an
    antipodal one leaves one of dimension 2; in one stack the mirrored pair
    gets its DegenerateForm in place, the others the outcome analyze_small
    gives each, and the stack is analysed once."""
    def pair(theta, turn):
        return [[math.sin(theta), 0.0, math.cos(theta)], [turn * math.sin(theta), 0.0, -math.cos(theta)]]

    positions = np.array([pair(1.0, -1.0), pair(1.0, 1.0), pair(0.7, -1.0)])
    configs = _stack_configurations(positions, np.array([1.0, -1.0]), Layout.standard(1, 1, 0))
    small_stack, calls = stability._small_stack, []

    def counted_stack(*args):
        calls.append(None)
        return small_stack(*args)

    monkeypatch.setattr(stability, "_small_stack", counted_stack)
    got = analyze_small_many(configs)
    assert len(calls) == 1
    assert _outcome(got[1]) == (DegenerateForm, "the slice is zero-dimensional")
    assert [r.verdict for r in got[::2]] == [Verdict.LYAPUNOV_STABLE] * 2
    for c, result in zip(configs, got):
        assert _outcome(result) == _outcome(_analyze_small_one(c))


@pytest.mark.parametrize("grid", range(len(_LARGEST_GRIDS)))
def test_stacked_numeric_pass_memory_is_bounded(grid):
    # 1.08 and 1.17 MB peaks in stacks of 16384 // d**2 configurations;
    # 1.90 and 3.86 MB with each whole grid in one stack.
    configs = _segment_grid(*_LARGEST_GRIDS[grid])
    assert len(configs) == 482
    analyze_small_many(configs[:2])  # load what the first call loads
    tracemalloc.start()
    try:
        results = analyze_small_many(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(r, StabilityReport) for r in results)
    assert peak < 2_000_000


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
    z_plus = same_side.positions[list(same_side.layout.plus), 2]
    assert z_plus[0] * z_plus[1] > 0
    assert analyze_small(same_side).verdict is Verdict.LYAPUNOV_STABLE

    # With the (+)vortices in opposite hemispheres the restricted Hessian is
    # indefinite, so the energy argument fails and the verdict must drop below
    # LyapunovStable (the spectrum itself stays on the imaginary axis here).
    split = branch_c2v_RmRmp(0.5).configuration()  # + heights 0.5, -0.88
    z_plus = split.positions[list(split.layout.plus), 2]
    assert z_plus[0] * z_plus[1] < 0
    report = analyze_small(split)
    assert report.verdict is not Verdict.LYAPUNOV_STABLE
    hess_eigs = np.concatenate([b.hessian_eigenvalues for b in report.blocks])
    assert hess_eigs.min() < -1e-9 < 1e-9 < hess_eigs.max()


_EQUIVARIANCE_CASES = {
    "D3h(2R)": lambda: make_family(_desc(DNH, 3, 0.5)),
    "D2d(R,R')": lambda: make_family(_desc(DND, 2, 1.0)),
    "D3d(R,R',2p)": lambda: make_family(_desc(DND, 3, 0.8, 2)),
    "D2h(2R,2p)": lambda: make_family(_desc(DNH, 2, 1.3, 2)),
    "C2v(Rm,Rm') same side": lambda: branch_c2v_RmRmp(-0.5).configuration(),
    "C2v(Rm,Rm') split": lambda: branch_c2v_RmRmp(0.5).configuration(),
    "C2v(2R,2p)": lambda: branch_c2v_2R2p(0.3).configuration(),
}


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(sorted(_EQUIVARIANCE_CASES)),
    angle=st.floats(0.0, 2.0 * math.pi),
    mirror=st.booleans(),
)
def test_numeric_verdicts_are_equivariant(case, angle, mirror):
    """A rotation about z, optionally followed by the y-mirror, moves a
    relative equilibrium to one with the same verdict and spectra."""
    c = _EQUIVARIANCE_CASES[case]()
    a = rotation_z_matrix(angle)
    if mirror:
        a = mirror_y_matrix() @ a
    g = GroupElement(a)
    before, after = analyze_small(c), analyze_small(apply_group_element(g, c))
    assert after.verdict is before.verdict
    for spectrum in ("hessian_eigenvalues", "linearization_eigenvalues"):
        found, expected = getattr(after, spectrum)(), getattr(before, spectrum)()
        assert spectrum_match(found, expected) <= 1e-6, spectrum


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
    eigs = full_linearization_oracle(make_equatorial_pm_ring(3))
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
    found = list_transitions(DND, 3, 0)
    lower = _pick_transition(found, "HopfLower", 0)
    upper = _pick_transition(found, "HopfUpper", 0)
    assert lower == pytest.approx(1.302, abs=0.005)
    assert upper == pytest.approx(1.315, abs=0.005)
    assert lower < upper


def test_the_dynamics_confirm_the_disputed_dnd_hopf_rows():
    """Criterion 7's three DNd Hopf rows that the scan puts beyond their
    tolerance (k_p = 2: N = 2 HopfLower, N = 3 HopfUpper and HopfLower#1),
    checked by a route that shares only the configuration and ``integrate``
    with ``analyze``.  At each tabulated latitude a perturbed equilibrium
    grows at ``analyze``'s largest |Re lambda|; just on the stable side of
    each computed change its deviation stays below 1e-5 up to t = 60.  Two
    latitudes 0.005 past a computed HopfUpper (N = 3 at k_p 0 and 2), where
    the deviation overshoots 1e-2 and falls back through the fitting window,
    check that the fit reads the first passage only."""
    for n, theta0, k_p in ((2, 2.21, 2), (3, 2.05, 2), (3, 2.25, 2), (3, 1.32, 0), (3, 2.0275, 2)):
        desc = _desc(DND, n, theta0, k_p=k_p)
        report = analyze(desc)
        assert report.verdict is Verdict.LINEARLY_UNSTABLE
        growth = float(np.max(np.abs(report.linearization_eigenvalues().real)))
        fitted = fitted_growth(*chord_deviation(desc, 25.0 / growth))
        assert fitted == pytest.approx(growth, rel=0.01), (n, theta0, k_p)
    for n, theta0 in ((2, 2.225), (3, 2.02), (3, 2.41)):
        desc = _desc(DND, n, theta0, k_p=2)
        assert analyze(desc).verdict is Verdict.LINEARLY_STABLE
        _, deviation = chord_deviation(desc, 60.0)
        assert deviation.max() < 1e-5, (n, theta0)


def test_refinement_catches_windows_thinner_than_the_scan_grid():
    found = list_transitions(DNH, 5, 0)
    uppers = [theta for kind, theta in found if kind == "HopfUpper"]
    assert uppers and min(abs(t - 0.68) for t in uppers) < 0.01


def _windows(*edges_and_verdicts):
    """A list evaluator of the latitude: ``("a", 0.3, "b", 0.6, "c")`` is
    "a" below 0.3, "b" on [0.3, 0.6) and "c" from 0.6 on; a None verdict
    is a latitude with no verdict.  Records every latitude it is asked, and
    the list of each call."""
    verdicts, edges = edges_and_verdicts[::2], edges_and_verdicts[1::2]
    asked, calls = [], []

    def verdicts_at(thetas):
        calls.append(list(thetas))
        asked.extend(thetas)
        return [verdicts[sum(theta >= e for e in edges)] for theta in thetas]

    verdicts_at.calls = calls
    return verdicts_at, asked


def test_verdict_search_returns_nothing_between_equal_ends():
    verdicts_at, asked = _windows("a", 0.3, "b", 0.6, "a")
    assert verdict_changes(verdicts_at, [(0.0, "a"), (1.0, "a")], 1e-6) == []
    assert verdict_changes(verdicts_at, [(0.0, "a"), (0.5, None), (1.0, "a")], 1e-6) == []
    assert asked == []


def test_verdict_search_skips_samples_with_no_verdict_without_breaking_adjacency():
    verdicts_at, _ = _windows("a", 2.5, "b")
    samples = [(0.0, None), (1.0, "a"), (2.0, None), (3.0, None), (4.0, "b"), (5.0, None)]
    ((theta, before, after),) = verdict_changes(verdicts_at, samples, 1e-6)
    assert (before, after) == ("a", "b") and 1.0 < theta < 4.0
    assert theta == pytest.approx(2.5, abs=1e-6)


def test_verdict_search_gives_both_edges_of_a_third_verdict_window():
    verdicts_at, _ = _windows("a", 0.5, "c", 0.5 + 3e-6, "b")
    found = verdict_changes(verdicts_at, [(0.0, "a"), (1.0, "b")], 1e-6)
    assert [(before, after) for _, before, after in found] == [("a", "c"), ("c", "b")]
    assert found[0][0] == pytest.approx(0.5, abs=1e-6)
    assert found[1][0] == pytest.approx(0.5 + 3e-6, abs=1e-6)


def test_verdict_search_counts_a_missing_verdict_as_the_upper_end():
    verdicts_at, _ = _windows("a", 0.3, None, 0.7, "b")
    found = verdict_changes(verdicts_at, [(0.0, "a"), (1.0, "b")], 1e-6)
    assert [(before, after) for _, before, after in found] == [("a", "b")]
    assert found[0][0] == pytest.approx(0.3, abs=1e-6)


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-10])
def test_verdict_search_brackets_are_no_wider_than_tol(tol):
    edges = ("a", 0.1, "b", 0.2, "a", 0.2 + tol / 3, "c", 0.9, "b")
    verdicts_at, asked = _windows(*edges)
    found = verdict_changes(verdicts_at, [(0.0, "a"), (1.0, "b")], tol)
    assert found and [t for t, _, _ in found] == sorted(t for t, _, _ in found)
    ends = sorted({0.0, 1.0, *asked})
    brackets = {0.5 * (lo + hi): hi - lo for lo, hi in zip(ends, ends[1:])}
    for theta, before, after in found:
        assert before != after
        assert brackets[theta] <= tol
        assert min(abs(theta - e) for e in edges[1::2]) <= tol / 2


def _depth_first(verdict_at, lo, v_lo, hi, v_hi, tol):
    """The one-bracket recursive halving, one latitude per call: the oracle
    of the search in rounds."""
    if v_lo == v_hi:
        return []
    mid = 0.5 * (lo + hi)
    if hi - lo <= tol or not lo < mid < hi:
        return [(mid, v_lo, v_hi)]
    if (v_mid := verdict_at(mid)) is None:
        v_mid = v_hi
    return _depth_first(verdict_at, lo, v_lo, mid, v_mid, tol) + _depth_first(verdict_at, mid, v_mid, hi, v_hi, tol)


def _adjacent(samples):
    """``(lo, v_lo, hi, v_hi)`` for each adjacent pair of the samples that
    have a verdict."""
    known = [(t, v) for t, v in samples if v is not None]
    return [(lo, v_lo, hi, v_hi) for (lo, v_lo), (hi, v_hi) in zip(known, known[1:])]


def _depth_first_over(verdict_at, samples, tol):
    """The oracle over samples: :func:`_depth_first` run over each adjacent
    pair of the samples that have a verdict."""
    return [change for bracket in _adjacent(samples) for change in _depth_first(verdict_at, *bracket, tol)]


def _open_by_level(verdict_at, lo, v_lo, hi, v_hi, tol):
    """Per halving level, the ``(lo, hi)`` of every piece of one bracket
    that the one-level-per-call search still halves there."""
    levels, level = [], [(lo, v_lo, hi, v_hi)]
    while level := [p for p in level if p[1] != p[3] and p[2] - p[0] > tol and p[0] < 0.5 * (p[0] + p[2]) < p[2]]:
        levels.append([(lo, hi) for lo, _, hi, _ in level])
        halves = []
        for lo, v_lo, hi, v_hi in level:
            mid = 0.5 * (lo + hi)
            v_mid = v_hi if (v := verdict_at(mid)) is None else v
            halves += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
        level = halves
    return levels


def _asks_by_the_rounds(calls, alone, verdicts_at, samples, tol):
    """The rounds' calls ask every latitude the depth-first search asks
    (``alone``), none twice, and in each call only the midpoints and the
    quarter points of the pieces open at that call's first halving level
    (``verdicts_at``, a list evaluator, gives the levels)."""
    asked = [theta for call in calls for theta in call]
    assert set(alone) <= set(asked) and len(set(asked)) == len(asked)
    levels = [_open_by_level(lambda t: verdicts_at([t])[0], *bracket, tol) for bracket in _adjacent(samples)]
    for r, call in enumerate(calls):
        allowed = set()
        for lo, hi in (piece for per_level in levels if 2 * r < len(per_level) for piece in per_level[2 * r]):
            mid = 0.5 * (lo + hi)
            allowed |= {mid, 0.5 * (lo + mid), 0.5 * (mid + hi)}
        assert set(call) <= allowed


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_verdict_search_asks_one_call_per_halving_round(tol):
    edges = ("a", 0.1, "b", 0.2, None, 0.2 + tol / 3, "c", 0.9, "b", 1.7, "a", 2.45, "c")
    samples = [(0.0, "a"), (1.0, "b"), (1.5, "b"), (2.0, "a"), (3.0, "c")]
    verdicts_at, asked = _windows(*edges)
    found = verdict_changes(verdicts_at, samples, tol)
    one_at_a_time, alone = _windows(*edges)
    assert found == _depth_first_over(lambda t: one_at_a_time([t])[0], samples, tol)
    _asks_by_the_rounds(verdicts_at.calls, alone, _windows(*edges)[0], samples, tol)
    # one call per round of two halving levels: half the halvings of the
    # widest bracket (1.0) down to tol, rounded up
    assert len(verdicts_at.calls) == math.ceil(math.ceil(math.log2(1.0 / tol)) / 2) < len(asked)


@st.composite
def _step_searches(draw):
    """A step function of the latitude on [0, 3] (1 to 6 edges, some
    windows narrower than tol, some stretches with no verdict), its samples
    on a grid (a sample in a stretch with no verdict has None), and a tol."""
    tol = draw(st.sampled_from([0.0, 1e-17, 1e-10, 1e-6, 1e-3]))
    edges = []
    for _ in range(draw(st.integers(1, 6))):
        edge = draw(st.floats(0.0, 3.0))
        edges += [edge] if draw(st.booleans()) else [edge, edge + draw(st.floats(0.0, 0.99)) * tol]
    edges = sorted(edges)[:6]
    verdicts = [draw(st.sampled_from(["a", "b", "c", None])) for _ in range(len(edges) + 1)]
    steps = [x for pair in zip(verdicts, edges) for x in pair] + verdicts[-1:]
    n = draw(st.integers(1, 12))
    grid = sorted(draw(st.sets(st.integers(0, n), min_size=2)))
    verdict_of, _ = _windows(*steps)
    return steps, tol, [(3.0 * i / n, verdict_of([3.0 * i / n])[0]) for i in grid]


@settings(max_examples=150, deadline=None)
@given(search=_step_searches())
@example(
    search=(
        (None, 0.4, "a", 1.1, None, 1.9, "b", 2.6, None),
        1e-6,
        [(0.0, None), (0.5, "a"), (1.0, "a"), (1.5, None), (1.75, None), (2.0, "b"), (2.5, "b"), (3.0, None)],
    )
)
def test_verdict_search_matches_the_depth_first_search_on_step_functions(search):
    steps, tol, samples = search
    verdicts_at, _ = _windows(*steps)
    found = verdict_changes(verdicts_at, samples, tol)
    one_at_a_time, alone = _windows(*steps)
    assert found == _depth_first_over(lambda t: one_at_a_time([t])[0], samples, tol)
    _asks_by_the_rounds(verdicts_at.calls, alone, _windows(*steps)[0], samples, tol)


def _flip_at_one(calls):
    """Verdicts "a" below 1.0 and "b" from it on; more than 200 calls fail
    the test rather than hang it."""

    def verdicts_at(thetas):
        calls.append(list(thetas))
        if len(calls) > 200:
            raise AssertionError("the halving does not end")
        return ["a" if theta < 1.0 else "b" for theta in thetas]

    return verdicts_at


@pytest.mark.parametrize("tol", [0.0, 1e-17])
def test_verdict_search_ends_at_adjacent_floats(tol):
    """The first midpoint of (0.5, 1.5) is the change at 1.0 itself; the
    lower half then shrinks until its ends are adjacent floats, whose
    midpoint is not inside, and the search ends there."""
    calls, alone, samples = [], [], [(0.5, "a"), (1.5, "b")]
    found = verdict_changes(_flip_at_one(calls), samples, tol)
    assert [(before, after) for _, before, after in found] == [("a", "b")]
    assert found[0][0] in (np.nextafter(1.0, 0.0), 1.0)
    one_at_a_time = _flip_at_one(alone)
    assert found == _depth_first_over(lambda t: one_at_a_time([t])[0], samples, tol)
    _asks_by_the_rounds(calls, [t for (t,) in alone], _flip_at_one([]), samples, tol)
    # 53 halving levels, two per call
    assert len(calls) == 27


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_verdict_search_rejects_a_nan_or_negative_tol(tol):
    calls = []
    with pytest.raises(InvalidDescriptor):
        verdict_changes(_flip_at_one(calls), [(0.5, "a"), (1.5, "b")], tol)
    assert calls == []


def test_missing_transition_raises():
    with pytest.raises(NoTransition):
        _pick_transition(list_transitions(DND, 5, 0), "StabilityGain", 0)
    with pytest.raises(InvalidDescriptor):
        _pick_transition(list_transitions(DND, 2, 0), "Wobble", 0)


def test_transition_reader_picks_what_the_whole_scan_gives_in_any_order():
    found = list_transitions(DND, 3, 2)
    asked = [("HopfLower", 1), ("HopfUpper", 0), ("HopfLower", 0), ("StabilityGain", 0), ("HopfUpper", 0)]
    for order in (asked, asked[::-1]):
        read = _transition_reader(FamilyDescriptor(DND, 3, k_p=2), 0.005, 1e-6)
        for transition, occurrence in order:
            try:
                want = _pick_transition(found, transition, occurrence)
            except NoTransition:
                with pytest.raises(NoTransition):
                    read(transition, occurrence)
            else:
                assert read(transition, occurrence) == want
        with pytest.raises(InvalidDescriptor):
            read("Wobble", 0)


def test_the_scan_decides_the_grid_in_the_stacks_of_the_closed_form_pass(monkeypatch):
    """The closed-form stacks are cut in one place: the scan's grid stacks,
    as ``(first latitude, length)``, are those of ``decide_many`` over the
    grid, in order.  DNd N=3 with poles has zero momentum at acos(-1/3),
    the 300th grid point here, which is a stack of its own and restarts
    the cut after it (64 latitudes a stack).  The midpoints and quarter
    points of halving rounds are never grid points, so the stacks that
    start on the grid are the grid's stacks."""
    step = math.acos(-1.0 / 3.0) / 300
    grid = stability._scan_points(DND, 2, step)
    stacks, stack_arrays = [], stability._stack_arrays

    def recorded(key, stack):
        stacks.append((stack[0][0].theta0, len(stack)))
        return stack_arrays(key, stack)

    monkeypatch.setattr(stability, "_stack_arrays", recorded)
    assert list_transitions(DND, 3, 2, grid_step=step)
    scanned, on_grid = stacks[:], set(grid.tolist())
    stacks.clear()
    list(decide_many(_desc(DND, 3, theta, 2) for theta in grid))
    assert (grid[299], 1) in stacks
    assert [s for s in scanned if s[0] in on_grid] == stacks


def test_transition_reader_checks_its_arguments_before_it_is_read():
    with pytest.raises(InvalidDescriptor):
        _transition_reader(FamilyDescriptor(DNH, 2), 0.0, 1e-6)
    with pytest.raises(InvalidDescriptor, match="^latitude scans cover the two-ring families$"):
        _transition_reader(FamilyDescriptor("TetrahedralPair", 2), 0.005, 1e-6)
    with pytest.raises(InvalidDescriptor, match="^ring families need 2 <= n_per_ring <= 256$"):
        _transition_reader(FamilyDescriptor(DNH, 1), 0.005, 1e-6)


def test_transition_reader_ignores_its_templates_latitude():
    """A template is checked at pi/2, a latitude every ring family takes, so
    one that sits where no pole-free member may still reads its family's scan."""
    off = _transition_reader(FamilyDescriptor(DNH, 3, theta0=2.0), 0.005, 1e-6)
    assert off("StabilityLoss", 0) == _transition_reader(FamilyDescriptor(DNH, 3), 0.005, 1e-6)("StabilityLoss", 0)


@pytest.mark.parametrize(
    "grid_step,tol",
    [(0.005, 0.0), (0.005, -1.0), (0.005, 1e-17), (0.005, math.nan), (0.005, math.inf),
     (0.0, 1e-6), (-1.0, 1e-6), (math.nan, 1e-6), (math.inf, 1e-6), (1e-300, 1e-6),
     (math.pi / MAX_GRID_POINTS / 2, 1e-6)],
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
