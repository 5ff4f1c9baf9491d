"""End-to-end guarantees of the package, one check per numbered criterion.

Each test exercises a published behavior across its full advertised
parameter range, prints a single summary line, and enforces the runtime
budget the behavior is documented to fit in.  The checks are ordered from
raw dynamics through spectral analysis to the bifurcation diagram, so a
failure early in the file points at the layer that broke.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from vortex_atlas.atlas import build_diagram
from vortex_atlas.core import Family, FamilyDescriptor
from vortex_atlas.dynamics import (
    MixedChart,
    integrate,
    vector_field,
)
from vortex_atlas.equilibria import (
    NoRoot,
    OutOfDomain,
    TwoRingPhase,
    angular_velocity_generic,
    branch_c2v_2R2p,
    branch_c2v_RRp2p,
    branch_c2v_RmRmp_all,
    configuration_angular_velocity,
    make_equatorial_pm_ring,
    make_family,
    make_tetrahedral_pair,
    re_residual,
    ring_angular_velocity,
    two_ring_phase_test,
)
from vortex_atlas.stability import (
    REFERENCE_THRESHOLDS,
    NoTransition,
    StabilityReport,
    Verdict,
    analyze,
    analyze_many,
    analyze_small,
    critical_latitude,
    full_linearization_oracle,
    hessian_closed_form,
    slice_basis,
)

DND = Family.DND_RRP
DNH = Family.DNH_2R


def _report(number: int, name: str, detail: str, elapsed: float) -> None:
    print(f"[criterion {number:2d}] {name}: PASS — {detail} ({elapsed:.2f} s)")


def test_01_fixed_equilibria_have_vanishing_velocity():
    start = time.perf_counter()
    worst = 0.0
    for n_pairs in range(2, 7):
        field = vector_field(make_equatorial_pm_ring(n_pairs))
        worst = max(worst, float(np.max(np.abs(field))))
    field = vector_field(make_tetrahedral_pair())
    worst = max(worst, float(np.max(np.abs(field))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"max |velocity| {worst:.3e} at a fixed equilibrium"
    assert elapsed < 1.0
    _report(1, "fixed equilibria", f"max |velocity| {worst:.1e}", elapsed)


def test_02_invariants_conserved_along_random_trajectories(pm_sampler):
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_h = worst_phi = 0.0
    for _ in range(20):
        c = pm_sampler(rng, 3, min_chord=0.15)
        traj = integrate(c, 10.0, tol=1e-10)
        worst_h = max(worst_h, max(abs(d) for d in traj.h_drift))
        worst_phi = max(worst_phi, max(traj.phi_drift))
    elapsed = time.perf_counter() - start
    assert worst_h < 1e-8, f"energy drift {worst_h:.3e}"
    assert worst_phi < 1e-8, f"momentum drift {worst_phi:.3e}"
    assert elapsed < 30.0
    _report(
        2,
        "conservation",
        f"20 random 6-vortex runs to t=10: |dH| <= {worst_h:.1e}, "
        f"|dPhi| <= {worst_phi:.1e}",
        elapsed,
    )


def test_03_ring_rotation_rates_match_generic_formula():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for family in (DNH, DND):
        for n in range(2, 9):
            for theta0 in (0.2, 0.5, 0.8, 1.1, 1.4):
                for k_p in (0, 2):
                    desc = FamilyDescriptor(family, n, theta0=theta0, k_p=k_p)
                    xi = float(ring_angular_velocity(desc))
                    c = make_family(desc)
                    rates = [
                        angular_velocity_generic(c, i) for i in range(2 * n)
                    ]
                    worst = max(worst, max(abs(r - xi) for r in rates))
                    cases += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"rate mismatch {worst:.3e}"
    assert elapsed < 1.0
    _report(3, "rotation rates", f"{cases} cases, max |delta| {worst:.1e}", elapsed)


def test_04_closed_form_hessian_matches_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for family in (DNH, DND):
        for n in range(2, 7):
            for theta0 in (0.3, 0.7, 1.2):
                for k_p in (0, 2):
                    desc = FamilyDescriptor(family, n, theta0=theta0, k_p=k_p)
                    closed = hessian_closed_form(desc)
                    chart = MixedChart(make_family(desc))
                    xi = float(ring_angular_velocity(desc))
                    fd = chart.hessian_fd(chart.coords(), xi)
                    worst = max(worst, float(np.max(np.abs(closed - fd))))
                    cases += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst Hessian entry mismatch {worst:.3e}"
    assert elapsed < 10.0
    _report(4, "Hessian closed forms", f"{cases} grids, max |delta| {worst:.1e}", elapsed)


def test_05_slice_block_structure():
    start = time.perf_counter()
    worst_rel = 0.0
    for family in (DNH, DND):
        for n in range(2, 7):
            for theta0, k_p in ((0.4, 0), (1.0, 0), (0.7, 2), (2.1, 2)):
                if family is DNH and k_p == 0 and theta0 > math.pi / 2:
                    continue
                desc = FamilyDescriptor(family, n, theta0=theta0, k_p=k_p)
                basis = slice_basis(desc)
                expected = 4 * n if k_p else 4 * n - 4
                assert len(basis) == expected, desc.label
                projected = basis.matrix.T @ hessian_closed_form(desc) @ basis.matrix
                biggest = np.max(np.abs(projected))
                labels = basis.labels
                for i, li in enumerate(labels):
                    for j, lj in enumerate(labels):
                        if li != lj:
                            worst_rel = max(
                                worst_rel, abs(projected[i, j]) / biggest
                            )
    # zero total vertical momentum removes two more directions
    for n in range(2, 7):
        assert len(slice_basis(FamilyDescriptor(DND, n, theta0=math.pi / 2))) == 4 * n - 6
    elapsed = time.perf_counter() - start
    assert worst_rel < 1e-9, f"cross-block coupling {worst_rel:.3e}"
    assert elapsed < 5.0
    _report(
        5,
        "block structure",
        f"dimensions 4N-4/4N/4N-6 verified, max cross-block coupling {worst_rel:.1e}",
        elapsed,
    )


def test_06_slice_spectra_match_full_linearization():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for family in (DNH, DND):
        for k_p in (0, 2):
            for n in range(2, 7):
                for theta0 in (0.3, 0.7, 1.1):
                    desc = FamilyDescriptor(family, n, theta0=theta0, k_p=k_p)
                    expected = analyze(desc).linearization_eigenvalues()
                    found = full_linearization_oracle(make_family(desc))
                    assert found.size == expected.size + 4
                    cost = np.abs(expected[:, None] - found[None, :])
                    rows, cols = linear_sum_assignment(cost)
                    scale = max(1.0, float(np.max(np.abs(expected))))
                    worst = max(worst, float(cost[rows, cols].max()) / scale)
                    cases += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst spectrum mismatch {worst:.3e}"
    assert elapsed < 30.0
    _report(6, "spectrum oracle", f"{cases} spectra, max mismatch {worst:.1e}", elapsed)


def test_07_critical_latitudes_match_the_reference_table():
    start = time.perf_counter()
    lines = []
    failures = []
    for row in REFERENCE_THRESHOLDS:
        label = (
            f"{row.family.value} N={row.n_per_ring} k_p={row.k_p} "
            f"{row.transition}#{row.occurrence}"
        )
        try:
            theta = critical_latitude(
                row.family, row.n_per_ring, row.k_p, row.transition, row.occurrence
            )
        except NoTransition:
            failures.append(f"{label}: transition not found (expected {row.reference_value})")
            continue
        delta = abs(theta - row.reference_value)
        lines.append(
            f"{label}: computed {theta:.4f}, reference {row.reference_value}, "
            f"|delta| {delta:.4f} (tol {row.tolerance})"
        )
        if delta > row.tolerance:
            failures.append(lines[-1])
    elapsed = time.perf_counter() - start
    print(f"[criterion  7] critical latitudes ({elapsed:.2f} s):")
    for line in lines:
        print("   ", line)
    assert elapsed < 120.0
    assert not failures, (
        f"{len(failures)}/{len(REFERENCE_THRESHOLDS)} reference thresholds "
        "disagree:\n" + "\n".join(failures)
    )
    _report(7, "critical latitudes", f"{len(lines)} thresholds reproduced", elapsed)


def test_08_blanket_verdicts_across_whole_families():
    start = time.perf_counter()
    checked = 0

    def assert_unstable_everywhere(family, n, k_p, grid):
        nonlocal checked
        descs = [FamilyDescriptor(family, n, theta0=float(theta0), k_p=k_p) for theta0 in grid]
        for desc, report in zip(descs, analyze_many(descs)):
            assert isinstance(report, StabilityReport), (
                f"{desc.label} at theta0={desc.theta0:.3f}: {report!r}"
            )
            assert report.verdict is Verdict.LINEARLY_UNSTABLE, (
                f"{desc.label} at theta0={desc.theta0:.3f}: {report.verdict.value}"
            )
            checked += 1

    half_grid = np.arange(0.005, math.pi / 2 - 5e-4, 0.005)
    full_grid = np.arange(0.005, math.pi - 0.0025, 0.005)
    full_grid = full_grid[np.abs(full_grid - math.pi / 2) > 5e-4]
    for n in range(4, 9):
        assert_unstable_everywhere(DND, n, 0, np.append(half_grid, math.pi / 2))
    for n in range(7, 11):
        assert_unstable_everywhere(DNH, n, 0, half_grid)
    for n in range(9, 13):
        assert_unstable_everywhere(DNH, n, 2, full_grid)
    for n in range(3, 9):
        report = analyze(FamilyDescriptor(Family.EQUATORIAL_PM_RING, n))
        assert report.verdict is Verdict.LINEARLY_UNSTABLE, f"2N={2*n} equatorial"
        checked += 1
    square = analyze(FamilyDescriptor(Family.EQUATORIAL_PM_RING, 2))
    assert square.verdict is Verdict.LYAPUNOV_STABLE
    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, "blanket verdicts", f"{checked} grid points", elapsed)


def test_09_low_symmetry_branch_verdicts():
    start = time.perf_counter()

    def ten_points(solver):
        points = []
        for x in np.linspace(-0.9, 0.9, 37):
            try:
                points.append(solver(float(x)))
            except (OutOfDomain, NoRoot):
                continue
            if len(points) == 10:
                break
        assert len(points) == 10, "fewer than 10 branch points solved"
        return points

    unstable_branches = {
        "crossed rings": lambda x: branch_c2v_RRp2p(x, 0.0, -1),
        "crossed rings, poles up": lambda x: branch_c2v_RRp2p(x, 1.0, -1),
        "crossed rings, poles down": lambda x: branch_c2v_RRp2p(x, -1.0, +1),
        "stacked rings, poles up": lambda x: branch_c2v_2R2p(x, 1.0),
        "stacked rings, poles down": lambda x: branch_c2v_2R2p(x, -1.0),
    }
    for name, solver in unstable_branches.items():
        for bp in ten_points(solver):
            report = analyze_small(bp.configuration())
            assert report.verdict is Verdict.LINEARLY_UNSTABLE, (
                f"{name} at x={bp.x:.3f}: {report.verdict.value}"
            )

    meridian_cases = 0
    for x in np.linspace(-0.9, 0.65, 32):
        try:
            points = branch_c2v_RmRmp_all(float(x))
        except OutOfDomain:
            continue
        for bp in points:
            c = bp.configuration()
            z_plus = c.positions[list(c.layout.plus), 2]
            share_hemisphere = z_plus[0] * z_plus[1] > 0
            verdict = analyze_small(c).verdict
            if share_hemisphere:
                assert verdict is Verdict.LYAPUNOV_STABLE, (
                    f"meridian x={bp.x:.3f}, y={bp.y:.3f}: {verdict.value}"
                )
            else:
                assert verdict is not Verdict.LYAPUNOV_STABLE, (
                    f"meridian x={bp.x:.3f}, y={bp.y:.3f}: {verdict.value}"
                )
            meridian_cases += 1
    assert meridian_cases >= 20
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        9,
        "low-symmetry branches",
        f"50 unstable branch points + {meridian_cases} meridian verdicts",
        elapsed,
    )


def test_10_pitchforks_on_the_two_pair_diagram():
    start = time.perf_counter()
    diagram = build_diagram(2)
    found = {
        (b.kind, round(b.mu_z, 6)): b for b in diagram.bifurcations
    }
    sub = [b for b in diagram.bifurcations if abs(b.mu_z - 1.66) < 0.02]
    sup = [b for b in diagram.bifurcations if abs(b.mu_z - 3.15) < 0.02]
    assert sub and sub[0].kind == "subcritical", f"bifurcations: {sorted(found)}"
    assert sup and sup[0].kind == "supercritical", f"bifurcations: {sorted(found)}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        10,
        "pitchfork detection",
        f"subcritical at mu={sub[0].mu_z:.4f}, supercritical at mu={sup[0].mu_z:.4f}",
        elapsed,
    )


def test_11_branch_algebra_and_ring_phases():
    start = time.perf_counter()

    def quartic(x, y, lam):
        return (
            x * x * y * y
            - 2.0 * y * y
            - 2.0 * x * x
            + 2.0 * x * y
            + 1.0
            - 2.0 * lam * (1.0 - x * y) * (x - y)
        )

    worst_q = 0.0
    worst_res = 0.0
    solved = 0
    for lam, sign in ((1.0, -1), (-1.0, +1), (0.0, -1)):
        for x in np.linspace(-0.9, 0.9, 25):
            try:
                bp = branch_c2v_RRp2p(float(x), lam, sign)
            except (OutOfDomain, NoRoot):
                continue
            solved += 1
            worst_q = max(worst_q, abs(quartic(bp.x, bp.y, lam)))
            c = bp.configuration()
            worst_res = max(
                worst_res, re_residual(c, configuration_angular_velocity(c))
            )
    assert solved >= 30
    assert worst_q < 1e-10, f"quartic residual {worst_q:.3e}"

    for lam in (1.0, -1.0):
        for x in np.linspace(-0.9, 0.9, 13):
            c = branch_c2v_2R2p(float(x), lam).configuration()
            worst_res = max(
                worst_res, re_residual(c, configuration_angular_velocity(c))
            )
    for x in np.linspace(-0.9, 0.65, 16):
        for bp in branch_c2v_RmRmp_all(float(x)):
            c = bp.configuration()
            worst_res = max(
                worst_res, re_residual(c, configuration_angular_velocity(c))
            )
    assert worst_res < 1e-8, f"equilibrium residual {worst_res:.3e}"

    for n in (2, 3, 5):
        aligned = make_family(FamilyDescriptor(DNH, n, theta0=0.8))
        assert two_ring_phase_test(aligned) is TwoRingPhase.IN_PHASE
        staggered = make_family(FamilyDescriptor(DND, n, theta0=0.8))
        assert (
            two_ring_phase_test(staggered) is TwoRingPhase.OUT_OF_PHASE_BY_PI_OVER_N
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        11,
        "branch algebra",
        f"quartic residual {worst_q:.1e}, equilibrium residual {worst_res:.1e}",
        elapsed,
    )
