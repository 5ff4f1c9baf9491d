"""Command line and batch layer over the vortex families.

Five commands:

``simulate``
    Integrate a configuration file and write the trajectory as CSV.
``classify``
    Run the stability analysis for a family descriptor (or a raw
    configuration) and print the report as JSON.
``sweep``
    Evaluate a latitude grid over one or more ring families and write
    one CSV row per grid point.
``diagram``
    Trace every branch of the energy-momentum diagram for 2 or 3 vortex
    pairs, emit an SVG figure plus the underlying CSV, and report the
    detected pitchfork bifurcations.
``thresholds``
    Recompute every tabulated critical latitude and report it next to
    its reference value.

Exit codes: 0 success, 1 usage error, 2 input error, 3 numeric failure.
All CSV floats are formatted with ``%.12g`` so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    MAX_GRID_POINTS,
    MAX_RING_SIZE,
    STACK_ELEMENTS,
    Configuration,
    Family,
    FamilyDescriptor,
    InvalidDescriptor,
    OutOfDomain,
    VortexError,
    _family_named,
)
from .dynamics import (
    CollisionApproach,
    StepSizeUnderflow,
    hamiltonian,
    hamiltonians,
    integrate,
    momentum_map,
)
from .equilibria import (
    BRANCH_RESIDUAL_TOL,
    BranchPoint,
    _branch_stack,
    branch_c2v_RmRmp_all,
    branch_c2v_RRp2p,
    make_equatorial_pm_ring,
    make_family,
    two_ring_positions,
)
from .stability import (
    REFERENCE_THRESHOLDS,
    Decision,
    DegenerateForm,
    NoTransition,
    NotRelativeEquilibrium,
    Verdict,
    _small_outcomes,
    _transition_reader,
    analyze,
    analyze_small,
    decide_many,
    verdict_changes,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Errors of a well-formed input that the numerics cannot carry through;
# ``main`` maps them to EXIT_NUMERIC and every other VortexError to EXIT_INPUT.
_NUMERIC_ERRORS = (CollisionApproach, StepSizeUnderflow, NotRelativeEquilibrium, DegenerateForm)

_SWEEP_COLUMNS = ("family", "N", "theta0", "mu_z", "xi_z", "H", "verdict", "deciding_block")
_THRESHOLD_COLUMNS = ("family", "N", "k_p", "transition", "theta_star", "reference_value", "abs_delta")
_DIAGRAM_COLUMNS = ("branch", "param", "mu_z", "energy", "verdict")


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _write_rows(out: str | None, fmt: str, columns: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """A table as CSV, or as a JSON list of one object per row."""
    if fmt == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        _write_text(out, json.dumps(payload, indent=2) + "\n")
    else:
        _write_text(out, _csv(columns, rows))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A latitude grid over a set of ring families.

    ``grid()`` excludes the chart singularities at 0 and pi, and steps
    from ``theta_start`` to ``theta_stop`` inclusive.
    """

    families: tuple[str, ...]
    n_values: tuple[int, ...]
    theta_start: float
    theta_stop: float
    theta_step: float
    k_p: int = 0
    lambda_n: float = 1.0

    def __post_init__(self) -> None:
        bounds = (self.theta_start, self.theta_stop, self.theta_step)
        if not all(math.isfinite(x) for x in bounds):
            raise OutOfDomain("theta_start, theta_stop and theta_step must be finite")
        if self.theta_step <= 0.0:
            raise OutOfDomain("theta_step must be positive")
        if not self.families:
            raise OutOfDomain("at least one family is required")
        if not math.isfinite(self.lambda_n):
            raise OutOfDomain("lambda_n must be finite")
        if self.k_p and self.lambda_n == 0.0:
            raise OutOfDomain("lambda_n must be nonzero")
        _check_ring_sizes(self.n_values)
        # grid() is built once, even for an empty list of ring sizes
        latitudes = max((self.theta_stop - self.theta_start) / self.theta_step + 1.0, 0.0)
        if len(self.families) * max(len(self.n_values), 1) * latitudes > MAX_GRID_POINTS:
            raise OutOfDomain(f"a sweep holds at most {MAX_GRID_POINTS} points (families x sizes x latitudes)")

    def grid(self) -> tuple[float, ...]:
        if self.theta_stop < self.theta_start:
            return ()
        values = np.arange(self.theta_start, self.theta_stop + 0.5 * self.theta_step, self.theta_step)
        keep = (values > 1e-9) & (values < math.pi - 1e-9)
        return tuple(float(v) for v in values[keep])


def _check_ring_sizes(sizes: Sequence[int]) -> None:
    if any(not 2 <= n <= MAX_RING_SIZE for n in sizes):
        raise OutOfDomain(f"ring sizes must lie in 2..{MAX_RING_SIZE}")


def _members(
    family: Family, n: int, k_p: int, lambda_n: float, thetas: Sequence[float]
) -> Iterator[tuple[Decision, float] | None]:
    """``(decision, energy)`` of the ring-family member at each latitude;
    ``None`` where the closed form or the constructor raises.  The decisions
    come from one stacked closed-form pass, the energies from stacked
    positions in chunks of ``STACK_ELEMENTS // d**2`` latitudes (d = 4N + 2k_p,
    as the closed-form stacks)."""
    descs = [FamilyDescriptor(family, n, theta, k_p, lambda_n) for theta in thetas]
    decisions = list(decide_many(descs))
    size = max(1, STACK_ELEMENTS // (4 * n + 2 * k_p) ** 2)
    for start in range(0, len(descs), size):
        chunk = decisions[start : start + size]
        ok = np.array([not isinstance(d, VortexError) for d in chunk])
        if not ok.any():
            yield from [None] * len(chunk)
        elif family in (Family.DNH_2R, Family.DND_RRP):
            positions, strengths, clear = two_ring_positions(family, n, k_p, lambda_n, thetas[start : start + size])
            ok &= clear
            energies = iter(hamiltonians(positions[ok], strengths).tolist())
            yield from ((d, next(energies)) if good else None for d, good in zip(chunk, ok.tolist()))
        else:  # the equatorial ring, the one other family the closed form takes, ignores theta0
            energy = hamiltonian(make_family(descs[start]))
            yield from ((d, energy) if good else None for d, good in zip(chunk, ok.tolist()))


def run_sweep(spec: SweepSpec) -> list[tuple[str, ...]]:
    """Evaluate the grid in grid order: one stacked closed-form pass per
    family and ring size, and the energy of each row."""
    grid = spec.grid()
    rows = []
    for family in spec.families:
        for n in spec.n_values:
            try:
                members = _members(_family_named(family), n, spec.k_p, spec.lambda_n, grid)
            except VortexError:
                members = [None] * len(grid)
            for theta, member in zip(grid, members):
                row = (family, str(n), _fmt(theta))
                if member is None:
                    rows.append(row + ("", "", "", "error", ""))
                    continue
                decision, energy = member
                rows.append(row + (_fmt(decision.mu_z), _fmt(decision.xi_z), _fmt(energy),
                                   decision.verdict.value, decision.deciding_block))
    return rows


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramPoint:
    """One plotted point: a configuration's momentum, energy, and verdict."""

    branch_label: str
    param: float
    mu_z: float
    energy: float
    verdict: str


_Evaluator = Callable[[Sequence[float]], Iterable[tuple[Decision, float] | None]]


@dataclass
class _Segment:
    """A continuously parametrized piece of one diagram branch.

    ``evaluate`` maps parameters to ``(decision, energy)`` each, or
    ``None`` where a parameter leaves the branch domain; ``sample`` passes
    it the whole grid, and the search for a parent's verdict changes the
    midpoints and quarter points of one halving round.
    """

    label: str
    params: np.ndarray
    evaluate: _Evaluator
    is_parent: bool
    points: list[DiagramPoint] = field(default_factory=list)

    def sample(self) -> None:
        params = self.params.tolist()
        self.points = [
            DiagramPoint(self.label, p, got[0].mu_z, got[1], got[0].verdict.value)
            for p, got in zip(params, self.evaluate(params))
            if got is not None
        ]


@dataclass(frozen=True)
class Bifurcation:
    """A detected pitchfork: a child branch leaving a symmetric parent."""

    kind: str
    mu_z: float
    energy: float
    parent: str
    child: str


@dataclass(frozen=True)
class Diagram:
    n_pairs: int
    segments: tuple[_Segment, ...]
    fixed_point: DiagramPoint
    bifurcations: tuple[Bifurcation, ...]

    def points(self) -> list[DiagramPoint]:
        out = [p for seg in self.segments for p in seg.points]
        out.append(self.fixed_point)
        return out


def _ring_segment(tag: str, family: Family, n: int, k_p: int, params: np.ndarray) -> _Segment:
    """The parent segment of one ring family, labelled ``(tag) <family label>``."""

    label = FamilyDescriptor(family, n, k_p=k_p).label
    return _Segment(f"({tag}) {label}", params, functools.partial(_members, family, n, k_p, 1.0), is_parent=True)


def _branch(solve: Callable[[float], BranchPoint | float | None]) -> _Evaluator:
    """A low-symmetry segment's evaluator, called on its grid (where some solve):
    it solves every parameter, builds the points as one position stack, and takes
    the rows a :class:`Configuration` accepts through one stacked numeric analysis
    at the branch bound ``BRANCH_RESIDUAL_TOL``, which drops each one it refuses, and one energy pass."""

    def evaluate(params: Sequence[float]) -> list[tuple[Decision, float] | None]:
        solved = []
        for k, x in enumerate(params):
            with contextlib.suppress(VortexError):
                if (point := solve(x)) is not None:
                    solved.append((k, point))
        out: list[tuple[Decision, float] | None] = [None] * len(params)
        positions, strengths, layout, kept = _branch_stack([point for _, point in solved])
        positions = positions[kept]
        outcomes = _small_outcomes(positions, strengths, layout, BRANCH_RESIDUAL_TOL)
        for (k, _), outcome, e in zip(compress(solved, kept), outcomes, hamiltonians(positions, strengths).tolist()):
            if not isinstance(outcome, VortexError):
                out[k] = (outcome[0], e)
        return out

    return evaluate


def _figure_segments(n_pairs: int) -> list[_Segment]:
    if n_pairs not in (2, 3):
        raise OutOfDomain("the diagram is built for 2 or 3 vortex pairs")
    # Grid edges stay clear of chart singularities and vortex collisions,
    # where the energy diverges and would squash the plotted range.
    pts = 241
    half = np.linspace(0.1, math.pi / 2 - 0.05, pts)
    half_closed = np.linspace(0.1, math.pi / 2, pts)
    full = np.linspace(0.1, math.pi - 0.1, 2 * pts)
    full_gapped = full[np.abs(full - math.pi / 2) > 0.05]
    interval = np.linspace(-0.97, 0.97, 2 * pts)
    segments: list[_Segment] = []
    if n_pairs == 2:
        for sign in (-1, 1):
            solve = _branch(lambda x, s=sign: branch_c2v_RRp2p(x, 0.0, s))
            segments.append(_Segment("(a) C2v(R,R')", interval, solve, is_parent=False))
        segments.append(_ring_segment("b", Family.DNH_2R, 2, 0, half))
        meridional_x = np.linspace(-0.98, 1 / math.sqrt(2.0) - 1e-4, 2 * pts)

        # One solve per x, shared by the four (root, swap) segments;
        # built per diagram, so no state outlives it.
        roots_at = functools.cache(branch_c2v_RmRmp_all)

        def meridian(x: float, root_index: int, swap: bool) -> BranchPoint | None:
            roots = roots_at(x)
            if root_index >= len(roots):
                return None
            bp = roots[root_index]
            return replace(bp, x=bp.y, y=bp.x) if swap else bp

        for root_index in (0, 1):
            for swap in (False, True):
                solve = _branch(functools.partial(meridian, root_index=root_index, swap=swap))
                segments.append(_Segment("(c) C2v(Rm,Rm')", meridional_x, solve, is_parent=False))
        segments.append(_ring_segment("d", Family.DND_RRP, 2, 0, half_closed))
        segments.append(_Segment("(e) C2v(R,2p)", full, _branch(float), is_parent=False))
    else:
        segments.append(_ring_segment("a", Family.DNH_2R, 3, 0, half))
        segments.append(_ring_segment("b", Family.DNH_2R, 2, 2, full_gapped))
        solve = _branch(lambda x: branch_c2v_RRp2p(x, 1.0, -1))
        segments.append(_Segment("(c) C2v(R,R',2p)", interval, solve, is_parent=False))
        segments.append(_ring_segment("d", Family.DND_RRP, 3, 0, half_closed))
        segments.append(_ring_segment("e", Family.DND_RRP, 2, 2, full))
    return segments


def _param_step(seg: _Segment) -> float:
    return float(seg.params[1] - seg.params[0]) if len(seg.params) > 1 else 1e-2


def _child_side(seg: _Segment, param_star: float, mu_star: float, window: float) -> float:
    """Average child momentum offset from the junction, within the window."""
    offsets = [
        p.mu_z - mu_star
        for p in seg.points
        if abs(p.param - param_star) <= window and abs(p.mu_z - mu_star) > 1e-9
    ]
    return float(np.mean(offsets)) if offsets else 0.0


def _junctions(segments: list[_Segment]) -> Iterator[tuple[_Segment, float, float, float]]:
    """Each change into or out of Lyapunov stability along a parent, located
    to 1e-10 by :func:`~vortex_atlas.stability.verdict_changes` between
    adjacent samples, one ``evaluate`` call per round of two halving levels
    (the first such change of each bracket; a point off the branch or with
    an indeterminate verdict has no verdict there):
    ``(parent, mu*, H*, momentum offset of the Lyapunov side)``."""
    lyap = Verdict.LYAPUNOV_STABLE.value
    for parent in (seg for seg in segments if seg.is_parent):
        pairs = [
            (a, b) for a, b in zip(parent.points, parent.points[1:])
            if a.verdict != b.verdict and lyap in (a.verdict, b.verdict)
        ]

        def verdicts_at(ts: list[float], parent: _Segment = parent) -> list[str | None]:
            verdicts = (None if got is None else got[0].verdict for got in parent.evaluate(ts))
            return [None if v in (None, Verdict.INDETERMINATE) else v.value for v in verdicts]

        found = verdict_changes(verdicts_at, [(a.param, a.verdict, b.param, b.verdict) for a, b in pairs], 1e-10)
        stars = [next(t for t, before, after in changes if lyap in (before, after)) for changes in found]
        for (a, b), got in zip(pairs, parent.evaluate(stars)):
            if got is not None:
                mu_star, h_star = got[0].mu_z, got[1]
                yield parent, mu_star, h_star, (a.mu_z if a.verdict == lyap else b.mu_z) - mu_star


def _nearest_sample(seg: _Segment, mu_star: float, h_star: float) -> tuple[float, DiagramPoint]:
    """The sampled point of ``seg`` closest to (mu*, H*), and its distance."""

    def dist(p: DiagramPoint) -> float:
        return math.hypot(p.mu_z - mu_star, p.energy - h_star)

    best = min(seg.points, key=dist)
    return dist(best), best


def _detect_bifurcations(segments: list[_Segment]) -> tuple[Bifurcation, ...]:
    """Pitchforks: a parent verdict change met by a child branch in (mu, H).

    A candidate needs a change into or out of Lyapunov stability along a
    symmetric (descriptor-built) branch and a low-symmetry branch whose
    closest sample lies within 1e-3 of the change point in the (momentum,
    energy) plane; on both diagrams the samples of a meeting child lie
    within 1e-4 of it and those of every other child at least 1e-2 away.
    The label is read from which side of the junction the child lives on:
    the parent's Lyapunov side gives a subcritical pitchfork, the other
    side a supercritical one.
    """
    found: list[Bifurcation] = []
    for parent, mu_star, h_star, lyap_side in _junctions(segments):
        for child in segments:
            if child.is_parent or not child.points:
                continue
            d, nearest = _nearest_sample(child, mu_star, h_star)
            if d > 1e-3:
                continue
            side = _child_side(child, nearest.param, mu_star, 40.0 * _param_step(child))
            kind = "subcritical" if side * lyap_side > 0.0 else "supercritical"
            found.append(Bifurcation(kind, mu_star, h_star, parent.label, child.label))
    return tuple(found)


def build_diagram(n_pairs: int) -> Diagram:
    """Sample every branch of the figure and detect its pitchforks."""
    segments = _figure_segments(n_pairs)
    for seg in segments:
        seg.sample()
    fixed = make_equatorial_pm_ring(n_pairs)
    verdict = analyze(FamilyDescriptor(Family.EQUATORIAL_PM_RING, n_per_ring=n_pairs)).verdict
    fixed_point = DiagramPoint("E", math.pi / 2, float(momentum_map(fixed)[2]), hamiltonian(fixed), verdict.value)
    return Diagram(n_pairs, tuple(segments), fixed_point, _detect_bifurcations(segments))


_BRANCH_COLORS = {
    "(a)": "#1f77b4",
    "(b)": "#d62728",
    "(c)": "#2ca02c",
    "(d)": "#9467bd",
    "(e)": "#ff7f0e",
}
_VERDICT_DASH = {
    Verdict.LYAPUNOV_STABLE.value: None,
    Verdict.LINEARLY_STABLE.value: "7 4",
    Verdict.LINEARLY_UNSTABLE.value: "2 4",
    Verdict.INDETERMINATE.value: "1 6",
}


def _dash_attr(dash: str | None) -> str:
    return f' stroke-dasharray="{dash}"' if dash else ""


def _svg_line(
    x1: float, y1: float, x2: float, y2: float, stroke: str = "#222", stroke_width: str = "1", dash: str | None = None
) -> str:
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{stroke}" stroke-width="{stroke_width}"{_dash_attr(dash)}/>'
    )


def _svg_text(x: float | str, y: float | str, size: int, body: str, anchor: str | None = None) -> str:
    """A sans-serif label; a coordinate given as a number is written to 0.1."""
    x, y = (v if isinstance(v, str) else f"{v:.1f}" for v in (x, y))
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}"{anchor_attr} font-family="sans-serif" font-size="{size}">{body}</text>'


def _svg_pieces_for_segment(
    seg: _Segment, color: str, sx: Callable[[float], float], sy: Callable[[float], float]
) -> list[str]:
    """Polylines split wherever the verdict changes or the curve jumps."""
    runs: list[list[DiagramPoint]] = []
    for prev, p in zip([None, *seg.points], seg.points):
        jump = prev is None or math.hypot(p.mu_z - prev.mu_z, p.energy - prev.energy) > 0.6
        if jump or p.verdict != prev.verdict:
            if not jump:
                runs[-1].append(p)  # the old verdict's polyline meets the new one
            runs.append([])
        runs[-1].append(p)
    pieces = []
    for run in runs:
        if len(run) >= 2:
            coords = " ".join(f"{sx(p.mu_z):.3f},{sy(p.energy):.3f}" for p in run)
            pieces.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="2"'
                f'{_dash_attr(_VERDICT_DASH.get(run[0].verdict))} points="{coords}"/>'
            )
    return pieces


def render_svg(diagram: Diagram) -> str:
    """Hand-emitted SVG: axes, styled branch polylines, E, bifurcations."""
    width, height = 760.0, 560.0
    left, right, top, bottom = 64.0, 14.0, 40.0, 48.0
    pts = diagram.points()
    mus = [p.mu_z for p in pts]
    energies = [p.energy for p in pts]
    mu_lo, mu_hi = min(mus), max(mus)
    e_lo, e_hi = min(energies), max(energies)
    mu_pad = 0.06 * (mu_hi - mu_lo) or 1.0
    e_pad = 0.06 * (e_hi - e_lo) or 1.0
    mu_lo, mu_hi = mu_lo - mu_pad, mu_hi + mu_pad
    e_lo, e_hi = e_lo - e_pad, e_hi + e_pad

    def sx(mu: float) -> float:
        return left + (mu - mu_lo) / (mu_hi - mu_lo) * (width - left - right)

    def sy(e: float) -> float:
        return height - bottom - (e - e_lo) / (e_hi - e_lo) * (
            height - top - bottom
        )

    base = height - bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        _svg_text(f"{width / 2:.0f}", "22", 15, f"Energy-momentum diagram, {diagram.n_pairs} vortex pairs", "middle"),
        _svg_line(left, base, width - right, base),
        _svg_line(left, top, left, base),
    ]
    for tick in np.linspace(mu_lo, mu_hi, 7):
        x = sx(float(tick))
        parts += [_svg_line(x, base, x, base + 5), _svg_text(x, base + 18, 11, f"{tick:.2g}", "middle")]
    for tick in np.linspace(e_lo, e_hi, 7):
        y = sy(float(tick))
        parts += [_svg_line(left - 5, y, left, y), _svg_text(left - 8, y + 4, 11, f"{tick:.2g}", "end")]
    parts.append(_svg_text(width - right, height - 10, 12, "vertical momentum", "end"))
    parts.append(_svg_text("16", top - 8, 12, "energy"))

    colors = {seg.label: _BRANCH_COLORS.get(seg.label[:3], "#444444") for seg in diagram.segments}
    for seg in diagram.segments:
        parts.extend(_svg_pieces_for_segment(seg, colors[seg.label], sx, sy))

    ex, ey = sx(diagram.fixed_point.mu_z), sy(diagram.fixed_point.energy)
    parts.append(f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="4" fill="#000"/>')
    parts.append(_svg_text(ex + 7, ey - 6, 13, "E"))
    for bif in diagram.bifurcations:
        bx, by = sx(bif.mu_z), sy(bif.energy)
        parts.append(
            f'<path d="M {bx - 5:.1f} {by - 5:.1f} L {bx + 5:.1f} {by + 5:.1f} '
            f'M {bx - 5:.1f} {by + 5:.1f} L {bx + 5:.1f} {by - 5:.1f}" '
            'stroke="#000" stroke-width="1.6"/>'
        )
        parts.append(_svg_text(bx + 7, by + 4, 11, f"{bif.kind} pitchfork, momentum {bif.mu_z:.3f}"))

    # The legend: a row per branch, then, half a row further down, a row per line style.
    styles = (
        ("Lyapunov stable", Verdict.LYAPUNOV_STABLE),
        ("linearly stable", Verdict.LINEARLY_STABLE),
        ("unstable", Verdict.LINEARLY_UNSTABLE),
    )
    rows = [(label, color, "2.5", None) for label, color in colors.items()]
    rows += [(name, "#222", "2", _VERDICT_DASH[verdict.value]) for name, verdict in styles]
    for k, (name, stroke, stroke_width, dash) in enumerate(rows):
        y = top + 16.0 * k + (8.0 if k < len(colors) else 16.0)
        parts.append(_svg_line(width - 206, y, width - 186, y, stroke, stroke_width, dash))
        parts.append(_svg_text(width - 180, y + 4, 12, name))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def diagram_csv(diagram: Diagram) -> str:
    rows = [
        (p.branch_label, _fmt(p.param), _fmt(p.mu_z), _fmt(p.energy), p.verdict)
        for p in diagram.points()
    ]
    return _csv(_DIAGRAM_COLUMNS, rows)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> None:
    config = Configuration.from_json(Path(args.config).read_text())
    try:
        trajectory = integrate(config, args.t_end, tol=args.tol)
    except (CollisionApproach, StepSizeUnderflow) as exc:
        _write_text(args.out, exc.trajectory.to_csv())  # keep what was integrated
        raise
    _write_text(args.out, trajectory.to_csv())


def cmd_classify(args: argparse.Namespace) -> None:
    raw = args.descriptor
    if not raw.lstrip().startswith(("{", "[")):
        raw = Path(raw).read_text()
    payload = json.loads(raw)
    if not isinstance(payload, dict):
        raise InvalidDescriptor("descriptor JSON must be an object")
    if "vortices" in payload:
        report = analyze_small(Configuration.from_json(raw))
    else:
        report = analyze(FamilyDescriptor.from_mapping(payload))
    _write_text(args.out, report.to_json() + "\n")


def cmd_sweep(args: argparse.Namespace) -> None:
    spec = SweepSpec(
        families=tuple(args.family),
        n_values=_parse_int_list(args.n),
        theta_start=args.theta_start,
        theta_stop=args.theta_stop,
        theta_step=args.grid_step,
        k_p=args.kp,
        lambda_n=args.lambda_n,
    )
    _write_rows(args.out, args.format, _SWEEP_COLUMNS, run_sweep(spec))


def cmd_diagram(args: argparse.Namespace) -> None:
    diagram = build_diagram(args.pairs)
    out = args.out or f"diagram-{args.pairs}-pairs.svg"
    _write_text(out, render_svg(diagram))
    csv_path = str(Path(out).with_suffix(".csv"))
    _write_text(csv_path, diagram_csv(diagram))
    for bif in diagram.bifurcations:
        print(f"{bif.kind} pitchfork at momentum {_fmt(bif.mu_z)}: {bif.parent} meets {bif.child}")
    print(f"wrote {out} and {csv_path}")


def cmd_thresholds(args: argparse.Namespace) -> None:
    rows = []
    readers: dict[tuple, Callable[[str, int], float]] = {}  # one scan per family, read as far as the rows ask
    for ref in REFERENCE_THRESHOLDS:
        key = (ref.family, ref.n_per_ring, ref.k_p)
        if key not in readers:
            readers[key] = _transition_reader(*key, args.grid_step, args.tol)
        try:
            theta = readers[key](ref.transition, ref.occurrence)
        except NoTransition as exc:
            print(f"note: {ref.family.value} N={ref.n_per_ring} k_p={ref.k_p} {ref.transition}: {exc}", file=sys.stderr)
            continue
        rows.append((
            ref.family.value, str(ref.n_per_ring), str(ref.k_p), ref.transition,
            _fmt(theta), _fmt(ref.reference_value), _fmt(abs(theta - ref.reference_value)),
        ))
    _write_rows(args.out, args.format, _THRESHOLD_COLUMNS, rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Ring sizes from ``3``, ``2,5,7`` or ``lo..hi``; the ends of a
    nonempty range are checked before the range is built."""
    try:
        if ".." not in text:
            return tuple(int(part) for part in text.split(","))
        lo, hi = (int(end) for end in text.split("..", 1))
    except ValueError as exc:
        raise OutOfDomain(f"ring sizes must be an integer, a comma list, or lo..hi: {text!r}") from exc
    if lo <= hi:
        _check_ring_sizes((lo, hi))
    return tuple(range(lo, hi + 1))


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1, and which
    takes a negative number in exponent form (``-1e12``) as a value, as
    Python 3.13's does, not only ``-1`` or ``-1.5``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str):  # noqa: ANN201 - argparse signature
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process; a caller may run main() many times
def _build_parser() -> _Parser:
    description = "Point-vortex relative equilibria: simulate, classify, sweep, diagram, thresholds."
    parser = _Parser(prog="vortex-atlas", description=description)
    sub = parser.add_subparsers(dest="command")

    p_sim = sub.add_parser("simulate", help="integrate a configuration file")
    p_sim.add_argument("config", help="configuration JSON file")
    p_sim.add_argument("--t-end", type=float, default=10.0)
    p_sim.add_argument("--tol", type=float, default=1e-10)
    p_sim.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_cls = sub.add_parser("classify", help="stability report for a descriptor or configuration")
    p_cls.add_argument("descriptor", help="JSON object (inline) or path to a JSON file")
    p_cls.add_argument("--out", default=None, help="JSON path (default stdout)")
    p_cls.set_defaults(func=cmd_classify)

    p_swp = sub.add_parser("sweep", help="verdict grid over ring families")
    p_swp.add_argument("--family", action="append", required=True, help="family name (repeatable): DNh, DNd, ...")
    p_swp.add_argument("--n", default="2", help="ring sizes: 3, 2,4, or 2..6")
    p_swp.add_argument("--theta-start", type=float, default=0.05)
    p_swp.add_argument("--theta-stop", type=float, default=math.pi / 2)
    p_swp.add_argument("--grid-step", type=float, default=0.005)
    p_swp.add_argument("--kp", type=int, default=0, choices=(0, 2))
    p_swp.add_argument("--lambda-n", type=float, default=1.0)
    p_swp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_swp.add_argument("--out", default=None, help="output path (default stdout)")
    p_swp.set_defaults(func=cmd_sweep)

    p_dia = sub.add_parser("diagram", help="energy-momentum diagram (SVG + CSV)")
    p_dia.add_argument("--pairs", type=int, choices=(2, 3), required=True)
    p_dia.add_argument("--out", default=None, help="SVG path; CSV lands next to it")
    p_dia.set_defaults(func=cmd_diagram)

    p_thr = sub.add_parser("thresholds", help="recompute every tabulated critical latitude")
    p_thr.add_argument("--grid-step", type=float, default=0.005)
    p_thr.add_argument("--tol", type=float, default=1e-6)
    p_thr.add_argument("--format", choices=("csv", "json"), default="csv")
    p_thr.add_argument("--out", default=None, help="output path (default stdout)")
    p_thr.set_defaults(func=cmd_thresholds)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the only place where an error becomes an exit code.

    Numeric failures exit 3; every other domain error and any unreadable
    or unwritable file or malformed JSON exits 2.  Anything else is a bug
    and keeps its traceback.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.error("a command is required")
    try:
        args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (VortexError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
