"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is a list of CLI invocations of ``vortex_atlas.atlas.main``
(one process, called in turn) plus a check per invocation.  A command
belongs to a timing group; the benchmark reports the wall time of each
group per pass.  Checks compare the outputs with data recorded from the
reference source by ``make_expected.py`` (``expected/reference.json``).

Failures are counted, never hidden: each checked unit (a trajectory, a
sweep row, a threshold row, a classify call, a diagram) is one attempted
operation, and a unit whose output is wrong or missing is one failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "expected" / "reference.json"

# Criterion 2's sampler: balanced +1/-1 vortices, uniform on the sphere,
# whole draws rejected until every chord exceeds MIN_CHORD.
MIN_CHORD = 0.15
DRIFT_BOUND = 1e-8
SIMULATE_TOL = "1e-10"

# (M, draws, t_end) per trajectory group.  The draws come from the fixed
# BASE_SEED and the run seed rotates and relabels them: the number of
# accepted steps of a fresh draw varies several-fold (75 to 700 steps at
# M = 6 to t = 1), so a seed-drawn set small enough to integrate in a run
# would not give a steady total, while a rigid rotation and a relabelling
# leave the dynamics, and so the work, unchanged.
TRAJECTORY_GROUPS = ((6, 4, 1.0), (12, 3, 0.8), (24, 2, 0.4))
BASE_SEED = 20010

SWEEP_FAMILIES = ("DNh", "DNd")
SWEEP_N = (2, 12)
SWEEP_STEP = 0.06
SWEEP_START = 0.05
# Upper end of the latitude grid without and with pole vortices.
SWEEP_STOP = {0: math.pi / 2, 2: math.pi - 0.05}
# The seed shifts the sweep grid by one of SWEEP_OFFSETS fractions of a
# step, and classify draws its latitudes from these shifted grids.  The
# reference holds the outcome at every such latitude, so each output is
# compared with the reference output for the very same input and no rule
# is needed for latitudes in between.  (Such a rule would be unsafe: within
# about 1e-4 of the equator the DNh verdicts and deciding blocks change
# many times over intervals of 1e-5.)
SWEEP_OFFSETS = 32
# classify draws this many inputs per ring family, ring size and pole
# count, and per branch, so every seed gets the same mix of input sizes.
CLASSIFY_PER_RING = 3
CLASSIFY_PER_BRANCH = 24
THRESHOLD_TOL = 1e-6

# Branch-point configurations for classify: name -> (solver, arguments
# after the branch parameter, parameter range).  The parameter is one of
# BRANCH_POINTS evenly spaced values over the range.
BRANCHES = {
    "C2v_RRp2p_l0_plus": ("branch_c2v_RRp2p", (0.0, 1), (-0.97, 0.97)),
    "C2v_RRp2p_l0_minus": ("branch_c2v_RRp2p", (0.0, -1), (-0.97, 0.97)),
    "C2v_RRp2p_l1_minus": ("branch_c2v_RRp2p", (1.0, -1), (-0.97, 0.97)),
    "C2v_RmRmp": ("branch_c2v_RmRmp", (), (-0.98, 1 / math.sqrt(2.0) - 1e-4)),
    "C2v_2R2p_l1": ("branch_c2v_2R2p", (1.0,), (-0.97, 0.97)),
}
BRANCH_POINTS = 2049

# Reference outcome where the solver finds no point on the branch.
NO_BRANCH_POINT = ("no-branch-point", "")
# One character per reference outcome in the code strings.
CODE_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

PITCHFORK = re.compile(
    r"^(subcritical|supercritical) pitchfork at momentum (\S+): (.*) meets (.*)$"
)
# The two pitchforks of the two-pair diagram (criterion 10).
PAIRS2_PITCHFORKS = (("subcritical", 1.657), ("supercritical", 3.145))


@dataclass
class Outcome:
    """What one CLI invocation returned."""

    code: int
    stdout: str
    stderr: str
    out_path: Path | None


@dataclass
class Command:
    group: str
    argv: list[str]
    check: Callable[[Outcome], "Tally"]
    out_path: Path | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[: max(0, 20 - len(self.messages))])
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, to tell which code produced a result."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "vortex_atlas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def ring_key(family: str, n: int, k_p: int) -> str:
    return f"{family}|{n}|{k_p}"


def _decode(outcomes: list, code: str) -> tuple:
    return tuple(outcomes[CODE_ALPHABET.index(code)])


def reference_ring(reference: dict, family: str, n: int, k_p: int, offset: int) -> list[tuple]:
    """Reference (sweep verdict, sweep block, classify verdict, classify
    block) at each latitude of one shifted sweep grid."""
    codes = reference["ring_codes"][ring_key(family, n, k_p)][offset]
    return [_decode(reference["ring_outcomes"], c) for c in codes]


def reference_branch(reference: dict, name: str, index: int) -> tuple:
    """Reference (verdict, block) of classify at one branch parameter."""
    return _decode(reference["branch_outcomes"], reference["branch_codes"][name][index])


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def sample_pm_positions(rng: np.random.Generator, m: int) -> np.ndarray:
    while True:
        p = rng.normal(size=(m, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        gram = np.clip(p @ p.T, -1.0, 1.0)
        chord2 = 2.0 * (1.0 - gram[np.triu_indices(m, k=1)])
        if chord2.min() > MIN_CHORD**2:
            return p


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _check_trajectory(m: int, t_end: float) -> Callable[[Outcome], Tally]:
    def check(result: Outcome) -> Tally:
        tally = Tally()
        if result.code != 0:
            tally.expect(False, f"simulate M={m}: exit {result.code}: {result.stderr[:200]}")
            return tally
        with open(result.out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        ok = (
            len(header) == 3 * m + 4
            and len(body) >= 2
            and abs(float(body[-1][0]) - t_end) <= 1e-9
        )
        worst_h = max(float(r[-2]) for r in body) if ok else math.inf
        worst_phi = max(float(r[-1]) for r in body) if ok else math.inf
        ok = ok and worst_h <= DRIFT_BOUND and worst_phi <= DRIFT_BOUND
        tally.expect(
            ok,
            f"simulate M={m}: rows {len(body)}, |dH| {worst_h:.3e}, "
            f"|dPhi| {worst_phi:.3e}",
        )
        tally.counts[f"steps.m{m}"] = len(body) - 1
        return tally

    return check


def trajectories(seed: int, work: Path, reference: dict) -> list[Command]:
    base = np.random.default_rng(BASE_SEED)
    rng = np.random.default_rng(seed)
    commands = []
    for m, draws, t_end in TRAJECTORY_GROUPS:
        for k in range(draws):
            p = sample_pm_positions(base, m) @ random_rotation(rng).T
            p /= np.linalg.norm(p, axis=1, keepdims=True)
            strengths = [1.0] * (m // 2) + [-1.0] * (m // 2)
            order = rng.permutation(m)
            payload = {
                "vortices": [
                    {"pos": [float(c) for c in p[i]], "strength": strengths[i]}
                    for i in order
                ]
            }
            config = work / f"traj-m{m}-{k}.json"
            config.write_text(json.dumps(payload))
            out = work / f"traj-m{m}-{k}.csv"
            commands.append(
                Command(
                    f"m{m}",
                    ["simulate", str(config), "--t-end", repr(t_end),
                     "--tol", SIMULATE_TOL, "--out", str(out)],
                    _check_trajectory(m, t_end),
                    out,
                )
            )
    return commands


# ---------------------------------------------------------------------------
# family scan: sweep, thresholds, classify
# ---------------------------------------------------------------------------


def sweep_start(offset: int) -> float:
    return SWEEP_START + SWEEP_STEP * offset / SWEEP_OFFSETS


def sweep_stop(k_p: int, offset: int) -> float:
    """Grid end shifted with the start, so every shift has as many points."""
    return SWEEP_STOP[k_p] - SWEEP_STEP + SWEEP_STEP * offset / SWEEP_OFFSETS


def sweep_grid(k_p: int, offset: int) -> list[float]:
    """The latitudes ``vortex-atlas sweep`` visits for one grid shift."""
    values = np.arange(
        sweep_start(offset), sweep_stop(k_p, offset) + 0.5 * SWEEP_STEP, SWEEP_STEP
    )
    return [float(v) for v in values if 1e-9 < v < math.pi - 1e-9]


def branch_parameter(name: str, index: int) -> float:
    lo, hi = BRANCHES[name][2]
    return lo + (hi - lo) * index / (BRANCH_POINTS - 1)


def _check_sweep(k_p: int, offset: int, reference: dict) -> Callable[[Outcome], Tally]:
    grid = sweep_grid(k_p, offset)
    expected = [
        (family, n, theta, outcome[:2])
        for family in SWEEP_FAMILIES
        for n in range(SWEEP_N[0], SWEEP_N[1] + 1)
        for theta, outcome in zip(grid, reference_ring(reference, family, n, k_p, offset))
    ]

    def check(result: Outcome) -> Tally:
        tally = Tally()
        rows = []
        if result.code == 0:
            with open(result.out_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        tally.counts["sweep.rows"] = len(rows)
        if len(rows) != len(expected):
            tally.expect(False, f"sweep k_p={k_p}: {len(rows)} rows, expected {len(expected)}")
        for row, (family, n, theta, want) in zip(rows, expected):
            got = (row["verdict"], row["deciding_block"])
            ok = (
                row["family"] == family
                and int(row["N"]) == n
                and abs(float(row["theta0"]) - theta) <= 1e-11
                and got == want
                and (got[0] == "error"
                     or all(math.isfinite(float(row[c])) for c in ("mu_z", "xi_z", "H")))
            )
            tally.expect(ok, f"sweep {family} N={n} k_p={k_p} theta={theta!r}: {got}, reference {want}")
        return tally

    return check


def _check_thresholds(expected: list) -> Callable[[Outcome], Tally]:
    def check(result: Outcome) -> Tally:
        tally = Tally()
        rows = []
        if result.code == 0:
            with open(result.out_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        if len(rows) != len(expected):
            tally.expect(False, f"thresholds: {len(rows)} rows, expected {len(expected)}")
        # Rows follow the reference table, where a transition may occur twice.
        for row, (family, n, k_p, transition, theta) in zip(rows, expected):
            got = (row["family"], int(row["N"]), int(row["k_p"]), row["transition"])
            value = float(row["theta_star"])
            tally.expect(
                got == (family, n, k_p, transition) and abs(value - theta) <= THRESHOLD_TOL,
                f"thresholds {got} theta {value!r}, reference {family} N={n} "
                f"k_p={k_p} {transition} {theta!r}",
            )
        return tally

    return check


def _check_classify(want: tuple, what: str) -> Callable[[Outcome], Tally]:
    def check(result: Outcome) -> Tally:
        tally = Tally()
        if result.code == 0:
            report = json.loads(result.out_path.read_text())
            got = (report["verdict"], report["deciding_block"])
        else:
            got = (f"exit{result.code}", "")
        tally.expect(got == want, f"classify {what}: {got}, reference {want}")
        tally.counts["classify.calls"] = 1
        return tally

    return check


def branch_configuration(name: str, x: float):
    from vortex_atlas import equilibria

    solver, extra, _ = BRANCHES[name]
    return getattr(equilibria, solver)(x, *extra).configuration()


def family_scan(seed: int, work: Path, reference: dict) -> list[Command]:
    rng = np.random.default_rng(seed)
    commands = []
    offset = int(rng.integers(SWEEP_OFFSETS))
    for k_p in (0, 2):
        out = work / f"sweep-kp{k_p}.csv"
        argv = ["sweep"]
        for family in SWEEP_FAMILIES:
            argv += ["--family", family]
        argv += [
            "--n", f"{SWEEP_N[0]}..{SWEEP_N[1]}", "--kp", str(k_p),
            "--theta-start", repr(sweep_start(offset)),
            "--theta-stop", repr(sweep_stop(k_p, offset)),
            "--grid-step", repr(SWEEP_STEP), "--out", str(out),
        ]
        commands.append(Command("sweep", argv, _check_sweep(k_p, offset, reference), out))

    out = work / "thresholds.csv"
    commands.append(
        Command("thresholds", ["thresholds", "--out", str(out)],
                _check_thresholds(reference["thresholds"]), out)
    )

    rings = [
        (family, n, k_p)
        for family in SWEEP_FAMILIES
        for n in range(SWEEP_N[0], SWEEP_N[1] + 1)
        for k_p in (0, 2)
    ]
    for k, (family, n, k_p) in enumerate(rings * CLASSIFY_PER_RING):
        j = int(rng.integers(SWEEP_OFFSETS))
        grid = sweep_grid(k_p, j)
        i = int(rng.integers(len(grid)))
        descriptor = json.dumps(
            {"family": family, "N": n, "theta0": grid[i], "kp": k_p, "lambda_n": 1.0}
        )
        want = reference_ring(reference, family, n, k_p, j)[i][2:]
        out = work / f"classify-d{k}.json"
        commands.append(
            Command("classify", ["classify", descriptor, "--out", str(out)],
                    _check_classify(want, descriptor), out)
        )

    for k, name in enumerate(sorted(BRANCHES) * CLASSIFY_PER_BRANCH):
        # Draw only parameters at which the reference found a branch point.
        while True:
            i = int(rng.integers(BRANCH_POINTS))
            want = reference_branch(reference, name, i)
            if want != NO_BRANCH_POINT:
                break
        x = branch_parameter(name, i)
        path = work / f"branch-{k}.json"
        out = work / f"classify-b{k}.json"
        what = f"{name} x={x!r}"
        try:
            path.write_text(branch_configuration(name, x).to_json())
        except Exception as exc:  # the solver's failure is this unit's failure
            commands.append(Command("classify", [], _failed_input(f"{what}: {exc!r}")))
            continue
        commands.append(
            Command("classify", ["classify", str(path), "--out", str(out)],
                    _check_classify(want, what), out)
        )
    return commands


def _failed_input(message: str) -> Callable[[Outcome], Tally]:
    def check(result: Outcome) -> Tally:
        tally = Tally()
        tally.expect(False, message)
        return tally

    return check


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------


def _check_diagram(pairs: int, expected: list) -> Callable[[Outcome], Tally]:
    def check(result: Outcome) -> Tally:
        tally = Tally()
        found = []
        for line in result.stdout.splitlines():
            match = PITCHFORK.match(line)
            if match:
                kind, mu, parent, child = match.groups()
                found.append((kind, float(mu), parent, child))
        same = len(found) == len(expected) and all(
            f[0] == e[0] and f[2:] == tuple(e[2:]) and abs(f[1] - e[1]) <= 1e-6 * max(1.0, abs(e[1]))
            for f, e in zip(found, expected)
        )
        if pairs == 2:
            same = same and all(
                any(f[0] == kind and abs(f[1] - mu) < 1e-3 for f in found)
                for kind, mu in PAIRS2_PITCHFORKS
            )
        svg_ok = csv_ok = False
        if result.code == 0:
            svg = result.out_path.read_text()
            svg_ok = svg.startswith("<svg") and svg.endswith("</svg>\n")
            lines = result.out_path.with_suffix(".csv").read_text().splitlines()
            csv_ok = lines[0] == "branch,param,mu_z,energy,verdict" and len(lines) > 1
        tally.expect(
            result.code == 0 and same and svg_ok and csv_ok,
            f"diagram --pairs {pairs}: exit {result.code}, pitchforks {found}, "
            f"svg {svg_ok}, csv {csv_ok}",
        )
        return tally

    return check


def diagram(seed: int, work: Path, reference: dict) -> list[Command]:
    # The diagram takes no input: the seed changes nothing here.
    commands = []
    for pairs in (2, 3):
        out = work / f"diagram-{pairs}.svg"
        commands.append(
            Command(f"pairs{pairs}", ["diagram", "--pairs", str(pairs), "--out", str(out)],
                    _check_diagram(pairs, reference["diagram"][str(pairs)]), out)
        )
    return commands


WORKLOADS = {
    "trajectories": trajectories,
    "family_scan": family_scan,
    "diagram": diagram,
}
