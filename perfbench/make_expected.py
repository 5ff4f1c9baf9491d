"""Record the reference outputs that the benchmark checks against.

Run from the repository root on the commit whose outputs are the
reference (the commit that added the benchmark)::

    python3 perfbench/make_expected.py

It writes ``perfbench/expected/reference.json``:

``thresholds``
    Every row of ``vortex-atlas thresholds`` at its default settings.
``diagram``
    The pitchforks ``vortex-atlas diagram`` prints for 2 and 3 pairs.
``ring_codes``, ``ring_outcomes``
    For each ring family, ring size and pole count of the sweep, and for
    each of the seeded grid shifts, one character per latitude of the
    shifted grid.  The character indexes ``ring_outcomes``: ``[sweep
    verdict, sweep block, classify verdict, classify block]``, where a
    sweep error row reads ``error`` and a failed classify ``exit<code>``.
``branch_codes``, ``branch_outcomes``
    The same for classify on branch-point configurations at each of the
    evenly spaced branch parameters, with ``no-branch-point`` where the
    solver finds none.

Every seeded input of the family-scan workload is one of these points, so
each of its outputs is compared with the reference output for exactly
that input.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


class Codebook:
    """Assigns one character of the code alphabet to each distinct outcome."""

    def __init__(self) -> None:
        self.outcomes: list[tuple] = []

    def code(self, outcome: tuple) -> str:
        if outcome not in self.outcomes:
            self.outcomes.append(outcome)
        return wl.CODE_ALPHABET[self.outcomes.index(outcome)]


def ring_outcome(family: str, n: int, k_p: int):
    """Outcome of a sweep row and of classify at one latitude."""
    from vortex_atlas.core import FamilyDescriptor, VortexError
    from vortex_atlas.dynamics import hamiltonian
    from vortex_atlas.equilibria import make_family
    from vortex_atlas.stability import DegenerateForm, NotRelativeEquilibrium, analyze

    def outcome(theta: float) -> tuple:
        payload = {"family": family, "N": n, "theta0": theta, "kp": k_p, "lambda_n": 1.0}
        try:
            desc = FamilyDescriptor.from_mapping(payload)
            report = analyze(desc)
        except (NotRelativeEquilibrium, DegenerateForm):
            return ("error", "", "exit3", "")
        except VortexError:
            return ("error", "", "exit2", "")
        verdict = (report.verdict.value, report.deciding_block)
        try:
            hamiltonian(make_family(desc))
        except VortexError:
            return ("error", "", *verdict)
        return (*verdict, *verdict)

    return outcome


def branch_outcome(name: str):
    """Outcome of classify on the branch point at one parameter."""
    from vortex_atlas.core import Configuration, VortexError
    from vortex_atlas.stability import DegenerateForm, NotRelativeEquilibrium, analyze_small

    def outcome(x: float) -> tuple:
        try:
            text = wl.branch_configuration(name, x).to_json()
        except VortexError:
            return wl.NO_BRANCH_POINT
        try:
            report = analyze_small(Configuration.from_json(json.dumps(json.loads(text))))
        except (NotRelativeEquilibrium, DegenerateForm):
            return ("exit3", "")
        except VortexError:
            return ("exit2", "")
        return (report.verdict.value, report.deciding_block)

    return outcome


def cli(argv: list[str]) -> tuple[int, str]:
    from vortex_atlas.atlas import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    reference: dict = {"source_sha256": wl.source_digest(root)}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        path = Path(tmp) / "thresholds.csv"
        code, _ = cli(["thresholds", "--out", str(path)])
        if code != 0:
            raise SystemExit(f"thresholds exited with {code}")
        lines = path.read_text().splitlines()[1:]
        reference["thresholds"] = [
            [f, int(n), int(kp), tr, float(theta)]
            for f, n, kp, tr, theta, _, _ in (line.split(",") for line in lines)
        ]
        reference["diagram"] = {}
        for pairs in ("2", "3"):
            code, stdout = cli(["diagram", "--pairs", pairs, "--out", str(Path(tmp) / "d.svg")])
            if code != 0:
                raise SystemExit(f"diagram --pairs {pairs} exited with {code}")
            reference["diagram"][pairs] = [
                [kind, float(mu), parent, child]
                for kind, mu, parent, child in (
                    m.groups() for m in map(wl.PITCHFORK.match, stdout.splitlines()) if m
                )
            ]
    book = Codebook()
    reference["ring_codes"] = {}
    for family in wl.SWEEP_FAMILIES:
        for n in range(wl.SWEEP_N[0], wl.SWEEP_N[1] + 1):
            for k_p in (0, 2):
                outcome = ring_outcome(family, n, k_p)
                reference["ring_codes"][wl.ring_key(family, n, k_p)] = [
                    "".join(
                        book.code(outcome(theta))
                        for theta in wl.sweep_grid(k_p, j)
                    )
                    for j in range(wl.SWEEP_OFFSETS)
                ]
                print(f"{family} N={n} k_p={k_p} done", file=sys.stderr)
    reference["ring_outcomes"] = book.outcomes
    book = Codebook()
    reference["branch_codes"] = {}
    for name in wl.BRANCHES:
        outcome = branch_outcome(name)
        reference["branch_codes"][name] = "".join(
            book.code(outcome(wl.branch_parameter(name, i))) for i in range(wl.BRANCH_POINTS)
        )
        print(f"{name} done", file=sys.stderr)
    reference["branch_outcomes"] = book.outcomes
    wl.REFERENCE.parent.mkdir(exist_ok=True)
    wl.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
