"""Command-line interface: sweeps, classification, diagrams, thresholds."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortex_atlas

from oracles import rotation_z_matrix
from vortex_atlas import atlas, dynamics, stability
from vortex_atlas.atlas import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    SweepSpec,
    _junctions,
    _nearest_sample,
    _parse_int_list,
    build_diagram,
    diagram_csv,
    main,
    render_svg,
    run_sweep,
)
from vortex_atlas.core import MAX_GRID_POINTS, MAX_RING_SIZE, Configuration, Family, FamilyDescriptor
from vortex_atlas.dynamics import hamiltonian
from vortex_atlas.equilibria import OutOfDomain, make_equatorial_pm_ring, make_family
from vortex_atlas.stability import analyze, analyze_small, list_transitions

SWEEP_HEADER = "family,N,theta0,mu_z,xi_z,H,verdict,deciding_block"


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def test_ring_size_lists():
    assert _parse_int_list("3") == (3,)
    assert _parse_int_list("2,5,7") == (2, 5, 7)
    assert _parse_int_list("2..6") == (2, 3, 4, 5, 6)
    assert _parse_int_list("6..2") == ()
    assert _parse_int_list(f"2..{MAX_RING_SIZE}")[-1] == MAX_RING_SIZE
    for text in ("two", "1..3", "2..257", "2..1000000000000", "-1000000000000..3"):
        with pytest.raises(OutOfDomain):
            _parse_int_list(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", '{"family": "DNh", "N": 257, "theta0": 0.9}'],
        ["classify", '{"family": "DNd", "N": 1e9, "theta0": 0.9}'],
        ["classify", '{"family": "EquatorialPmRing", "N": 1e9}'],
        ["sweep", "--family", "DNh", "--n", "257"],
        ["sweep", "--family", "DNh", "--n", "2..257"],
        ["sweep", "--family", "DNh", "--n", "2..1000000000000"],
        ["sweep", "--family", "DNh", "--n", "2,1000000000000"],
    ],
)
def test_ring_sizes_above_the_bound_exit_before_allocating(capsys, argv):
    _assert_input_error_before_allocating(capsys, argv)


def _assert_input_error_before_allocating(capsys, argv):
    main(["sweep", "--family", "DNh", "--n", "x"])  # load what the first call loads
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds", "--grid-step", "1e-300"],
        ["thresholds", "--grid-step", "1e-9"],
        ["sweep", "--family", "DNh", "--grid-step", "1e-300"],
        ["sweep", "--family", "DNh", "--theta-start=-1e12", "--grid-step", "0.05"],
        ["sweep", "--family", "DNh", "--family", "DNd", "--n", "2..256", "--grid-step", "5e-4"],
    ],
)
def test_grids_above_the_bound_exit_before_allocating(capsys, argv):
    _assert_input_error_before_allocating(capsys, argv)


def test_sweep_spec_bounds_the_grid_size():
    """Families x ring sizes x latitudes from theta_start to theta_stop."""
    latitudes = MAX_GRID_POINTS // 4
    SweepSpec(("DNh", "DNd"), (2, 3), 0.0, 0.5 * (latitudes - 1), 0.5)
    with pytest.raises(OutOfDomain, match="at most"):
        SweepSpec(("DNh", "DNd"), (2, 3), 0.0, 0.5 * latitudes, 0.5)
    with pytest.raises(OutOfDomain, match="at most"):
        SweepSpec(("DNh",), (), -1e12, 0.0, 1.0)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["sweep"],  # missing --family
        ["diagram"],  # missing --pairs
        ["diagram", "--pairs", "5"],
        ["sweep", "--family", "DNh", "--kp", "1"],
        ["sweep", "--family", "DNh", "--jobs", "2"],  # the sweep is serial
    ],
)
def test_usage_errors_exit_with_code_one(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_spec_grid_and_validation():
    spec = SweepSpec(
        families=("DNh",),
        n_values=(2,),
        theta_start=0.3,
        theta_stop=0.5,
        theta_step=0.1,
    )
    assert spec.grid() == pytest.approx((0.3, 0.4, 0.5))
    with pytest.raises(OutOfDomain):
        SweepSpec(("DNh",), (2,), 0.3, 0.5, -0.1)
    with pytest.raises(OutOfDomain):
        SweepSpec((), (2,), 0.3, 0.5, 0.1)
    with pytest.raises(OutOfDomain):
        SweepSpec(("DNh",), (1,), 0.3, 0.5, 0.1)
    with pytest.raises(OutOfDomain):
        SweepSpec(("DNh",), (2, MAX_RING_SIZE + 1), 0.3, 0.5, 0.1)


def test_sweep_rows_are_ordered_and_deterministic():
    spec = SweepSpec(
        families=("DNh", "DNd"),
        n_values=(2, 3),
        theta_start=0.4,
        theta_stop=0.6,
        theta_step=0.1,
    )
    rows = run_sweep(spec)
    again = run_sweep(spec)
    assert rows == again
    assert len(rows) == 2 * 2 * 3
    assert [r[0] for r in rows[:6]] == ["DNh"] * 6
    for row in rows:
        assert len(row) == 8
        float(row[2])  # theta parses
        assert row[6] in (
            "LyapunovStable",
            "LinearlyStable",
            "LinearlyUnstable",
            "Indeterminate",
        )


def test_sweep_reports_unbuildable_points_as_error_rows():
    spec = SweepSpec(
        families=("DNh",),
        n_values=(2,),
        theta_start=math.pi / 2,  # rings coincide when poles are present
        theta_stop=math.pi / 2 + 1e-3,
        theta_step=1e-2,
        k_p=2,
    )
    rows = run_sweep(spec)
    assert len(rows) == 1
    assert rows[0][6] == "error"
    assert rows[0][3] == ""


def test_sweep_locates_the_first_stability_boundary():
    spec = SweepSpec(
        families=("DNh",),
        n_values=(2,),
        theta_start=0.60,
        theta_stop=0.72,
        theta_step=0.005,
    )
    rows = run_sweep(spec)
    verdicts = [(float(r[2]), r[6]) for r in rows]
    stable = [t for t, v in verdicts if v == "LyapunovStable"]
    unstable = [t for t, v in verdicts if v != "LyapunovStable"]
    assert stable and unstable
    boundary = 0.5 * (max(stable) + min(unstable))
    assert boundary == pytest.approx(0.66, abs=0.01)


def test_sweep_cli_writes_csv_and_json(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--family",
            "DNd",
            "--n",
            "2",
            "--theta-start",
            "1.2",
            "--theta-stop",
            "1.35",
            "--grid-step",
            "0.05",
            "--out",
            str(csv_path),
        ]
    )
    assert rc == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 5
    assert all(line.split(",")[6] == "LyapunovStable" for line in lines[1:])

    rc = main(
        [
            "sweep",
            "--family",
            "DNd",
            "--n",
            "2",
            "--theta-start",
            "1.2",
            "--theta-stop",
            "1.35",
            "--grid-step",
            "0.05",
            "--format",
            "json",
        ]
    )
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [entry["theta0"] for entry in payload] == [
        "1.2",
        "1.25",
        "1.3",
        "1.35",
    ]
    assert payload[0]["verdict"] == "LyapunovStable"


def test_sweep_reversed_range_yields_header_only(capsys):
    rc = main(
        ["sweep", "--family", "DNh", "--theta-start", "2.0", "--theta-stop", "1.0"]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == SWEEP_HEADER


def test_sweep_rejects_bad_step(capsys):
    rc = main(
        ["sweep", "--family", "DNh", "--grid-step", "-0.1"]
    )
    assert rc == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--grid-step", "nan"),
        ("--grid-step", "inf"),
        ("--theta-start", "nan"),
        ("--theta-stop", "inf"),
    ],
)
def test_sweep_rejects_non_finite_grids(flag, value, capsys):
    assert main(["sweep", "--family", "DNh", flag, value]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value,k_p,message",
    [("nan", "0", "finite"), ("inf", "0", "finite"), ("nan", "2", "finite"), ("-inf", "2", "finite"),
     ("0", "2", "nonzero")],
)
def test_sweep_rejects_the_pole_strengths_classify_rejects(value, k_p, message, capsys):
    argv = ["sweep", "--family", "DNh", "--theta-start", "0.4", "--theta-stop", "0.6",
            "--grid-step", "0.1", "--kp", k_p, f"--lambda-n={value}"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.strip().endswith(f"input error: lambda_n must be {message}")
    assert captured.out == ""


def test_cached_parser_keeps_consecutive_sweeps_apart(capsys):
    """``main`` builds its parser once per process; the ``--family`` list of
    one call must not leak into the next."""
    common = ["--n", "2", "--theta-start", "0.5", "--theta-stop", "0.5"]
    assert main(["sweep", "--family", "DNh", "--family", "DNd", *common]) == EXIT_OK
    both = capsys.readouterr().out.splitlines()
    assert main(["sweep", "--family", "DNd", *common]) == EXIT_OK
    alone = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in both[1:]] == ["DNh", "DNd"]
    assert alone == [both[0], both[2]]


@pytest.mark.parametrize("k_p", [0, 2])
def test_rings_on_a_pole_give_input_errors_and_error_rows(k_p, capsys):
    # sin(theta0)^2 rounds to 0 below about 1e-8
    raw = f'{{"family": "DNd", "N": 2, "theta0": 1e-9, "kp": {k_p}}}'
    assert main(["classify", raw]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    argv = ["sweep", "--family", "DNh", "--family", "DNd", "--kp", str(k_p),
            "--theta-start", "2e-9", "--theta-stop", "5e-9", "--grid-step", "1e-9"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 9
    assert all(line.split(",")[6] == "error" for line in lines[1:])


def test_sweep_rows_of_an_unknown_family_and_of_the_equatorial_ring():
    """An unknown family name gives error rows; the equatorial ring, which
    ignores theta0, gives its one member's report and energy on every row."""
    rows = run_sweep(SweepSpec(("Nope", "EquatorialPmRing"), (2, 3), 0.5, 0.7, 0.1))
    thetas = ["0.5", "0.6", "0.7"]
    assert rows[:6] == [("Nope", str(n), t, "", "", "", "error", "") for n in (2, 3) for t in thetas]
    for n, got in zip((2, 3), (rows[6:9], rows[9:])):
        report = analyze(FamilyDescriptor(Family.EQUATORIAL_PM_RING, n))
        energy = hamiltonian(make_equatorial_pm_ring(n))
        fields = (report.mu_z, report.xi_z, energy, report.verdict.value, report.deciding_block)
        want = tuple(atlas._fmt(x) if isinstance(x, float) else x for x in fields)
        assert got == [("EquatorialPmRing", str(n), t) + want for t in thetas]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name,argv",
    [
        ("sweep_kp0", ["--n", "2..6", "--theta-stop", "1.57",
                       "--grid-step", "0.025", "--kp", "0"]),
        ("sweep_kp2", ["--n", "2..8", "--theta-stop", "3.1",
                       "--grid-step", "0.05", "--kp", "2"]),
        # error rows: the closed form refuses pole strength 1/2 everywhere,
        # and the grids cross the equator, where aligned rings collide and
        # pole-free rings leave the family's range
        ("sweep_lambda_half", ["--n", "2..5", "--kp", "2", "--lambda-n", "0.5",
                               "--theta-stop", "3.1", "--grid-step", "0.25"]),
        ("sweep_equator_kp2", ["--n", "2..12", "--kp", "2", "--theta-start",
                               "1.37079632679489", "--theta-stop", "1.8",
                               "--grid-step", "0.05"]),
        ("sweep_equator_kp0", ["--n", "2..6", "--kp", "0", "--theta-start",
                               "1.37079632679489", "--theta-stop", "1.8",
                               "--grid-step", "0.05"]),
    ],
)
def test_sweep_matches_the_golden_csv(tmp_path, name, argv):
    # sweep_kp0 and sweep_kp2 were written by ``sweep`` when ``analyze``
    # still decided the verdict from a second eigen-solve of the whole
    # slice and the grid ran on a thread pool; the three files with error
    # rows were written when every grid point was analysed on its own.
    # Like the simulate goldens, the bytes depend on NumPy's and the
    # BLAS's floating-point kernels.
    out_path = tmp_path / f"{name}.csv"
    rc = main(["sweep", "--family", "DNh", "--family", "DNd",
               "--theta-start", "0.05", *argv, "--out", str(out_path)])
    assert rc == EXIT_OK
    assert out_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_stacked_passes_keep_memory_bounded():
    # A stack holds at most 16384 // d**2 latitudes and its reports are
    # handed on one at a time.  Traced peaks on the reference machine:
    # 0.13, 0.66 and 0.48 MB when every point was analysed on its own,
    # about 0.8, 1.3 and 1.2 MB with the stacked pass; a pass holding a
    # whole N = 12 grid at once peaked at 7.7 MB.
    list_transitions(Family.DNH_2R, 3, 2)  # load what the first call loads
    runs = [lambda: list_transitions(Family.DNH_2R, 8, 2)] + [
        lambda family=family: run_sweep(SweepSpec((family,), (12,), 0.05, 3.1, 0.005, k_p=2))
        for family in ("DNh", "DNd")
    ]
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_descriptor_inline(capsys):
    rc = main(["classify", '{"family": "DNd", "N": 2, "theta0": 1.3}'])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "LyapunovStable"
    assert payload["descriptor"]["N"] == 2
    assert payload["deciding_block"]
    assert payload["blocks"]


def test_classify_configuration_file(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(make_equatorial_pm_ring(2).to_json())
    rc = main(["classify", str(path)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "LyapunovStable"
    assert payload["mu_z"] == pytest.approx(0.0, abs=1e-12)


def test_classify_rejects_bad_inputs(tmp_path, capsys):
    assert main(["classify", "{not json"]) == EXIT_INPUT
    assert main(["classify", str(tmp_path / "missing.json")]) == EXIT_INPUT
    assert main(["classify", '{"family": "Borromean"}']) == EXIT_INPUT
    capsys.readouterr()
    assert main(["classify", "[]"]) == EXIT_INPUT  # inline JSON, not a file path
    assert capsys.readouterr().err == "input error: descriptor JSON must be an object\n"


@pytest.mark.parametrize(
    "payload, message",
    [
        ("[1, 2]", "descriptor JSON must be an object"),
        # no pole vortices, so the rate formula meets the vortex at the north pole
        ('{"vortices": [{"pos": [0, 0, 1], "strength": 1}, {"pos": [1, 0, 0], "strength": 1}, '
         '{"pos": [0, 1, 0], "strength": -1}, {"pos": [0, -1, 0], "strength": -1}]}',
         "vortex sits too close to a pole for the rate formula"),
    ],
)
def test_classify_refuses_a_file_in_one_line(tmp_path, capsys, payload, message):
    path = tmp_path / "input.json"
    path.write_text(payload)
    assert main(["classify", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: {message}\n")


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("k_p", [0, 2])
def test_classify_rejects_a_non_finite_pole_strength(value, k_p, capsys):
    raw = f'{{"family": "DNh", "N": 2, "theta0": 1.0, "kp": {k_p}, "lambda_n": {value}}}'
    assert main(["classify", raw]) == EXIT_INPUT
    assert "lambda_n must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,payload",
    [
        ("classify", '{"family": "DNh", "N": "abc"}'),
        ("classify", '{"family": "DNh", "N": null}'),
        ("classify", '{"family": "DNh", "N": Infinity}'),
        ("classify", '{"family": "DNh", "N": 2, "theta0": "x"}'),
        ("classify", '{"family": "DNh", "N": 2, "kp": [2]}'),
        ("classify", '{"family": "DNh", "N": 2.7, "theta0": 1.0}'),
        ("classify", '{"family": "DNh", "N": 2, "theta0": 1.0, "kp": 2.9}'),
        ("classify", '{"family": ["DNh"], "N": 2}'),
        ("classify", '{"vortices": [{"pos": [1, 0, 0], "strength": 1}], "poles": "x"}'),
        ("simulate", '{"vortices": [{"pos": [1, 0, 0], "strength": 1}], "poles": null}'),
        ("classify", '{"vortices": [{"pos": [null, 0, 1], "strength": 1}]}'),
        ("simulate", '{"vortices": [{"pos": [null, 0, 1], "strength": 1}]}'),
        ("classify", '{"vortices": [{"pos": [[1], 0, 0], "strength": 1}]}'),
        ("simulate", '{"vortices": [{"pos": [[1], 0, 0], "strength": 1}]}'),
        ("classify", '{"vortices": [{"pos": ["x", 0, 1], "strength": 1}]}'),
        ("simulate", '{"vortices": [{"pos": ["x", 0, 1], "strength": 1}]}'),
        # JSON strings and booleans are not numbers
        ("simulate", '{"vortices": [{"pos": ["1", 0, 0], "strength": true}, '
                     '{"pos": [-1, 0, 0], "strength": -1}]}'),
        ("simulate", '{"vortices": [{"pos": [1, 0, false], "strength": 1}, '
                     '{"pos": [-1, 0, 0], "strength": -1}]}'),
        ("simulate", '{"vortices": [{"pos": [1, 0, 0], "strength": 1}, '
                     '{"pos": [-1, 0, 0], "strength": "-1"}]}'),
        ("classify", '{"vortices": [{"pos": [1, 0, 0], "strength": 1}, {"pos": [0, 0, 1], '
                     '"strength": 1}, {"pos": [0, 0, -1], "strength": -1}], "poles": "2"}'),
        ("classify", '{"vortices": [{"pos": [1, 0, 0], "strength": 1}, {"pos": [0, 0, 1], '
                     '"strength": 1}, {"pos": [0, 0, -1], "strength": -1}], "poles": 2.5}'),
        ("classify", '{"family": "DNh", "N": "3", "theta0": "0.9"}'),
        ("classify", '{"family": "DNh", "N": 3, "theta0": "0.9"}'),
        ("classify", '{"family": "DNh", "N": 2, "theta0": 0.9, "kp": "2"}'),
        ("classify", '{"family": "DNh", "N": 2, "theta0": 0.9, "kp": false}'),
        ("classify", '{"family": "DNh", "N": 2, "theta0": 0.9, "lambda_n": "1"}'),
        ("classify", '{"family": "DNh", "N": 2, "theta0": 0.9, "lambda_n": true}'),
    ],
)
def test_wrong_typed_json_fields_are_input_errors(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(payload)
    assert main([command, str(path)]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_classify_flags_non_equilibrium_configurations(tmp_path, capsys, pm_sampler):
    rng = np.random.default_rng(13)
    path = tmp_path / "cloud.json"
    path.write_text(pm_sampler(rng, 2, min_chord=0.5).to_json())
    assert main(["classify", str(path)]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_round_trip(tmp_path):
    config_path = tmp_path / "ring.json"
    config_path.write_text(make_equatorial_pm_ring(2).to_json())
    out_path = tmp_path / "trajectory.csv"
    rc = main(
        [
            "simulate",
            str(config_path),
            "--t-end",
            "0.5",
            "--tol",
            "1e-9",
            "--out",
            str(out_path),
        ]
    )
    assert rc == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("t,x1,y1,z1")
    assert len(lines) >= 3
    # the ring is a fixed point: last row equals the first up to tolerance
    first = np.array([float(x) for x in lines[1].split(",")[1:13]])
    last = np.array([float(x) for x in lines[-1].split(",")[1:13]])
    np.testing.assert_allclose(last, first, atol=1e-9)


@pytest.mark.parametrize(
    "name,t_end",
    [("random_m6", "1.0"), ("pole_pair_m6", "1.5"), ("rotating_rings_m6", "1.0")],
)
def test_simulate_matches_the_golden_csv(tmp_path, name, t_end):
    # The CSVs were written by ``simulate --tol 1e-10`` when the integrator
    # still built a Configuration at every step.  Byte equality pins the
    # kernel's arithmetic, the renormalization and the writer; the bytes
    # also depend on the floating-point kernels of NumPy and its BLAS, and
    # were recorded with NumPy 2.4 and OpenBLAS on x86-64.
    out_path = tmp_path / f"{name}.csv"
    rc = main(
        ["simulate", str(GOLDEN / f"{name}.json"), "--t-end", t_end,
         "--tol", "1e-10", "--out", str(out_path)]
    )
    assert rc == EXIT_OK
    assert out_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_simulate_input_failures(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json")]) == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["simulate", str(bad)]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag,value", [("--t-end", "-1"), ("--t-end", "nan"), ("--tol", "2")]
)
def test_simulate_rejects_bad_horizon_and_tolerance(tmp_path, capsys, flag, value):
    config_path = tmp_path / "ring.json"
    config_path.write_text(make_equatorial_pm_ring(2).to_json())
    out_path = tmp_path / "trajectory.csv"
    rc = main(["simulate", str(config_path), flag, value, "--out", str(out_path)])
    assert rc == EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert not out_path.exists()


def test_simulate_collision_writes_partial_trajectory(tmp_path, capsys):
    from vortex_atlas.core import Configuration

    eps = 5e-9
    b = np.array([math.cos(eps), math.sin(eps), 0.0])
    near = Configuration(
        [[1.0, 0.0, 0.0], b / np.linalg.norm(b), [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
        [1.0, -1.0, 1.0, -1.0],
    )
    config_path = tmp_path / "near.json"
    config_path.write_text(near.to_json())
    out_path = tmp_path / "partial.csv"
    rc = main(["simulate", str(config_path), "--out", str(out_path)])
    assert rc == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) >= 2  # the partial trajectory is preserved
    # an unwritable --out for the partial trajectory is an input error
    unwritable = tmp_path / "no-such-dir" / "partial.csv"
    assert main(["simulate", str(config_path), "--out", str(unwritable)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_thresholds_cli_recomputes_the_reference_table(tmp_path):
    out_path = tmp_path / "thresholds.csv"
    rc = main(["thresholds", "--out", str(out_path)])
    assert rc == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "family,N,k_p,transition,theta_star,reference_value,abs_delta"
    assert len(lines) == 33
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[6]) >= 0.0
        assert 0.0 < float(parts[4]) < math.pi


def test_thresholds_match_the_golden_csv(tmp_path, capsys):
    # Written by ``thresholds --grid-step 0.01 --tol 1e-4`` when every
    # table row ran its own latitude scan.  At this coarse grid the
    # DNdRRp N=6 k_p=2 Hopf pair is missed, so stderr carries three notes.
    out_path = tmp_path / "thresholds.csv"
    rc = main(["thresholds", "--grid-step", "0.01", "--tol", "1e-4",
               "--out", str(out_path)])
    assert rc == EXIT_OK
    assert out_path.read_bytes() == (GOLDEN / "thresholds.csv").read_bytes()
    assert capsys.readouterr().err == (GOLDEN / "thresholds.stderr").read_text()


def _whole_grid_transitions(family, n_per_ring, k_p, grid_step, tol):
    """The whole-grid transition search: decide every grid latitude first,
    then halve every bracket between resolvable samples of different
    verdicts in one set of halving rounds."""

    def verdicts_at(thetas):
        descs = (FamilyDescriptor(family, n_per_ring=n_per_ring, theta0=t, k_p=k_p) for t in thetas)
        return [stability._scan_verdict(result) for result in stability.decide_many(descs)]

    pts = stability._scan_points(family, k_p, grid_step)
    samples = [(t, v) for t, v in zip(pts, verdicts_at(pts)) if v is not None]
    brackets = [(t0, v0, t1, v1) for (t0, v0), (t1, v1) in zip(samples, samples[1:]) if v0 != v1]
    changes = stability.verdict_changes(verdicts_at, brackets, tol)
    return tuple((stability._classify(a, b), theta) for part in changes for theta, a, b in part)


@pytest.mark.parametrize("grid_step,tol,notes", [(0.005, 1e-6, 0), (0.01, 1e-4, 3), (0.05, 1e-6, 6)])
def test_thresholds_read_each_scan_only_as_far_as_the_table_asks(grid_step, tol, notes, tmp_path, capsys):
    """The command stops each family's scan at the change its last row
    asks for, yet prints the rows and notes that picking from every
    family's whole scan gives; and list_transitions, the scan read to its
    end, is the whole-grid search."""
    keys = dict.fromkeys((ref.family, ref.n_per_ring, ref.k_p) for ref in stability.REFERENCE_THRESHOLDS)
    assert len(keys) == 19
    scans = {key: list_transitions(*key, grid_step, tol) for key in keys}
    assert scans == {key: _whole_grid_transitions(*key, grid_step, tol) for key in keys}
    want_rows, want_notes = [], []
    for ref in stability.REFERENCE_THRESHOLDS:
        scan = scans[ref.family, ref.n_per_ring, ref.k_p]
        try:
            theta = stability._pick_transition(scan, ref.transition, ref.occurrence)
        except stability.NoTransition as exc:
            want_notes.append(f"note: {ref.family.value} N={ref.n_per_ring} k_p={ref.k_p} {ref.transition}: {exc}")
            continue
        want_rows.append([ref.family.value, str(ref.n_per_ring), str(ref.k_p), ref.transition, atlas._fmt(theta)])
    out_path = tmp_path / "thresholds.csv"
    capsys.readouterr()
    assert main(["thresholds", "--grid-step", str(grid_step), "--tol", str(tol), "--out", str(out_path)]) == EXIT_OK
    rows = list(csv.reader(out_path.read_text().splitlines()))[1:]
    assert [row[:5] for row in rows] == want_rows
    assert capsys.readouterr().err.splitlines() == want_notes
    assert len(want_notes) == notes


def test_thresholds_decide_a_family_only_up_to_its_last_tabulated_change(monkeypatch, capsys):
    """The default table decides at most 6,000 latitudes (10,207 when every
    family's whole grid was decided).  A family stops at its last row's
    change (DNh N=8 k_p=2 at its StabilityLoss near 0.47), and a family
    whose row finds no change still decides its whole grid (DNd N=6 k_p=2
    at step 0.05, where the Hopf pair falls between samples).  Halving two
    levels per round, the table takes at most 330 closed-form stacks (488
    at one level), and both diagrams' junction searches and samples at
    most 66 (103)."""
    decided, stacks = {}, []
    stack_arrays = stability._stack_arrays

    def counting(key, stack):
        decided[key[:3]] = decided.get(key[:3], 0) + len(stack)
        stacks.append(len(stack))
        return stack_arrays(key, stack)

    monkeypatch.setattr(stability, "_stack_arrays", counting)
    assert main(["thresholds", "--out", os.devnull]) == EXIT_OK
    assert sum(decided.values()) <= 6000
    assert len(stacks) <= 330
    stacks.clear()
    for n_pairs in (2, 3):
        build_diagram(n_pairs)
    assert len(stacks) <= 66
    assert decided[Family.DNH_2R, 8, 2] < len(stability._scan_points(Family.DNH_2R, 2, 0.005)) / 2
    decided.clear()
    assert main(["thresholds", "--grid-step", "0.05", "--out", os.devnull]) == EXIT_OK
    assert "note: DNdRRp N=6 k_p=2 HopfLower" in capsys.readouterr().err
    assert decided[Family.DND_RRP, 6, 2] >= len(stability._scan_points(Family.DND_RRP, 2, 0.05))


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--tol", "0"),
        ("--tol", "-1"),
        ("--tol", "1e-17"),
        ("--grid-step", "0"),
        ("--grid-step", "-1"),
        ("--grid-step", "nan"),
    ],
)
def test_thresholds_rejects_bad_step_and_tolerance(flag, value, capsys):
    assert main(["thresholds", flag, value]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert captured.out == ""


def test_thresholds_with_a_step_wider_than_the_range(capsys):
    assert main(["thresholds", "--grid-step", "2"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.strip() == (
        "family,N,k_p,transition,theta_star,reference_value,abs_delta"
    )
    assert captured.err.count("note:") == 32


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def three_pair_diagram():
    return build_diagram(3)


@pytest.mark.parametrize("pairs", [2, 3])
def test_diagram_matches_the_golden_files(tmp_path, monkeypatch, capsys, pairs):
    # Written by ``diagram`` when the meridian roots were bracketed one
    # sample at a time; the bytes depend on NumPy's and the BLAS's kernels.
    monkeypatch.chdir(tmp_path)
    name = f"diagram_pairs{pairs}"
    assert main(["diagram", "--pairs", str(pairs), "--out", f"{name}.svg"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()
    for suffix in (".svg", ".csv"):
        got = (tmp_path / f"{name}{suffix}").read_bytes()
        assert got == (GOLDEN / f"{name}{suffix}").read_bytes(), suffix


@pytest.mark.parametrize("pairs,pitchforks", [(2, 2), (3, 0)])
def test_pitchfork_candidates_are_decided_by_a_wide_margin(pairs, pitchforks):
    """A child meets a parent's verdict change when its closest sample lies
    within 1e-3 of it.  Every candidate is far from that bound on either
    side, so a change of the sample grids cannot quietly flip a decision."""
    diagram = build_diagram(pairs)
    meeting = []
    for parent, mu_star, h_star, _ in _junctions(list(diagram.segments)):
        for child in diagram.segments:
            if child.is_parent or not child.points:
                continue
            d, _ = _nearest_sample(child, mu_star, h_star)
            if d <= 1e-4:
                meeting.append((parent.label, child.label, mu_star))
            else:
                assert d >= 1e-2, (parent.label, child.label, d)
    assert len(meeting) == pitchforks
    assert meeting == [(b.parent, b.child, b.mu_z) for b in diagram.bifurcations]


def test_a_branch_drops_each_point_the_certificate_refuses(monkeypatch):
    """DNh N=3 at theta0 = 0.9 with its minus ring turned by 1e-6 rotates
    rigidly to 1e-15, but its chart residual is 2.3e-7: the analysis alone
    (bound 1e-6) accepts it, the branch certificate (bound 1e-8) refuses it,
    and the genuine members around it keep their points."""
    members = {t: make_family(FamilyDescriptor(Family.DNH_2R, 3, theta0=t)) for t in (0.5, 0.7, 0.9, 1.1)}
    turned = members[0.9].positions.copy()
    minus = list(members[0.9].layout.minus)
    turned[minus] = turned[minus] @ rotation_z_matrix(1e-6).T
    members[0.8] = members[0.9].with_positions(turned)
    analyze_small(members[0.8])

    def stack(configs):  # every row kept, as the constructors kept them
        positions = np.array([c.positions for c in configs])
        return positions, configs[0].strengths, configs[0].layout, np.ones(len(configs), bool)

    monkeypatch.setattr(atlas, "_branch_stack", stack)
    evaluate = atlas._branch(members.get)
    got = evaluate([0.5, 0.7, 0.8, 0.9, 1.1])
    assert got[2] is None
    assert got[:2] + got[3:] == evaluate([0.5, 0.7, 0.9, 1.1])
    assert None not in got[:2] + got[3:]


def test_the_diagram_builds_one_chart_per_segment_grid_and_analysis_stack(monkeypatch):
    """Each branch point is built, checked, certified and analysed in its
    segment's one stacked pass: no chart is built per point (the per-point
    route built 2,011), no point is charted twice, and a configuration is
    built only to seed the chart of an analysis stack, besides the two fixed
    points (the per-point route built 3,046)."""
    counts = {"charts": 0, "charted": 0, "configurations": 0, "evaluates": 0, "segment stacks": 0, "stacks": 0, "found": 0}
    init, coords, post_init = dynamics.MixedChart.__init__, dynamics.MixedChart._coords, Configuration.__post_init__
    small_stack, small_outcomes, branch = stability._small_stack, atlas._small_outcomes, atlas._branch

    def counted_init(self, config):
        counts["charts"] += 1
        init(self, config)

    def counted_coords(self, p):
        counts["charted"] += len(p)
        return coords(self, p)

    def counted_post_init(self):
        counts["configurations"] += 1
        post_init(self)

    def counted_stack(positions, seed, bound):
        counts["stacks"] += 1
        return small_stack(positions, seed, bound)

    def counted_outcomes(positions, strengths, layout, bound):
        counts["found"] += len(positions)
        counts["segment stacks"] += 1
        return small_outcomes(positions, strengths, layout, bound)

    def counted_branch(solve):
        evaluate = branch(solve)

        def counted(params):
            counts["evaluates"] += 1
            return evaluate(params)

        return counted

    monkeypatch.setattr(dynamics.MixedChart, "__init__", counted_init)
    monkeypatch.setattr(dynamics.MixedChart, "_coords", counted_coords)
    monkeypatch.setattr(Configuration, "__post_init__", counted_post_init)
    monkeypatch.setattr(stability, "_small_stack", counted_stack)
    monkeypatch.setattr(atlas, "_small_outcomes", counted_outcomes)
    monkeypatch.setattr(atlas, "_branch", counted_branch)
    build_diagram(2)
    build_diagram(3)
    assert counts["evaluates"] == 8
    assert counts["charts"] <= counts["evaluates"] + counts["stacks"]
    assert 0 < counts["charted"] <= counts["found"]
    assert counts["configurations"] <= counts["segment stacks"] + 2


@pytest.mark.parametrize("n_pairs", [2, 3])
def test_the_diagram_builds_a_report_for_the_fixed_point_alone(monkeypatch, n_pairs):
    """A branch point's momentum and verdict come from its Decision, so the
    fixed point E is the one point that gets a StabilityReport (2,543 for
    two pairs and 483 for three when every branch point got one)."""
    built, report = [], stability.StabilityReport

    def counted(**fields):
        built.append(fields["label"])
        return report(**fields)

    monkeypatch.setattr(stability, "StabilityReport", counted)
    build_diagram(n_pairs)
    assert built == [FamilyDescriptor(Family.EQUATORIAL_PM_RING, n_per_ring=n_pairs).label]


def test_diagram_segments_and_fixed_point(three_pair_diagram):
    diagram = three_pair_diagram
    labels = [seg.label for seg in diagram.segments]
    assert len(labels) == len(set(labels)) == 5
    assert sorted(label[:3] for label in labels) == [
        "(a)",
        "(b)",
        "(c)",
        "(d)",
        "(e)",
    ]
    assert diagram.n_pairs == 3
    assert diagram.fixed_point.mu_z == pytest.approx(0.0, abs=1e-12)
    assert all(len(seg.points) > 50 for seg in diagram.segments)


def test_diagram_rows_reproduce_ring_verdicts(three_pair_diagram):
    # The parents go through the stacked closed-form pass; each checked
    # point must be what one-point ``analyze`` and the constructor give.
    rows = list(csv.reader(io.StringIO(diagram_csv(three_pair_diagram))))
    assert rows[0] == ["branch", "param", "mu_z", "energy", "verdict"]
    families = {
        "(a) D3h(2R)": (Family.DNH_2R, 3, 0),
        "(b) D2h(2R,2p)": (Family.DNH_2R, 2, 2),
        "(d) D3d(R,R')": (Family.DND_RRP, 3, 0),
        "(e) D2d(R,R',2p)": (Family.DND_RRP, 2, 2),
    }
    parents = [seg for seg in three_pair_diagram.segments if seg.is_parent]
    assert sorted(seg.label for seg in parents) == sorted(families)
    for seg in parents:
        family, n, k_p = families[seg.label]
        assert len(seg.points) > 200
        for p in seg.points[::20]:
            desc = FamilyDescriptor(family, n, theta0=p.param, k_p=k_p)
            report = analyze(desc)
            assert (report.mu_z, report.verdict.value) == (p.mu_z, p.verdict)
            assert hamiltonian(make_family(desc)) == p.energy


def test_diagram_svg_is_self_contained(three_pair_diagram):
    svg = render_svg(three_pair_diagram)
    assert svg.lstrip().startswith("<svg")
    assert "<polyline" in svg
    assert 'stroke-dasharray="7 4"' in svg  # linearly stable stretches
    assert 'stroke-dasharray="2 4"' in svg  # unstable stretches
    assert "vertical momentum" in svg and "energy" in svg
    assert ">E<" in svg  # the shared fixed-point marker
    # self-contained: nothing fetched beyond the mandatory xmlns declaration
    assert "href" not in svg and "<image" not in svg and "url(" not in svg


def test_diagram_cli_writes_svg_and_csv(tmp_path, capsys):
    out_path = tmp_path / "figure.svg"
    rc = main(["diagram", "--pairs", "3", "--out", str(out_path)])
    assert rc == EXIT_OK
    assert out_path.exists()
    assert (tmp_path / "figure.csv").exists()
    stdout = capsys.readouterr().out
    assert "wrote" in stdout


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "RING", "--t-end", "0.1"],
        ["classify", '{"family": "DNd", "N": 2, "theta0": 1.3}'],
        ["sweep", "--family", "DNh", "--theta-start", "0.4", "--theta-stop", "0.5",
         "--grid-step", "0.1"],
        ["diagram", "--pairs", "3"],
        ["thresholds", "--grid-step", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_unwritable_out_is_an_input_error(tmp_path, capsys, argv):
    ring = tmp_path / "ring.json"
    ring.write_text(make_equatorial_pm_ring(2).to_json())
    argv = [str(ring) if a == "RING" else a for a in argv]
    out = tmp_path / "no-such-dir" / "out.txt"
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("input error:")


_ODD_JSON = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=3)
)
_DESCRIPTORS = st.fixed_dictionaries(
    {},
    optional={
        "family": st.sampled_from([*(f.value for f in Family), "DNh", "DNd", "Borromean", 3]),
        "N": st.one_of(st.integers(-1, 6), st.floats(-1.0, 6.0), _ODD_JSON),
        "theta0": st.one_of(st.floats(-1.0, 4.0), st.sampled_from([math.nan, math.inf]),
                            _ODD_JSON),
        "kp": st.one_of(st.sampled_from([0, 2, 1, 2.0, 0.5]), _ODD_JSON),
        "lambda_n": st.one_of(st.just(1.0), st.floats(allow_nan=True, allow_infinity=True),
                              _ODD_JSON),
    },
)
_COORDS = st.sampled_from([0, 1, -1, 0.6, 0.8, 1e-9]) | _ODD_JSON
_JUNK_CONFIGS = st.fixed_dictionaries(
    {
        "vortices": st.lists(
            st.fixed_dictionaries(
                {
                    "pos": st.lists(_COORDS, min_size=2, max_size=4) | _ODD_JSON,
                    "strength": st.sampled_from([1, -1, 0.5, 0]) | _ODD_JSON,
                }
            ),
            max_size=4,
        )
    },
    optional={"poles": st.sampled_from([0, 2, 1]) | _ODD_JSON},
)
_RING_CONFIGS = st.builds(
    lambda family, n, theta0, k_p: json.loads(
        make_family(FamilyDescriptor(family, n, theta0, k_p)).to_json()
    ),
    st.sampled_from([Family.DNH_2R, Family.DND_RRP]),
    st.integers(2, 3),
    st.floats(0.2, 1.4),
    st.sampled_from([0, 2]),
)


@st.composite
def _sphere_configs(draw):
    """Balanced vortex clouds with chords of at least 0.3: seldom in
    equilibrium, and far enough from collision to integrate quickly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 6))
    while True:
        p = rng.normal(size=(m, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        chords = np.linalg.norm(p[:, None] - p[None], axis=2) + 9.0 * np.eye(m)
        if chords.min() > 0.3:
            break
    strengths = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=m, max_size=m))
    return {"vortices": [{"pos": list(x), "strength": s} for x, s in zip(p, strengths)]}


_CONFIG_FILES = st.one_of(_RING_CONFIGS, _sphere_configs(), _JUNK_CONFIGS).map(
    lambda c: json.dumps(c).encode()
) | st.sampled_from([b"", b"{]", b"[1, 2]", b"\xff\xfe"])
_OUTS = st.sampled_from([[], ["--out", "DIR/out.txt"], ["--out", "DIR/missing/out.txt"]])
_FLOAT_ARGS = st.sampled_from(["0", "-1", "nan", "inf", "x"])


@st.composite
def _cli_calls(draw):
    """An argv, with ``DIR`` standing for a scratch directory, and the
    bytes of ``DIR/in.json``."""
    command = draw(st.sampled_from(["simulate", "classify", "sweep", "diagram", "thresholds"]))
    content = draw(_CONFIG_FILES)
    if command == "simulate":
        path = draw(st.sampled_from(["DIR/in.json"] * 3 + ["DIR/missing.json", "DIR"]))
        argv = ["simulate", path,
                "--t-end", draw(st.floats(0.001, 0.2).map(repr) | _FLOAT_ARGS),
                "--tol", draw(st.sampled_from(["1e-6", "1e-8", "1e-300"]) | _FLOAT_ARGS)]
    elif command == "classify":
        inline = draw(st.one_of(_DESCRIPTORS.map(json.dumps), st.just("{not json")))
        argv = ["classify", draw(st.sampled_from([inline] * 2 + ["DIR/in.json"] * 2
                                                 + ["DIR/missing.json", "DIR"]))]
    elif command == "sweep":
        families = draw(st.lists(st.sampled_from(["DNh", "DNd", "EquatorialPmRing", "x"]),
                                 min_size=1, max_size=2))
        argv = ["sweep", *(a for f in families for a in ("--family", f)),
                "--n", draw(st.sampled_from(["2", "3", "2..4", "2,6", "1", "0..3", "6..2", "x",
                                             "2..257", "2..1000000000000"])),
                "--theta-start", draw(st.floats(-1.0, 4.0).map(repr) | _FLOAT_ARGS
                                      | st.just("-1e12")),
                "--theta-stop", draw(st.floats(-1.0, 4.0).map(repr) | _FLOAT_ARGS),
                "--grid-step", draw(st.floats(0.05, 1.0).map(repr) | _FLOAT_ARGS
                                    | st.just("1e-300")),
                "--kp", draw(st.sampled_from(["0", "2", "1"])),
                "--lambda-n", draw(st.sampled_from(["1", "0.5", "0", "-1", "nan", "inf"])),
                "--format", draw(st.sampled_from(["csv", "json"]))]
    elif command == "diagram":
        # one diagram build takes seconds: only argv that fail before it
        argv = draw(st.sampled_from([
            ["diagram"], ["diagram", "--pairs", "5"], ["diagram", "--pairs", "x"],
            ["diagram", "--pairs", "2", "--bogus"], ["diagram", "--out", "DIR/d.svg"],
        ]))
    else:
        argv = ["thresholds",
                "--grid-step", draw(st.floats(0.05, 2.0).map(repr) | _FLOAT_ARGS
                                    | st.just("1e-300")),
                "--tol", draw(st.sampled_from(["1e-6", "1e-3", "1e-17"]) | _FLOAT_ARGS),
                "--format", draw(st.sampled_from(["csv", "json"]))]
    return [*argv, *draw(_OUTS)] if command != "diagram" else argv, content


@settings(max_examples=120, deadline=None)
@given(call=_cli_calls())
def test_every_command_exits_with_a_documented_code(call):
    argv, content = call
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "in.json").write_bytes(content)
        argv = [a.replace("DIR", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_NUMERIC)
    last = (err.getvalue().splitlines() or [""])[-1]
    if code == EXIT_INPUT:
        assert last.startswith("input error:")
    if code == EXIT_NUMERIC:
        assert last.startswith("numeric failure:")


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["simulate", "MISSING"], EXIT_INPUT, "input error:"),
        (["classify", '{"family": "DNd", "N": 2, "theta0": 1.3}', "--out", "MISSING"],
         EXIT_INPUT, "input error:"),
        (["sweep", "--family", "DNh", "--grid-step", "-0.1"], EXIT_INPUT, "input error:"),
        (["diagram", "--pairs", "5"], EXIT_USAGE, "usage:"),
        (["thresholds", "--grid-step", "2", "--out", "MISSING"], EXIT_INPUT, "input error:"),
        (["thresholds", "--grid-step", "1e-300"], EXIT_INPUT, "input error:"),
        (["sweep", "--family", "DNh", "--theta-start=-1e12", "--grid-step", "0.05"],
         EXIT_INPUT, "input error:"),
        (["sweep", "--family", "DNh", "--theta-start", "-1e12", "--grid-step", "0.05"],
         EXIT_INPUT, "input error:"),
        (["simulate", "CONFIG", "--t-end", "0.01", "--tol", "1e-300"], EXIT_INPUT,
         "input error:"),
        (["sweep", "--family", "DNh", "--lambda-n", "nan"], EXIT_INPUT,
         "input error: lambda_n must be finite"),
        (["sweep", "--family", "DNh", "--kp", "2", "--lambda-n", "inf"], EXIT_INPUT,
         "input error: lambda_n must be finite"),
        (["sweep", "--family", "DNh", "--kp", "2", "--lambda-n", "0"], EXIT_INPUT,
         "input error: lambda_n must be nonzero"),
    ],
    ids=["simulate", "classify", "sweep", "diagram", "thresholds", "thresholds-grid",
         "sweep-grid", "sweep-grid-exponent", "simulate-tol", "sweep-lambda-nan",
         "sweep-lambda-inf", "sweep-lambda-zero"],
)
def test_the_entry_point_exits_without_a_traceback(tmp_path, argv, code, message):
    src = str(Path(vortex_atlas.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    missing = str(tmp_path / "no-such-dir" / "file")
    config = tmp_path / "ring.json"
    config.write_text(make_equatorial_pm_ring(2).to_json())
    paths = {"MISSING": missing, "CONFIG": str(config)}
    done = subprocess.run(
        [sys.executable, "-m", "vortex_atlas.atlas", *(paths.get(a, a) for a in argv)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == code
    assert message in done.stderr
    assert "Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# SciPy stays off the import path
# ---------------------------------------------------------------------------

_SCIPY_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import vortex_atlas
seen = {"import vortex_atlas": scipy_modules()}
import vortex_atlas.atlas
seen["import vortex_atlas.atlas"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            assert vortex_atlas.atlas.main(argv) == 0, argv
    seen[argv[0]] = scipy_modules()
print(json.dumps(seen))
"""


def _scipy_probe(tmp_path, arg: str) -> dict:
    src = str(Path(vortex_atlas.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, arg],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def test_no_command_loads_scipy(tmp_path):
    config = tmp_path / "ring.json"
    config.write_text(make_equatorial_pm_ring(2).to_json())
    ring = '{"family": "DNh", "n_per_ring": 4, "theta0": 0.6, "k_p": 0, "lambda_n": 1.0}'
    calls = [
        ["--help"],
        ["classify", ring],
        ["sweep", "--family", "DNd", "--n", "2..3", "--grid-step", "0.5"],
        ["thresholds", "--grid-step", "0.1", "--out", str(tmp_path / "t.csv")],
        ["simulate", str(config), "--t-end", "0.01", "--out", str(tmp_path / "s.csv")],
        ["diagram", "--pairs", "2", "--out", str(tmp_path / "d.svg")],
    ]
    seen = _scipy_probe(tmp_path, json.dumps(calls))
    assert list(seen) == ["import vortex_atlas", "import vortex_atlas.atlas", "--help",
                          "classify", "sweep", "thresholds", "simulate", "diagram"]
    assert not any(seen.values()), seen
