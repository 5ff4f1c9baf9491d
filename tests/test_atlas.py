"""Command-line interface: sweeps, classification, diagrams, thresholds."""

import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from vortex_atlas.atlas import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    SweepSpec,
    _nearest_on_segment,
    _parse_int_list,
    _Segment,
    build_diagram,
    diagram_csv,
    main,
    render_svg,
    run_sweep,
)
from vortex_atlas.core import Family, FamilyDescriptor
from vortex_atlas.equilibria import OutOfDomain, make_equatorial_pm_ring
from vortex_atlas.stability import analyze

SWEEP_HEADER = "family,N,theta0,mu_z,xi_z,H,verdict,deciding_block"


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def test_ring_size_lists():
    assert _parse_int_list("3") == (3,)
    assert _parse_int_list("2,5,7") == (2, 5, 7)
    assert _parse_int_list("2..6") == (2, 3, 4, 5, 6)
    with pytest.raises(OutOfDomain):
        _parse_int_list("two")


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


def test_sweep_marks_a_non_finite_pole_strength_as_error_rows(capsys):
    argv = ["sweep", "--family", "DNh", "--theta-start", "0.4",
            "--theta-stop", "0.6", "--grid-step", "0.1", "--lambda-n", "nan"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 4
    assert all(line.split(",")[6] == "error" for line in lines[1:])


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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name,argv",
    [
        ("sweep_kp0", ["--n", "2..6", "--theta-stop", "1.57",
                       "--grid-step", "0.025", "--kp", "0"]),
        ("sweep_kp2", ["--n", "2..8", "--theta-stop", "3.1",
                       "--grid-step", "0.05", "--kp", "2"]),
    ],
)
def test_sweep_matches_the_golden_csv(tmp_path, name, argv):
    # Written by ``sweep`` when ``analyze`` still decided the verdict from
    # a second eigen-solve of the whole slice and the grid ran on a thread
    # pool; like the simulate goldens, the bytes depend on NumPy's and the
    # BLAS's floating-point kernels.
    out_path = tmp_path / f"{name}.csv"
    rc = main(["sweep", "--family", "DNh", "--family", "DNd",
               "--theta-start", "0.05", *argv, "--out", str(out_path)])
    assert rc == EXIT_OK
    assert out_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


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
    from vortex_atlas.core import Configuration, Layout, UnitVector3, Vortex

    eps = 5e-9
    near = Configuration(
        (
            Vortex(UnitVector3(1.0, 0.0, 0.0), 1.0),
            Vortex(
                UnitVector3.from_array(
                    np.array([math.cos(eps), math.sin(eps), 0.0]), normalize=True
                ),
                -1.0,
            ),
            Vortex(UnitVector3(0.0, 0.0, 1.0), 1.0),
            Vortex(UnitVector3(0.0, 0.0, -1.0), -1.0),
        ),
        0,
        Layout(plus=(0, 2), minus=(1, 3)),
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


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--tol", "0"),
        ("--tol", "-1"),
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
    # sample at a time and each pitchfork candidate was refined on nested
    # grids; the bytes depend on NumPy's and the BLAS's kernels.
    monkeypatch.chdir(tmp_path)
    name = f"diagram_pairs{pairs}"
    assert main(["diagram", "--pairs", str(pairs), "--out", f"{name}.svg"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()
    for suffix in (".svg", ".csv"):
        got = (tmp_path / f"{name}{suffix}").read_bytes()
        assert got == (GOLDEN / f"{name}{suffix}").read_bytes(), suffix


@pytest.mark.parametrize(
    "maker,target,expected",
    [
        # the minimum lies between two samples
        (lambda t: (t, t * t, "v"), (0.1234, 0.0153), 0.1234),
        # the branch ends just past the best sample, inside the window
        (lambda t: None if t > 0.5 else (t, 0.0, "v"), (0.497, 0.0), 0.497),
        # nothing on the branch beats its last sample
        (lambda t: None if t > 0.5 else (t, 0.0, "v"), (0.52, 0.0), 0.5),
    ],
    ids=["between-samples", "branch-ends", "past-the-end"],
)
def test_refinement_is_no_worse_than_the_samples(maker, target, expected):
    seg = _Segment("child", np.linspace(0.0, 1.0, 101), maker, is_parent=False)
    seg.sample()
    sample_d = min(math.hypot(p.mu_z - target[0], p.energy - target[1])
                   for p in seg.points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, param = _nearest_on_segment(seg, *target)
    assert d <= sample_d
    assert param == pytest.approx(expected, abs=1e-4)


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
    rows = list(csv.reader(io.StringIO(diagram_csv(three_pair_diagram))))
    assert rows[0] == ["branch", "param", "mu_z", "energy", "verdict"]
    picked = [r for r in rows[1:] if r[0].startswith("(a)")][10::60]
    assert picked
    for _branch, param, _mu, _energy, verdict in picked:
        report = analyze(FamilyDescriptor(Family.DNH_2R, 3, theta0=float(param)))
        assert report.verdict.value == verdict


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
