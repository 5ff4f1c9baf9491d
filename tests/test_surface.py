"""The package's public names, their signatures, the methods the benchmark's tracer wraps,
the README's Python API and shown command output, the package's imports, and the test settings."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("core", "dynamics", "equilibria", "stability")
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "vortex_atlas"

# The parameters of every function in a layer's ``__all__`` and of every
# public method of an exported class (without ``self`` or ``cls``); an
# option, a parameter with a default, ends in "=".  59 parameters, 6 options.
SIGNATURES = {
    "core.Layout.all_indices": "",
    "core.Layout.standard": "n_plus n_minus pole_count",
    "core.Configuration.with_positions": "p",
    "core.Configuration.to_json": "",
    "core.Configuration.from_json": "text",
    "core.Configuration.from_mapping": "payload",
    "core.FamilyDescriptor.at": "theta0",
    "core.FamilyDescriptor.validate": "",
    "core.FamilyDescriptor.as_dict": "",
    "core.FamilyDescriptor.to_json": "",
    "core.FamilyDescriptor.from_json": "text",
    "core.FamilyDescriptor.from_mapping": "payload",
    "dynamics.Trajectory.to_csv": "",
    "dynamics.MixedChart.coords": "",
    "dynamics.MixedChart.positions": "q",
    "dynamics.MixedChart.gradient": "q xi",
    "dynamics.MixedChart.symplectic_matrix": "q",
    "dynamics.MixedChart.momentum_rows": "q",
    "dynamics.MixedChart.rotation_generators": "q axes",
    "dynamics.MixedChart.hessian_fd": "q xi",
    "dynamics.hamiltonian": "c",
    "dynamics.hamiltonians": "positions strengths",
    "dynamics.momentum_map": "c",
    "dynamics.integrate": "c0 t_end tol=",
    "equilibria.BranchPoint.configuration": "",
    "equilibria.make_equatorial_pm_ring": "n_pairs",
    "equilibria.make_tetrahedral_pair": "",
    "equilibria.make_single_plus_ring": "n theta0",
    "equilibria.make_plus_ring_pole_pair": "theta0",
    "equilibria.make_family": "desc",
    "equilibria.two_ring_positions": "family n k_p lambda_n thetas",
    "equilibria.configuration_angular_velocity": "c",
    "equilibria.ring_angular_velocity": "desc",
    "equilibria.branch_c2v_2R2p": "x lambda_n=",
    "equilibria.branch_c2v_RRp2p": "x lambda_n= sign=",
    "equilibria.branch_c2v_RmRmp": "x",
    "stability.BlockSpectrum.as_dict": "",
    "stability.StabilityReport.hessian_eigenvalues": "",
    "stability.StabilityReport.linearization_eigenvalues": "",
    "stability.StabilityReport.as_dict": "",
    "stability.StabilityReport.to_json": "",
    "stability.hessian_closed_form": "desc",
    "stability.slice_basis": "desc",
    "stability.slice_symplectic_form": "desc",
    "stability.analyze": "desc",
    "stability.analyze_many": "descs",
    "stability.decide_many": "descs",
    "stability.analyze_small": "config",
    "stability.analyze_small_many": "configs",
    "stability.list_transitions": "family n_per_ring k_p grid_step= tol=",
    "stability.verdict_changes": "verdicts_at samples tol",
}

# Every private name one module of the package imports from another, as
# ``(importer, layer._name)``.  A new entry is a layer reaching into
# another's internals.
PRIVATE_IMPORTS = {
    ("atlas", "equilibria._branch_stack"),
    ("atlas", "stability._small_outcomes"),
    ("atlas", "stability._transition_reader"),
    ("dynamics", "core._pairwise_l2"),
    ("equilibria", "core._kept_rows"),
    ("stability", "equilibria._certificates"),
    ("stability", "equilibria._ring_phase"),
}


@pytest.mark.parametrize("name", ("vortex_atlas",) + tuple(f"vortex_atlas.{m}" for m in LAYERS))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_traced_methods_are_defined_on_their_classes():
    """``perfbench/tracing.py`` wraps these methods through the class
    ``__dict__``; a missing one makes every traced run fail with KeyError."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.METHODS) == 5
    for layer, cls_name, attr in tracing.METHODS.values():
        cls = getattr(importlib.import_module(f"vortex_atlas.{layer}"), cls_name)
        assert attr in cls.__dict__, f"{cls_name}.{attr}"


def test_the_tracers_per_layer_span_names_are_public_functions():
    """Every ``layer.function`` span name that ``Recorder.per_layer`` in
    ``perfbench/tracing.py`` reads, other than the methods of ``METHODS``,
    names a function the tracer wraps: public, not a ``cmd_`` dispatcher,
    and defined in that layer.  A renamed or privatised function would
    otherwise turn its metric into 0 without an error."""
    tree = ast.parse(TRACING.read_text())
    (methods,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["METHODS"]
    ]
    (per_layer,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "per_layer"]
    names = {
        node.value for node in ast.walk(per_layer)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.fullmatch(r"(core|dynamics|equilibria|stability|atlas)\.\w+", node.value)
    } - {key.value for key in methods.keys}
    assert len(names) == 15, sorted(names)
    for name in sorted(names):
        layer, attr = name.split(".")
        module = importlib.import_module(f"vortex_atlas.{layer}")
        fn = vars(module).get(attr)
        assert not attr.startswith(("_", "cmd_")) and inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name


def _parameters(fn) -> str:
    params = inspect.signature(fn).parameters.values()
    return " ".join(
        p.name + ("=" if p.default is not p.empty else "")
        for p in params
        if p.name not in ("self", "cls")
    )


def test_public_signatures_are_pinned():
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"vortex_atlas.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = _parameters(obj)
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if not attr.startswith("_") and (
                        inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))
                    ):
                        found[f"{layer}.{name}.{attr}"] = _parameters(getattr(obj, attr))
    assert found == SIGNATURES


def test_private_cross_layer_imports_are_pinned():
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= {
                    (path.stem, f"{node.module}.{alias.name}")
                    for alias in node.names
                    if alias.name.startswith("_")
                }
    assert found == PRIVATE_IMPORTS


def _absolute_imports(top_level: set[str]) -> list[str]:
    """``file:line module`` of each import, at module level or inside a
    function, under ``src/vortex_atlas`` of a module in ``top_level``."""
    paths, found = sorted(PACKAGE.glob("*.py")), []
    assert PACKAGE / "__init__.py" in paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] in top_level]
    return found


def test_no_module_of_the_package_imports_scipy():
    """SciPy is a test dependency only: no import of it anywhere under
    ``src/vortex_atlas``."""
    assert not (found := _absolute_imports({"scipy"})), found


def test_one_function_forks_and_no_module_starts_threads():
    """``atlas._fanout`` is the one place a process is forked, and no module
    imports a thread or process pool: a pool would run the sweep's rows under
    one GIL (threads) or fork from a process with a second thread running."""
    assert not (found := _absolute_imports({"threading", "multiprocessing", "concurrent"})), found
    forks = [
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "fork" and getattr(node.value, "id", None) == "os"
    ]
    assert forks == ["atlas._fanout"]


# The functions under ``src/`` that call each name of the decision stage: one
# function decides every row of both stability routes, one rule calls a
# restricted symplectic form singular, and one function builds a report.
DECISION_CALLERS = {
    "Decision": {"stability._decide"},
    "StabilityReport": {"stability._report"},
    "_verdicts": {"stability._decide"},
    "_block_spectra": {"stability._decide"},
    "_singular": {"stability._decide", "stability.slice_symplectic_form"},
}


def test_one_decision_stage_decides_every_row():
    """A ``Decision`` or a ``StabilityReport`` is built, and the verdict rule,
    the spectral stage and the singular-form rule are called, only where
    ``DECISION_CALLERS`` says: a second decision path or report builder fails here.  A call counts for the top-level
    function (or class) that contains it, by name or by attribute."""
    found: dict[str, set[str]] = {name: set() for name in DECISION_CALLERS}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in found:
                        found[name].add(owner)
    assert found == DECISION_CALLERS


def test_the_package_parses_at_the_declared_python_floor():
    """Every module parses with the grammar of the oldest Python that
    ``requires-python`` admits, so newer syntax cannot creep in; the standard
    library APIs a module calls are not checked."""
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    floor = tuple(int(part) for part in re.fullmatch(r">=(\d+)\.(\d+)", declared).groups())
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) == 6
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def _readme_api_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_the_readme_python_api_runs():
    """Each ``python`` block of the README's Python API section runs as
    written, so a removed or renamed name fails here and not only in the docs."""
    blocks = _readme_api_blocks()
    assert len(blocks) == 2
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(block, "README.md", "exec"), {})
        assert out.getvalue()


def test_the_readme_shows_what_classify_and_sweep_print(capsys):
    """The output the README shows under its ``classify`` and ``sweep``
    commands is what they print: the report's fields other than the elided
    block list, as parsed values, and each shown CSV line."""
    from vortex_atlas.atlas import EXIT_OK, main

    readme = (ROOT / "README.md").read_text()
    shown = re.findall(r"```sh\nvortex-atlas ((classify|sweep) .*?)\n```\n.*?```\w*\n(.*?)```", readme, re.DOTALL)
    assert [name for _, name, _ in shown] == ["classify", "sweep"]
    (classify, _, report), (sweep, _, table) = shown
    assert main(shlex.split(classify)) == EXIT_OK
    got = json.loads(capsys.readouterr().out)
    want = json.loads(re.sub(r',\s*"blocks": \[\.\.\.\]', "", report))
    assert "blocks" in got and {key: got[key] for key in want} == want
    assert main(shlex.split(sweep)) == EXIT_OK
    lines, shown_lines = capsys.readouterr().out.splitlines(), table.splitlines()
    assert shown_lines[-1] == "..." and all(line in lines for line in shown_lines[:-1])


def test_a_failing_property_fails_alone(tmp_path):
    """Under the repository's pytest settings a failing Hypothesis test
    fails and the tests after it still run: reporting the failure imports a
    module that warns of a deprecation, which the "error" filter alone turns
    into an INTERNALERROR that ends the run."""
    (tmp_path / "pyproject.toml").write_bytes((ROOT / "pyproject.toml").read_bytes())
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
