"""The package's public names, their signatures, and the methods the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = ("core", "dynamics", "equilibria", "stability")
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# The parameters of every function in a layer's ``__all__`` and of every
# public method of an exported class (without ``self`` or ``cls``); an
# option, a parameter with a default, ends in "=".  84 parameters, 8 options.
SIGNATURES = {
    "core.Layout.all_indices": "",
    "core.Layout.standard": "n_plus n_minus pole_count",
    "core.Configuration.with_negated_strengths": "",
    "core.Configuration.with_positions": "p",
    "core.Configuration.to_json": "",
    "core.Configuration.from_json": "text",
    "core.FamilyDescriptor.validate": "",
    "core.FamilyDescriptor.to_json": "",
    "core.FamilyDescriptor.from_json": "text",
    "core.FamilyDescriptor.from_mapping": "payload",
    "core.apply_group_element": "g c",
    "core.is_fixed_by": "c g",
    "core.rotation_z_matrix": "angle",
    "core.mirror_y_matrix": "",
    "core.mirror_z_matrix": "",
    "dynamics.Trajectory.final_state": "",
    "dynamics.Trajectory.to_csv": "",
    "dynamics.MixedChart.coords": "",
    "dynamics.MixedChart.positions": "q",
    "dynamics.MixedChart.config_at": "q",
    "dynamics.MixedChart.gradient": "q xi",
    "dynamics.MixedChart.corotating_field": "q xi",
    "dynamics.MixedChart.symplectic_matrix": "q",
    "dynamics.MixedChart.momentum_rows": "q",
    "dynamics.MixedChart.rotation_generators": "q axes",
    "dynamics.MixedChart.hessian_fd": "q xi",
    "dynamics.hamiltonian": "c",
    "dynamics.hamiltonians": "positions strengths",
    "dynamics.vector_field": "c",
    "dynamics.momentum_map": "c",
    "dynamics.augmented_hamiltonian": "c xi mu",
    "dynamics.integrate": "c0 t_end tol=",
    "equilibria.BranchPoint.configuration": "",
    "equilibria.make_equatorial_pm_ring": "n_pairs",
    "equilibria.make_tetrahedral_pair": "",
    "equilibria.make_single_plus_ring": "n theta0",
    "equilibria.make_plus_ring_pole_pair": "theta0",
    "equilibria.make_family": "desc",
    "equilibria.two_ring_positions": "family n k_p lambda_n thetas",
    "equilibria.angular_velocity_generic": "c index=",
    "equilibria.configuration_angular_velocity": "c",
    "equilibria.ring_angular_velocity": "desc",
    "equilibria.re_residual": "c xi_z",
    "equilibria.branch_c2v_2R2p": "x lambda_n=",
    "equilibria.branch_c2v_RRp2p": "x lambda_n= sign=",
    "equilibria.branch_c2v_RmRmp": "x",
    "equilibria.two_ring_phase_test": "c",
    "stability.BlockSpectrum.as_dict": "",
    "stability.StabilityReport.hessian_eigenvalues": "",
    "stability.StabilityReport.linearization_eigenvalues": "",
    "stability.StabilityReport.as_dict": "",
    "stability.StabilityReport.to_json": "",
    "stability.hessian_closed_form": "desc",
    "stability.slice_basis": "desc",
    "stability.slice_symplectic_form": "desc",
    "stability.deciding_scalars_rs": "desc",
    "stability.deciding_scalars_ab": "desc",
    "stability.analyze": "desc",
    "stability.analyze_many": "descs",
    "stability.decide_many": "descs",
    "stability.analyze_small": "config",
    "stability.analyze_small_many": "configs",
    "stability.full_linearization_oracle": "config",
    "stability.spectrum_match": "found expected",
    "stability.list_transitions": "family n_per_ring k_p grid_step= tol=",
    "stability.critical_latitude": "family n_per_ring k_p transition occurrence=",
    "stability.verdict_changes": "verdicts_at brackets tol",
}

# Every private name one module of the package imports from another, as
# ``(importer, layer._name)``.  A new entry is a layer reaching into
# another's internals.
PRIVATE_IMPORTS = {
    ("atlas", "core._family_named"),
    ("atlas", "equilibria._branch_stack"),
    ("atlas", "equilibria._rm_rmp_points"),
    ("atlas", "equilibria._rrp2p_point"),
    ("atlas", "stability._pick_transition"),
    ("atlas", "stability._small_reports"),
    ("dynamics", "core._pairwise_l2"),
    ("equilibria", "core._kept_rows"),
    ("stability", "core._family_named"),
    ("stability", "equilibria._rigid_rates"),
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
    for path in (ROOT / "src" / "vortex_atlas").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= {
                    (path.stem, f"{node.module}.{alias.name}")
                    for alias in node.names
                    if alias.name.startswith("_")
                }
    assert found == PRIVATE_IMPORTS
