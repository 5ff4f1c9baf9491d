"""The two kernels ported from SciPy against SciPy itself, bit for bit.

``dynamics.integrate`` steps its own DOP853 and ``equilibria._brentq`` is
SciPy's ``brentq.c`` in Python; SciPy stays a test dependency so that both
can be held to the float SciPy returns.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import _sample_pm_configuration
from vortex_atlas import dynamics, equilibria
from vortex_atlas.core import COLLISION_EPS, Configuration, _pairwise_l2
from vortex_atlas.dynamics import SolverStats, integrate

GOLDEN = Path(__file__).parent / "golden"


def test_the_dop853_table_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as table

    n = table.N_STAGES
    assert dynamics._DOP_A.shape == (n + 1, n)
    assert dynamics._DOP_A[:n].tobytes() == table.A[:n, :n].tobytes()
    assert dynamics._DOP_A[n].tobytes() == table.B.tobytes()
    assert dynamics._DOP_E3.tobytes() == table.E3[:n].tobytes()
    assert dynamics._DOP_E5.tobytes() == table.E5[:n].tobytes()
    # the stage SciPy adds after the 12 of the table, the field at the new
    # state, has no weight in B (of length 12) or either error estimate
    assert table.E3.shape == table.E5.shape == (n + 1,)
    assert table.E3[n] == table.E5[n] == 0.0


def _scipy_reference(c0: Configuration, t_end: float, tol: float):
    """The integration loop as it drove SciPy's DOP853: one solver step, then
    renormalization onto the sphere and a fresh field at the new state.  The
    stats count the calls less SciPy's zero-weight 13th stage, one per attempt,
    which ``integrate`` does not evaluate."""
    from scipy.integrate import DOP853

    lam, m = c0.strengths, len(c0)
    pairs = dynamics._pair_constants(lam)
    calls = 0

    def rhs(_t, flat):
        nonlocal calls
        calls += 1
        return dynamics._field(flat.reshape(m, 3), pairs).reshape(-1)

    y = c0.positions
    h0, phi0 = dynamics._energy(_pairwise_l2(y)[pairs.iu], pairs), lam @ y
    times, positions, energies, h_drift, phi_drift = [0.0], [y], [h0], [0.0], [0.0]
    rejected = 0
    solver = DOP853(rhs, 0.0, y.reshape(-1), t_end, rtol=1e-3 * tol, atol=1e-3 * tol)
    while solver.status == "running":
        before = calls
        solver.step()
        assert solver.status != "failed"
        rejected += (calls - before) // solver.n_stages - 1
        y = solver.y.reshape(m, 3)
        y = y / np.linalg.norm(y, axis=1, keepdims=True)
        pair_l2 = _pairwise_l2(y)[pairs.iu]
        assert math.sqrt(pair_l2.min()) >= dynamics.NEAR_COLLISION_FACTOR * COLLISION_EPS
        solver.y = y.reshape(-1)
        solver.f = rhs(solver.t, solver.y)
        h = dynamics._energy(pair_l2, pairs)
        times.append(float(solver.t))
        positions.append(y)
        energies.append(h)
        h_drift.append(abs(h - h0))
        phi_drift.append(float(np.max(np.abs(lam @ y - phi0))))
    accepted = len(times) - 1
    stats = SolverStats(calls - accepted - rejected, accepted, rejected, float(np.diff(times).min()))
    return times, np.array(positions), energies, h_drift, phi_drift, stats


def _configurations():
    for name, t_end in (("random_m6", 1.0), ("pole_pair_m6", 1.5), ("rotating_rings_m6", 1.0)):
        yield name, Configuration.from_json((GOLDEN / f"{name}.json").read_text()), t_end
    rng = np.random.default_rng(20)
    for n_pairs, t_end in ((3, 1.0), (6, 0.5), (12, 0.25)):
        yield f"draw_m{2 * n_pairs}", _sample_pm_configuration(rng, n_pairs, min_chord=0.3), t_end


_CASES = [(*case, tol) for case in _configurations() for tol in (1e-6, 1e-10)]


@pytest.mark.parametrize("name,c0,t_end,tol", _CASES, ids=[f"{c[0]}-{c[3]:g}" for c in _CASES])
def test_the_stepper_repeats_scipys_dop853_bit_for_bit(name, c0, t_end, tol):
    traj = integrate(c0, t_end, tol=tol)
    times, positions, energies, h_drift, phi_drift, stats = _scipy_reference(c0, t_end, tol)
    assert traj.stats == stats
    assert stats.accepted_steps >= 10
    assert np.array(traj.times).tobytes() == np.array(times).tobytes()
    assert traj.positions.tobytes() == positions.tobytes()
    for got, want in ((traj.energies, energies), (traj.h_drift, h_drift), (traj.phi_drift, phi_drift)):
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_the_zero_finder_returns_brentqs_float_on_every_meridian_bracket(monkeypatch):
    """Every bracket the meridian scan polishes, at the diagram's 482 x values
    and on a 4,001-point grid over (-0.999, 0.999)."""
    from scipy.optimize import brentq

    port, brackets = equilibria._brentq, []

    def both(f, a, b, xtol, rtol):
        got = port(f, a, b, xtol=xtol, rtol=rtol)
        assert got == brentq(f, a, b, xtol=xtol, rtol=rtol), (a, b)
        brackets.append(got)
        return got

    monkeypatch.setattr(equilibria, "_brentq", both)
    xs = np.concatenate([np.linspace(-0.98, 1.0 / math.sqrt(2.0) - 1e-4, 482), np.linspace(-0.999, 0.999, 4001)])
    for x in xs.tolist():
        equilibria.branch_c2v_RmRmp_all(x)
    assert len(brackets) == 4540


def test_the_zero_finder_stops_where_brentq_does():
    """brentq needs 7 iterations for cos(x) = x on [0, 1.5]; with fewer both
    raise RuntimeError, and a bracket without a sign change is a ValueError."""
    from scipy.optimize import brentq

    def f(x):
        return math.cos(x) - x

    tols = dict(xtol=1e-15, rtol=4 * np.finfo(float).eps)
    for maxiter in (0, 1, 6):
        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 1.5, maxiter=maxiter, **tols)
        with pytest.raises(RuntimeError, match=f"did not converge in {maxiter} iterations"):
            equilibria._brentq(f, 0.0, 1.5, maxiter=maxiter, **tols)
    for maxiter in (7, 100):
        assert equilibria._brentq(f, 0.0, 1.5, maxiter=maxiter, **tols) == brentq(f, 0.0, 1.5, maxiter=maxiter, **tols)
    with pytest.raises(ValueError, match="different signs"):
        equilibria._brentq(f, 0.0, 0.5, **tols)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x - 0.5, 0.5, 1.0),  # a root at the lower end
        (lambda x: x - 0.5, 0.0, 0.5),  # a root at the upper end
        # equal |f| at every step leaves no short step: bisection throughout
        (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),
    ],
)
def test_the_zero_finder_returns_brentqs_float_on_exact_ends_and_steps(f, a, b):
    from scipy.optimize import brentq

    tols = dict(xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert equilibria._brentq(f, a, b, **tols) == brentq(f, a, b, **tols)
