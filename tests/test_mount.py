"""Compliant-mount tests: the exact propagator against closed forms and a
high-precision exp(A*dt), its energy ledger, stiff and coarse grids, and
the finite-input rules of the mount and signal specs."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import spoonarm
from spoonarm import JointState, MechanismParams
from spoonarm.cli import main
from spoonarm.dynamics import (
    ComplianceSpec,
    Scenario,
    SpasmImpulse,
    SpoonContact,
    _mount_rows,
    run_scenario,
    spoon_contact_response,
    step_dynamics,
)
from spoonarm.errors import NonFiniteStateError, TimestepTooCoarseError

# damping coefficients (N*m*s/rad) giving zeta = 1.6e-5, 0.19, 1 and 15.8
# on the default mount (k = 2 N*m/rad, I = 5e-4 kg*m^2)
DAMPINGS = [1e-6, 0.012, 0.0632, 1.0]


def wide(**kw):
    """A mount whose deflection limit never trips."""
    return ComplianceSpec(deflection_limit=1e300, **kw)


def exact_propagator(comp: ComplianceSpec, dt: float):
    """exp(A*dt), A = [[0, 1], [-k/I, -c/I]], by its Taylor series in
    60-digit decimals; entries as Decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        k, c, i, h = map(Decimal, (comp.stiffness, comp.damping,
                                   comp.inertia, dt))
        a = ((Decimal(0), h), (-k * h / i, -c * h / i))
        total = ((Decimal(1), Decimal(0)), (Decimal(0), Decimal(1)))
        term = total
        for n in range(1, 120):
            term = tuple(tuple(sum(term[r][m] * a[m][col] for m in range(2))
                               / n for col in range(2)) for r in range(2))
            total = tuple(tuple(total[r][col] + term[r][col]
                                for col in range(2)) for r in range(2))
        return total


@pytest.mark.parametrize("damping", DAMPINGS)
def test_rows_are_exact_propagator_steps(damping):
    # each row is the last one times exp(A*dt), to within rounding of the
    # two products it is made of
    comp, dt = wide(damping=damping), 1e-3
    phi = exact_propagator(comp, dt)
    rows = _mount_rows(comp, 0.003, 0.02 / comp.inertia, 2001, dt)
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        for (d, v, _), (d1, v1, _) in zip(rows.tolist(), rows[1:].tolist()):
            d, v = Decimal(d), Decimal(v)
            for (pd, pv), got in zip(phi, (d1, v1)):
                scale = abs(pd * d) + abs(pv * v)
                worst = max(worst, abs(Decimal(got) - (pd * d + pv * v))
                            / scale)
    assert worst <= Decimal("1e-15")


@pytest.mark.parametrize("damping", [1e-6, 0.012])
def test_rows_match_underdamped_solution(damping):
    # d(t) = v0/wd*exp(-zeta*wn*t)*sin(wd*t) after an impulse, error
    # measured against the decaying envelope
    comp, dt, n = wide(damping=damping), 1e-3, 5001
    v0 = 0.02 / comp.inertia
    rows = _mount_rows(comp, 0.0, v0, n, dt)
    t = np.arange(n) * dt
    wn = math.sqrt(comp.stiffness / comp.inertia)
    zeta = comp.damping_ratio
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    envelope = np.exp(-zeta * wn * t)
    d = v0 / wd * envelope * np.sin(wd * t)
    v = v0 * envelope * (np.cos(wd * t) - zeta * wn / wd * np.sin(wd * t))
    assert np.max(np.abs(rows[:, 0] - d) / (v0 / wd * envelope)) < 1e-12
    assert np.max(np.abs(rows[:, 1] - v) / (v0 * envelope)) < 1e-12


def test_rows_match_critically_damped_solution():
    # c*dt/2I equals omega_n*dt exactly, the r = 0 branch: d = t*exp(-t)
    comp = wide(stiffness=1.0, damping=2.0, inertia=1.0)
    rows = _mount_rows(comp, 0.0, 1.0, 41, 0.5)
    t = np.arange(41) * 0.5
    decay = np.exp(-t)
    scale = (1.0 + t) * decay
    assert np.max(np.abs(rows[:, 0] - t * decay) / scale) < 1e-14
    assert np.max(np.abs(rows[:, 1] - (1.0 - t) * decay) / scale) < 1e-14


@pytest.mark.parametrize("damping", DAMPINGS)
def test_mount_ledger_closes(damping):
    comp = wide(damping=damping)
    rows = _mount_rows(comp, 0.01, 0.02 / comp.inertia, 5001, 1e-3)
    d, v, e_diss = rows.T
    energy = 0.5 * comp.stiffness * d ** 2 + 0.5 * comp.inertia * v ** 2
    assert e_diss[0] == 0.0
    assert np.all(np.diff(e_diss) >= 0.0)
    assert np.max(np.abs(energy + e_diss - energy[0])) <= 1e-12 * energy[0]


@pytest.mark.parametrize("damping", [1.5, 50.0, 1000.0])
def test_stiffly_damped_contact_is_finite(damping):
    # c*dt/I = 3, 100 and 2000: outside RK4's stability region, but the
    # propagator is exact and the exponents of the fast mode never
    # overflow
    comp = ComplianceSpec(damping=damping)
    res = spoon_contact_response(comp, 0.02)
    assert math.isfinite(res.peak_torque)
    assert res.recentered
    rows = _mount_rows(comp, 0.0, 0.02 / comp.inertia, 5001, 1e-3)
    assert np.all(np.isfinite(rows))
    # overdamped: one rise to the peak, then a decay with no overshoot
    d = rows[1:, 0]
    peak = np.argmax(d)
    assert np.all(d > 0.0)
    assert np.all(np.diff(d[:peak + 1]) > 0.0)
    assert np.all(np.diff(d[peak:]) < 0.0)


def coarse_dt(comp: ComplianceSpec, factor: float) -> float:
    return factor * math.pi / math.sqrt(comp.stiffness / comp.inertia)


@pytest.mark.parametrize("factor, coarse", [(1.0 + 1e-9, True),
                                            (1.0 - 1e-9, False)])
def test_timestep_bound_on_every_mount_path(factor, coarse):
    p, comp = MechanismParams(), wide()
    dt = coarse_dt(comp, factor)
    largest = f"{coarse_dt(comp, 1.0):.6g} s"
    contact = Scenario(duration=10 * dt, timestep=dt,
                       initial=JointState(q=(0.0, 0.7, -0.2)),
                       spoon_contact=SpoonContact(time=2 * dt,
                                                  impulse_pitch=0.001))
    paths = [
        lambda: spoon_contact_response(comp, 0.001, dt=dt,
                                       duration=100 * dt),
        lambda: run_scenario(p, [], [], comp, contact),
        lambda: step_dynamics(p, [], [], comp, contact.initial, None, dt),
    ]
    for path in paths:
        if coarse:
            with pytest.raises(TimestepTooCoarseError,
                               match="reduce the timestep") as info:
                path()
            assert largest in str(info.value)
        else:
            path()


def test_timestep_bound_at_defaults_and_error_family():
    # pi/omega_n = 49.7 ms at the default mount
    assert coarse_dt(ComplianceSpec(), 1.0) == pytest.approx(0.04967, abs=1e-5)
    assert issubclass(TimestepTooCoarseError, NonFiniteStateError)
    assert spoonarm.TimestepTooCoarseError is TimestepTooCoarseError


def test_coarse_contact_grid_is_domain_error_in_cli(capsys):
    code = main(["contact", "--impulse", "0.001", "--dt", "0.05",
                 "--duration", "1.0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "reduce the timestep" in captured.err


def test_zero_impulse_on_coarse_grid_steps_no_mount():
    # an axis with no impulse is skipped, so only the arm's grid applies
    comp = wide()
    dt = coarse_dt(comp, 2.0)
    sc = Scenario(duration=10 * dt, timestep=dt,
                  initial=JointState(q=(0.0, 0.7, -0.2)),
                  spoon_contact=SpoonContact(time=2 * dt, impulse_pitch=0.0))
    res = run_scenario(MechanismParams(), [], [], comp, sc)
    assert not np.any(res.deflection)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("deflections", [(math.nan, 0.0, 0.0, 0.0),
                                         (0.0, 0.0, 0.0, math.nan),
                                         (math.inf, 0.0, 0.0, 0.0)])
def test_nonfinite_deflection_in_compliant_step_raises(deflections):
    with pytest.raises(NonFiniteStateError):
        step_dynamics(MechanismParams(), [], [], ComplianceSpec(),
                      JointState(q=(0.0, 0.7, -0.2)), None, 1e-3,
                      deflections=deflections)


def test_steps_from_a_contact_equal_the_rollout():
    # the mount rows of a rollout are the n = 2 steps of step_dynamics,
    # chained from the row the contact lands on, bit for bit
    p, comp, dt, k = MechanismParams(), ComplianceSpec(), 1e-3, 100
    sc = Scenario(duration=0.4, timestep=dt,
                  initial=JointState(q=(0.0, 0.7, -0.2)),
                  spoon_contact=SpoonContact(time=k * dt, impulse_pitch=0.01,
                                             impulse_yaw=-0.004))
    res = run_scenario(p, [], [], comp, sc)
    defl = tuple(res.deflection[k]) + tuple(res.deflection_rate[k])
    state = res.state(k)
    for j in range(k + 1, len(res)):
        state, defl = step_dynamics(p, [], [], comp, state, None, dt,
                                    t=(j - 1) * dt, deflections=defl)
        assert tuple(res.deflection[j]) + tuple(res.deflection_rate[j]) \
            == defl


@pytest.mark.parametrize("field", ["stiffness", "damping", "inertia"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_compliant_mount_needs_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        ComplianceSpec(**{field: value})


@pytest.mark.parametrize("field", ["force", "duration", "onset"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spasm_needs_finite_values(field, value):
    kw = {"force": 1.0, "duration": 0.1, "onset": 0.2, field: value}
    with pytest.raises(ValueError, match="finite"):
        SpasmImpulse(**kw)


@pytest.mark.parametrize("damping, peak", [(1.0, 40.0), (50.0, 2000.0)])
def test_peak_on_the_impulse_row_is_model_dependent(damping, peak):
    # the reaction on the impulse row is c * v0 with v0 = 0.02 / 5e-4, an
    # artifact of the ideal impulse that grows with c without bound
    res = spoon_contact_response(wide(damping=damping), 0.02)
    assert res.peak_torque == pytest.approx(peak, rel=1e-12)
    assert res.model_dependent


def test_later_peak_and_zero_impulse_are_not_model_dependent():
    later = spoon_contact_response(ComplianceSpec(), 0.02)
    assert later.peak_torque == 1.0430074916432155
    assert not later.model_dependent
    assert not spoon_contact_response(ComplianceSpec(), 0.0).model_dependent
