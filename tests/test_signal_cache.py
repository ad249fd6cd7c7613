"""Shared signal blocks: a rollout that reuses the stage forces of an
earlier one writes the same bytes as a cold rollout, specs that compare
equal but differ in the sign of a zero never share a block, the cache
stays within its memory bound, a noise tremor draws its tones once per
instance, and non-finite handle forces are named."""

import math

import numpy as np
import pytest

from spoonarm import JointState, MechanismParams
from spoonarm.config import scenario_data
from spoonarm.dynamics import (
    FORCE_BLOCK,
    ComplianceSpec,
    DamperModel,
    DamperSpec,
    NoiseTremor,
    Scenario,
    SimResult,
    SineTremor,
    SpasmImpulse,
    _signal_block,
    _signal_forces,
    _stage_times,
    run_scenario,
    step_dynamics,
)
from spoonarm.kinematics import Joint

from shipped import RIGID

EXAMPLE_START = JointState(q=(0.0, 0.7347863005736404, -1.4323283077414541))
DAMPERS = [DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4)]
DT = 1e-3

SIGNALS = {
    "sine": SineTremor(amplitude=0.5, frequency=7.0,
                       direction=(0.3, -0.0, 0.9)),
    "noise": NoiseTremor(rms=0.4, f_lo=2.0, f_hi=9.0, seed=11,
                         direction=(-0.0, 0.0, 1.0)),
    # the pulse edges fall on stage times next to the first block boundary
    "spasm": SpasmImpulse(force=0.8, duration=2e-3,
                          onset=(FORCE_BLOCK - 1) * DT,
                          direction=(1.0, -0.0, 1.0)),
}

# pairs of specs equal under == whose forces differ in the sign of a zero
SIGNED_ZEROS = {
    "sine_amplitude": (SineTremor(0.0, 2.0), SineTremor(-0.0, 2.0)),
    "noise_rms": (NoiseTremor(0.0, 2.0, 6.0, 3),
                  NoiseTremor(-0.0, 2.0, 6.0, 3)),
    "spasm_force": (SpasmImpulse(0.0, 0.05, 0.1),
                    SpasmImpulse(-0.0, 0.05, 0.1)),
    "direction": (SineTremor(0.5, 2.0, (0.0, 0.0, 1.0)),
                  SineTremor(0.5, 2.0, (0.0, -0.0, 1.0))),
}

FIELDS = ("t", "q", "qdot", "spoon_pos", "handle_pos", "deflection",
          "deflection_rate", "applied_torque", "e_kin", "e_pot", "e_diss")


@pytest.fixture(autouse=True)
def cold_caches():
    _signal_block.cache_clear()


def result_bytes(res: SimResult):
    """Every array of a result as bytes, so signed zeros count."""
    return tuple(getattr(res, name).tobytes() for name in FIELDS)


def rollout(inputs, n, compliance=RIGID):
    sc = Scenario(duration=(n - 1) * DT, timestep=DT, initial=EXAMPLE_START,
                  input=inputs)
    assert sc.steps == n
    return run_scenario(MechanismParams(), [], DAMPERS, compliance, sc)


def cold(inputs, n, compliance=RIGID):
    _signal_block.cache_clear()
    return result_bytes(rollout(inputs, n, compliance))


@pytest.mark.parametrize("spec", SIGNALS.values(), ids=SIGNALS.keys())
def test_warm_rollout_equals_cold(spec):
    # two full blocks and a partial last one, on the compliant mount too
    n = 2 * FORCE_BLOCK + 7
    for compliance in (RIGID, ComplianceSpec()):
        want = cold(spec, n, compliance)
        before = _signal_block.cache_info()
        assert result_bytes(rollout(spec, n, compliance)) == want
        after = _signal_block.cache_info()
        assert after.hits - before.hits == 3     # every block was shared
        assert after.misses == before.misses


@pytest.mark.parametrize("spec", SIGNALS.values(), ids=SIGNALS.keys())
@pytest.mark.parametrize("grids", [(129, 257), (256, 257)],
                         ids=["129_257", "256_257"])
def test_one_spec_on_two_grids_equals_cold_runs(spec, grids):
    # 256 and 257 rows both have a block of rows 128..255, but only the
    # 256-row grid drops its last row's two later stage times
    want = [cold(spec, n) for n in grids]
    _signal_block.cache_clear()
    for _ in range(2):
        assert [result_bytes(rollout(spec, n)) for n in grids] == want


@pytest.mark.parametrize("pair", SIGNED_ZEROS.values(),
                         ids=SIGNED_ZEROS.keys())
def test_signed_zero_specs_do_not_share_blocks(pair):
    plus, minus = pair
    assert plus == minus and hash(plus) == hash(minus)
    n = FORCE_BLOCK + 10
    want = [cold(spec, n) for spec in pair]
    _signal_block.cache_clear()
    got = [result_bytes(rollout(spec, n)) for spec in pair]
    assert got == want
    assert _signal_block.cache_info().currsize == 4    # two blocks each
    blocks = [_signal_block(repr(spec), spec, 0, FORCE_BLOCK, n, DT)
              for spec in pair]
    assert np.array_equal(blocks[0], blocks[1])
    assert not np.array_equal(np.signbit(blocks[0]), np.signbit(blocks[1]))


def test_noise_sign_of_zero_does_not_depend_on_call_order():
    # an rms of -0.0 gives forces of signed zeros; a cache that took it
    # for 0.0 reused the blocks of an earlier 0.0 run
    minus = Scenario(duration=0.2, initial=EXAMPLE_START,
                     input=NoiseTremor(-0.0, 2.0, 6.0, 3))
    plus = Scenario(duration=0.2, initial=EXAMPLE_START,
                    input=NoiseTremor(0.0, 2.0, 6.0, 3))
    p, comp = MechanismParams(), ComplianceSpec()
    first = run_scenario(p, [], [], comp, minus)
    _signal_block.cache_clear()
    run_scenario(p, [], [], comp, plus)
    second = run_scenario(p, [], [], comp, minus)
    assert result_bytes(second) == result_bytes(first)
    assert np.signbit(first.applied_torque).any()


def test_noise_tones_are_drawn_once_per_instance_and_are_no_field():
    spec = SIGNALS["noise"]
    omega, phases = spec.tones
    assert all(a is b for a, b in zip(spec.tones, (omega, phases)))
    assert not omega.flags.writeable and not phases.flags.writeable
    assert omega.shape == phases.shape == (64,)
    assert (omega[0], omega[-1]) == (2.0 * math.pi * 2.0, 2.0 * math.pi * 9.0)
    # an equal spec draws equal tones of its own; another seed, others
    twin = NoiseTremor(rms=0.4, f_lo=2.0, f_hi=9.0, seed=11,
                       direction=(-0.0, 0.0, 1.0))
    assert "tones" not in vars(twin)
    assert all(a is not b and np.array_equal(a, b)
               for a, b in zip(twin.tones, spec.tones))
    reseeded = NoiseTremor(rms=0.4, f_lo=2.0, f_hi=9.0, seed=12)
    assert not np.array_equal(reseeded.tones[1], phases)
    # tones once read change neither repr, ==, hash nor the saved scenario
    fresh = NoiseTremor(rms=0.4, f_lo=2.0, f_hi=9.0, seed=12)
    assert "tones" in vars(reseeded) and "tones" not in vars(fresh)
    assert repr(reseeded) == repr(fresh)
    assert reseeded == fresh and hash(reseeded) == hash(fresh)
    assert (scenario_data(Scenario(duration=0.1, input=reseeded))
            == scenario_data(Scenario(duration=0.1, input=fresh)))


def test_cached_block_is_read_only():
    spec = SIGNALS["sine"]
    block = _signal_block(repr(spec), spec, 0, FORCE_BLOCK, 300, DT)
    assert np.array_equal(
        block, _signal_forces(spec, _stage_times(0, FORCE_BLOCK, 300, DT)))
    assert not block.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 1.0
    # a rollout's own arrays stay writable
    res = rollout(spec, 300)
    assert res.applied_torque.flags.writeable


def test_cache_memory_is_bounded():
    spec = SIGNALS["noise"]
    full = _signal_block(repr(spec), spec, 0, FORCE_BLOCK, 300, DT)
    assert full.nbytes == 3 * FORCE_BLOCK * 3 * 8
    maxsize = _signal_block.cache_info().maxsize
    assert maxsize is not None and maxsize * full.nbytes <= 1.2e6
    # the damper sweep's eight signals of eight blocks each fit at once
    assert maxsize >= 64


def test_callable_called_once_per_stage_time_on_every_run():
    n = FORCE_BLOCK + 10
    want = []
    for k in range(n - 1):
        tk = k * DT
        want += [tk, tk + 0.5 * DT, tk + DT]
    want.append((n - 1) * DT)   # the last row's applied torque
    for _ in range(2):
        calls = []

        def force(t):
            calls.append(t)
            return (0.2 * math.sin(3.0 * t), -0.1, 0.3)

        rollout(force, n)
        assert calls == want
    assert _signal_block.cache_info().currsize == 0


def test_callable_may_return_one_array_it_updates_in_place():
    class Controller:
        def __init__(self):
            self.f = np.zeros(3)

        def __call__(self, t):
            self.f[:] = (0.2 * math.sin(3.0 * t), -0.1, 0.3 * t)
            return self.f

    n = FORCE_BLOCK + 10
    fresh = rollout(lambda t: (0.2 * math.sin(3.0 * t), -0.1, 0.3 * t), n)
    assert result_bytes(rollout(Controller(), n)) == result_bytes(fresh)


@pytest.mark.parametrize("force", [(math.nan, 0.0, 0.0), (0.0, 0.0, math.inf)],
                         ids=["nan", "inf"])
def test_non_finite_constant_force_is_named(force):
    sc = Scenario(duration=0.01, initial=EXAMPLE_START, input=force)
    named = "constant input force must be finite"
    with pytest.raises(ValueError, match=named):
        run_scenario(MechanismParams(), [], [], RIGID, sc)
    with pytest.raises(ValueError, match=named):
        step_dynamics(MechanismParams(), [], [], RIGID, EXAMPLE_START, force,
                      DT)


def test_non_finite_callable_force_names_its_first_time():
    def force(t):
        return (0.0, 0.0, math.nan if t >= 0.0025 else 0.1)

    sc = Scenario(duration=0.01, initial=EXAMPLE_START, input=force)
    with pytest.raises(ValueError,
                       match=r"input force must be finite.* t = 0\.002500 s"):
        run_scenario(MechanismParams(), [], [], RIGID, sc)
    with pytest.raises(ValueError, match=r"t = 0\.000000 s"):
        step_dynamics(MechanismParams(), [], [], RIGID, EXAMPLE_START,
                      lambda t: (0.0, 0.0, math.nan), DT)
