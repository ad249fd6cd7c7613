import math
from decimal import Decimal

import numpy as np
import pytest

from spoonarm.cli import main
from spoonarm.dynamics import (DamperModel, DamperSpec, damper_law,
                               damper_sum, damper_torque)
from spoonarm.errors import InfeasibleBoundsError
from spoonarm.kinematics import Joint, JointState, MechanismParams
from spoonarm.statics import (
    SpringKind,
    SpringSpec,
    TorqueProfile,
    gravity_coefficients,
    gravity_potential,
    gravity_torque,
    holding_force,
    residual_torque_profile,
    spring_joint_torques,
    spring_laws,
    spring_potential,
    spring_sum,
    spring_torque,
    synthesize_balancing,
)
from spoonarm.serialize import write_balance_csv

from shipped import NOMINAL, SHIPPED

# gravity torque amplitudes g*A2, g*A3 for the nominal build
G2 = 1.4101875
G3 = 0.613125

# stiffness fits on the range [-20 deg, 80 deg] with anchors a=0.10,
# b=0.05 and l0=5 mm, frozen from an independent grid-minimax evaluation
REAL_K2 = 298.1120030233336
REAL_RESID2 = 0.020020599776831793
TORSION_K2 = 0.6189469963364849
TORSION_RESID2 = 0.2196234664055936
TORSION_NEUTRAL = 2.1467314686341252
REAL_K3 = 129.61391435797117
REAL_RESID3 = 0.008704608598622432
TORSION_K3 = 0.2691073896845869
TORSION_RESID3 = 0.09548846366525851

COMPARISON_RANGE = (math.radians(-20.0), math.radians(80.0))


def params_on_comparison_range():
    return MechanismParams(joint_limits=((-math.pi, math.pi),
                                         COMPARISON_RANGE,
                                         COMPARISON_RANGE))


def ideal_spring(joint, coeff, a=0.10, b=0.05):
    return SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, joint,
                      coeff / (a * b), a, b)


# ---------------------------------------------------------------------------
# gravity


def test_gravity_torque_vertical_link():
    tau2, _ = gravity_torque(MechanismParams(),
                             JointState(q=(0.0, math.pi / 2, 0.0)))
    assert abs(tau2) < 1e-12


def test_gravity_torque_horizontal_is_full_amplitude():
    tau2, tau3 = gravity_torque(MechanismParams(), JointState())
    assert tau2 == pytest.approx(-G2, rel=1e-12)
    assert tau3 == pytest.approx(-G3, rel=1e-12)


def test_gravity_torque_linear_in_mass():
    p = MechanismParams()
    doubled = MechanismParams(mass_link1=2 * p.mass_link1,
                              mass_link2=2 * p.mass_link2,
                              mass_payload=2 * p.mass_payload)
    s = JointState(q=(0.0, 0.37, -0.81))
    np.testing.assert_allclose(gravity_torque(doubled, s),
                               2 * np.asarray(gravity_torque(p, s)),
                               rtol=1e-12)


def test_gravity_torque_is_negative_potential_gradient():
    p = MechanismParams()
    h = 1e-6
    for q in [(0.0, 0.3, -0.9), (0.5, 1.2, 0.4), (-1.0, -0.2, 1.1)]:
        tau = gravity_torque(p, JointState(q=q))
        for joint, expected in ((1, tau[0]), (2, tau[1])):
            qp, qm = list(q), list(q)
            qp[joint] += h
            qm[joint] -= h
            fd = -(gravity_potential(p, JointState(q=tuple(qp)))
                   - gravity_potential(p, JointState(q=tuple(qm)))) / (2 * h)
            assert fd == pytest.approx(expected, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# spring models


@pytest.mark.parametrize("spec", [
    SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2, 0.0, 0.1, 0.05),
    SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 0.0, 0.1, 0.05,
               free_length=0.02),
    SpringSpec(SpringKind.TORSION, Joint.J3, 0.0, torsion_neutral=0.3),
])
def test_zero_stiffness_gives_zero_torque(spec):
    for angle in np.linspace(-1.5, 1.5, 11):
        assert spring_torque(spec, float(angle)) == 0.0


def test_zero_free_length_spring_vanishes_at_vertical_bar():
    spec = SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2,
                      200.0, 0.1, 0.05)
    assert abs(spring_torque(spec, math.pi / 2)) < 1e-12


def test_real_spring_with_zero_free_length_matches_ideal():
    a, b, k = 0.1, 0.05, 240.0
    ideal = SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2, k, a, b)
    real = SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, k, a, b,
                      free_length=0.0)
    for angle in np.linspace(*COMPARISON_RANGE, 181):
        assert spring_torque(real, float(angle)) == pytest.approx(
            spring_torque(ideal, float(angle)), abs=1e-12)


# a = b puts the anchor on the attachment at a vertical bar (length 0);
# this near-equal pair rounds a^2 + b^2 - 2ab to -1.7e-18 there, which
# the length clamps to 0
NEAR_EQUAL = (0.08079917387670907, 0.08079917387670908)


@pytest.mark.parametrize("spec", [
    SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2, 282.0, 0.1, 0.05),
    SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 298.0, 0.1, 0.05,
               free_length=0.005),
    SpringSpec(SpringKind.TORSION, Joint.J3, 0.62, torsion_neutral=2.1),
    SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2, 282.0, 0.05,
               0.05),
    SpringSpec(SpringKind.LINEAR_REAL, Joint.J3, 298.0, 0.05, 0.05,
               free_length=0.005),
    SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2, 282.0,
               *NEAR_EQUAL),
    SpringSpec(SpringKind.LINEAR_REAL, Joint.J3, 298.0, *NEAR_EQUAL,
               free_length=0.005),
])
def test_spring_potential_column_equals_rows(spec):
    # the rollout record evaluates each spring's potential on its whole
    # angle column in one numpy pass; it must equal spring_potential per row
    # (the sines come from math.sin, as spring_potential's do)
    angles = np.append(np.linspace(-2.0, 2.5, 901), math.pi / 2)
    sines = np.array([math.sin(a) for a in angles.tolist()])
    _, potential = spring_laws(spec)
    column = potential(angles, sines, np.sqrt, np.maximum)
    rows = np.array([spring_potential(spec, a) for a in angles.tolist()])
    assert column.tobytes() == rows.tobytes()
    k, l0 = spec.stiffness, spec.free_length
    if spec.anchor_radius and abs(spec.anchor_radius - spec.bar_radius) < 1e-9:
        # length 0 at the vertical bar, so the stretch is -l0
        assert rows[-1] == 0.5 * k * l0 * l0


@pytest.mark.parametrize("spec", [
    SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2, 282.0, 0.1, 0.05),
    SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 298.0, 0.1, 0.05,
               free_length=0.005),
    SpringSpec(SpringKind.TORSION, Joint.J3, 0.62, torsion_neutral=2.1),
])
def test_spring_torque_is_negative_potential_gradient(spec):
    h = 1e-6
    for angle in np.linspace(-1.3, 1.3, 9):
        angle = float(angle)
        fd = -(spring_potential(spec, angle + h)
               - spring_potential(spec, angle - h)) / (2 * h)
        assert fd == pytest.approx(spring_torque(spec, angle),
                                   rel=1e-6, abs=1e-9)


def test_spring_spec_validation():
    with pytest.raises(ValueError):
        SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J1,
                   100.0, 0.1, 0.05)
    with pytest.raises(ValueError):
        SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2,
                   -1.0, 0.1, 0.05)
    with pytest.raises(ValueError):
        SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 100.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 100.0, 0.1, 0.05,
                   free_length=-0.01)


def test_torque_profile_requires_increasing_angles():
    with pytest.raises(ValueError):
        TorqueProfile(Joint.J2, np.array([0.0, 0.0, 0.1]), np.zeros(3),
                      np.zeros(3))


# ---------------------------------------------------------------------------
# synthesis


def test_ideal_synthesis_closed_form_and_residual():
    res = synthesize_balancing(MechanismParams(),
                               SpringKind.LINEAR_ZERO_FREE_LENGTH)
    assert res.spring_j2.stiffness == pytest.approx(G2 / 0.005, rel=1e-12)
    assert res.spring_j3.stiffness == pytest.approx(G3 / 0.005, rel=1e-12)
    assert res.max_residual < 1e-9


def test_real_synthesis_matches_frozen_fit():
    res = synthesize_balancing(params_on_comparison_range(),
                               SpringKind.LINEAR_REAL)
    assert res.spring_j2.stiffness == pytest.approx(REAL_K2, abs=1e-4)
    assert res.spring_j3.stiffness == pytest.approx(REAL_K3, abs=1e-4)
    assert res.residual_j2.max_abs == pytest.approx(REAL_RESID2, abs=1e-6)
    assert res.residual_j3.max_abs == pytest.approx(REAL_RESID3, abs=1e-6)


def test_torsion_synthesis_matches_frozen_fit():
    res = synthesize_balancing(params_on_comparison_range(),
                               SpringKind.TORSION)
    assert res.spring_j2.stiffness == pytest.approx(TORSION_K2, abs=1e-4)
    assert res.spring_j3.stiffness == pytest.approx(TORSION_K3, abs=1e-4)
    assert res.residual_j2.max_abs == pytest.approx(TORSION_RESID2, abs=1e-6)
    assert res.residual_j3.max_abs == pytest.approx(TORSION_RESID3, abs=1e-6)
    assert res.spring_j2.torsion_neutral == pytest.approx(TORSION_NEUTRAL,
                                                          abs=1e-5)


def test_quality_ordering_on_comparison_range():
    p = params_on_comparison_range()
    ideal = synthesize_balancing(p, SpringKind.LINEAR_ZERO_FREE_LENGTH)
    real = synthesize_balancing(p, SpringKind.LINEAR_REAL)
    torsion = synthesize_balancing(p, SpringKind.TORSION)
    for j in ("residual_j2", "residual_j3"):
        assert (getattr(ideal, j).max_abs
                <= getattr(real, j).max_abs
                <= getattr(torsion, j).max_abs)


def test_massless_synthesis_gives_zero_stiffness():
    p = MechanismParams(mass_link1=0.0, mass_link2=0.0, mass_payload=0.0)
    res = synthesize_balancing(p, SpringKind.LINEAR_ZERO_FREE_LENGTH)
    assert res.spring_j2.stiffness == 0.0
    assert res.spring_j3.stiffness == 0.0
    assert res.max_residual == 0.0


def test_infeasible_bounds():
    degenerate = MechanismParams(joint_limits=((-1.0, 1.0), (0.5, 0.5),
                                               (-1.0, 1.0)))
    with pytest.raises(InfeasibleBoundsError):
        synthesize_balancing(degenerate, SpringKind.LINEAR_ZERO_FREE_LENGTH)


# ---------------------------------------------------------------------------
# residual profiles and holding force


def test_profile_without_springs_is_gravity():
    p = MechanismParams()
    prof2, prof3 = residual_torque_profile(p, [])
    a2, a3 = gravity_coefficients(p)
    np.testing.assert_array_equal(prof2.torques,
                                  -p.gravity * a2 * np.cos(prof2.angles))
    np.testing.assert_array_equal(prof3.torques,
                                  -p.gravity * a3 * np.cos(prof3.angles))


def test_superposition_is_exact():
    p = MechanismParams()
    s2 = ideal_spring(Joint.J2, G2)
    none2, _ = residual_torque_profile(p, [])
    one2, _ = residual_torque_profile(p, [s2])
    two2, _ = residual_torque_profile(p, [s2, s2])
    np.testing.assert_array_equal(two2.torques - none2.torques,
                                  2.0 * (one2.torques - none2.torques))


def test_balanced_profile_is_flat_zero():
    p = MechanismParams()
    springs = synthesize_balancing(p, SpringKind.LINEAR_ZERO_FREE_LENGTH).springs
    prof2, prof3 = residual_torque_profile(p, springs)
    assert prof2.max_abs < 1e-9
    assert prof3.max_abs < 1e-9


def test_holding_force_vanishes_when_balanced():
    p = MechanismParams()
    springs = synthesize_balancing(p, SpringKind.LINEAR_ZERO_FREE_LENGTH).springs
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = tuple(lo + (hi - lo) * rng.uniform()
                  for lo, hi in p.joint_limits)
        f = holding_force(p, springs, JointState(q=q))
        assert np.linalg.norm(f) < 1e-6


def test_holding_force_supports_weight_without_springs():
    # without springs the vertical force component must carry the torque
    # residual; check it against the analytic gravity torques
    p = MechanismParams()
    s = JointState(q=(0.0, 0.4, -0.7))
    f = holding_force(p, [], s)
    from spoonarm.kinematics import handle_jacobian
    tau = handle_jacobian(p, s).T @ f
    tau_g = gravity_torque(p, s)
    np.testing.assert_allclose(tau, [0.0, -tau_g[0], -tau_g[1]], atol=1e-9)


def test_spring_joint_torques_routing():
    s2 = ideal_spring(Joint.J2, G2)
    s3 = ideal_spring(Joint.J3, G3)
    state = JointState(q=(0.3, 0.2, -0.5))
    t = spring_joint_torques([s2, s3], state)
    assert t[0] == 0.0
    assert t[1] == pytest.approx(spring_torque(s2, 0.2), abs=1e-15)
    assert t[2] == pytest.approx(spring_torque(s3, -0.5), abs=1e-15)


SHIPPED_POSE = JointState(q=(0.0, 0.7, -0.5))


def test_spring_joint_torques_read_springs_from_an_iterator():
    springs = SHIPPED.springs
    got = spring_joint_torques(springs, SHIPPED_POSE)
    assert got[1] != 0.0 and got[2] != 0.0
    from_iterator = spring_joint_torques(iter(springs), SHIPPED_POSE)
    assert (bits(from_iterator) == bits(got)).all()


def test_residual_torque_profile_reads_springs_from_an_iterator():
    p, springs = NOMINAL, SHIPPED.springs
    got = residual_torque_profile(p, springs)
    for profile, from_iterator in zip(got, residual_torque_profile(
            p, iter(springs))):
        assert profile.joint == from_iterator.joint
        # an iterator read without a copy once left J3 with no spring
        assert (profile.spring != 0.0).all()
        for column in ("angles", "gravity", "spring", "torques"):
            assert (bits(getattr(profile, column))
                    == bits(getattr(from_iterator, column))).all()


def test_holding_force_reads_springs_from_an_iterator():
    p, springs = NOMINAL, SHIPPED.springs
    got = holding_force(p, springs, SHIPPED_POSE)
    from_iterator = holding_force(p, iter(springs), SHIPPED_POSE)
    assert (bits(from_iterator) == bits(got)).all()


# ---------------------------------------------------------------------------
# one spring sum, on floats and on arrays


SUM_SPRINGS = {
    "ideal": SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2, 282.0,
                        0.10, 0.05),
    "real": SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 298.1, 0.10, 0.05,
                       free_length=0.005),
    # a == b: anchor and attachment coincide with the bar vertical
    "real_a_eq_b": SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 150.0, 0.07,
                              0.07, free_length=0.005),
    "torsion": SpringSpec(SpringKind.TORSION, Joint.J2, 0.62,
                          torsion_neutral=2.1467314686341252),
}


def sum_grid():
    """A joint-range grid plus the vertical bar and its float neighbours."""
    up = math.pi / 2
    near = [up, np.nextafter(up, 0.0), np.nextafter(up, 4.0),
            up - 1e-9, up + 1e-9, up - 1e-6, up + 1e-6]
    return np.sort(np.concatenate([np.linspace(-1.75, 2.0, 181), near]))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("springs", [
    *([spec] for spec in SUM_SPRINGS.values()),
    list(SUM_SPRINGS.values()),     # several springs on one joint
    [],                             # none
], ids=[*SUM_SPRINGS, "all_four", "none"])
def test_spring_sum_on_arrays_equals_the_float_law_bit_for_bit(springs):
    grid = sum_grid()
    c, s = np.cos(grid), np.sin(grid)
    torque = spring_sum(springs, Joint.J2)
    column = torque(grid, c, s, np.sqrt, np.maximum)
    floats = [torque(t, ct, st)
              for t, ct, st in zip(grid.tolist(), c.tolist(), s.tolist())]
    assert column.shape == grid.shape
    np.testing.assert_array_equal(bits(column), bits(floats))
    if not springs:
        assert not np.signbit(column).any() and not column.any()


def test_real_spring_law_keeps_its_floats_and_zero_at_coincidence():
    spec = SUM_SPRINGS["real_a_eq_b"]
    k, a, b, l0 = spec.stiffness, spec.anchor_radius, spec.bar_radius, \
        spec.free_length
    torque, _ = spring_laws(spec)
    checked = 0
    for t in sum_grid().tolist():
        c, s = math.cos(t), math.sin(t)
        l = math.sqrt(max(a * a + b * b - 2.0 * a * b * s, 0.0))
        got = torque(t, c, s)
        if l < 1e-12:
            assert got == 0.0
        else:
            # the law as written for floats alone, before arrays
            assert bits([got]) == bits([k * (l - l0) * (a * b) * c / l])
            checked += 1
    assert checked > 181


def test_spring_sum_routes_by_joint_and_adds_in_order():
    s2 = SUM_SPRINGS["ideal"]
    s3 = SpringSpec(SpringKind.TORSION, Joint.J3, 0.3, torsion_neutral=0.4)
    torsion2 = SUM_SPRINGS["torsion"]
    t = 0.3
    c, s = math.cos(t), math.sin(t)
    both = spring_sum([s2, s3, torsion2], Joint.J2)(t, c, s)
    assert both == (0.0 + spring_torque(s2, t)) + spring_torque(torsion2, t)
    assert spring_sum([s2, s3], Joint.J3)(t, c, s) == spring_torque(s3, t)


def test_damper_sum_routes_by_joint_skips_idle_dampers_and_adds_in_order():
    j1 = DamperSpec(Joint.J1, DamperModel.VISCOUS, 0.2)
    dead = DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, 0.3, 0.05)
    visc = DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.1)
    stiff = DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.25)
    idle = (DamperSpec(Joint.J3, DamperModel.NONE),
            DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.0),
            DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, 0.0, 0.1))
    w = 1.1
    a, b, c = (damper_torque(spec, w) for spec in (dead, visc, stiff))
    three = damper_sum([j1, dead, *idle, visc, stiff], Joint.J3)(w)
    # at this rate the float sum depends on the order of its terms
    assert three == ((0.0 + a) + b) + c != ((0.0 + c) + b) + a
    assert damper_sum([j1, dead, visc], Joint.J1)(w) == damper_torque(j1, w)
    # one acting damper's sum is its own law, not a wrapper around it
    assert (damper_sum([*idle, dead], Joint.J3).closure().__code__
            is damper_law(dead).closure().__code__)
    # a zero-coefficient viscous law gives -0.0 at w > 0; skipped, it adds
    # nothing, and no acting damper gives +0.0
    for dampers in ((), (j1,), idle):
        tau = damper_sum(dampers, Joint.J3)(w)
        assert tau == 0.0 and math.copysign(1.0, tau) == 1.0


def read_balance_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "angle_rad,tau_gravity,tau_spring,tau_residual"
    return [tuple(map(float, line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("kind", list(SpringKind))
def test_balance_csv_columns_match_the_reference_helpers(tmp_path, kind):
    p = MechanismParams()
    result = synthesize_balancing(p, kind)
    profiles = (result.residual_j2, result.residual_j3)
    path = tmp_path / "balance.csv"
    write_balance_csv(profiles, path)
    rows = read_balance_csv(path)
    assert len(rows) == sum(len(profile.angles) for profile in profiles)
    i = 0
    for profile in profiles:
        j = profile.joint
        for angle, residual in zip(profile.angles.tolist(),
                                   profile.torques.tolist()):
            q = [0.0, 0.0, 0.0]
            q[j] = angle
            state = JointState(q=tuple(q))
            got_angle, tau_g, tau_s, tau_r = rows[i]
            assert got_angle == angle
            # numpy's and the C library's cosine may differ in the last bit
            # on some builds, hence the few-ulp tolerance
            assert tau_g == pytest.approx(gravity_torque(p, state)[j - 1],
                                          rel=1e-14, abs=1e-15)
            assert tau_s == pytest.approx(
                spring_joint_torques(result.springs, state)[j],
                rel=1e-13, abs=1e-15)
            assert tau_r == residual
            i += 1


def test_balance_csv_joint_without_springs_has_a_zero_column(tmp_path):
    p = MechanismParams()
    only_j2 = (ideal_spring(Joint.J2, G2),)
    profiles = residual_torque_profile(p, only_j2)
    path = tmp_path / "balance.csv"
    write_balance_csv(profiles, path)
    rows = read_balance_csv(path)
    j3_rows = rows[len(profiles[0].angles):]
    assert len(j3_rows) == len(profiles[1].angles)
    assert all(r[2] == 0.0 and math.copysign(1.0, r[2]) == 1.0
               for r in j3_rows)
    np.testing.assert_array_equal([r[3] for r in j3_rows],
                                  [r[1] for r in j3_rows])
    # given no spring beside the ideal fit's residuals, the writer once
    # wrote a zero spring column and rows 1.41 N*m off
    table = np.array(rows)
    assert (bits(table[:, 3]) == bits(table[:, 1] + table[:, 2])).all()


@pytest.mark.parametrize("kind, name", [
    (SpringKind.LINEAR_ZERO_FREE_LENGTH, "ideal"),
    (SpringKind.LINEAR_REAL, "real"),
    (SpringKind.TORSION, "torsion"),
], ids=["ideal", "real", "torsion"])
def test_balance_table_is_the_cli_table_and_adds_up(tmp_path, capsys, kind,
                                                    name):
    # the writer once summed its own spring column from a separate spring
    # set, so the shipped springs beside the real fit's residuals gave rows
    # whose residual was 0.020 N*m off their gravity plus spring
    p = NOMINAL
    springs = synthesize_balancing(p, kind).springs
    path = tmp_path / "balance.csv"
    write_balance_csv(residual_torque_profile(p, springs), path)
    cli_path = tmp_path / "cli.csv"
    assert main(["balance", "--kind", name, "--out", str(cli_path)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == cli_path.read_bytes()
    rows = np.array(read_balance_csv(path))
    assert (bits(rows[:, 3]) == bits(rows[:, 1] + rows[:, 2])).all()


def test_spring_spec_rejects_non_finite_numbers():
    geometry = dict(anchor_radius=0.1, bar_radius=0.05)
    for bad in (math.nan, math.inf, "1", None, Decimal("0.4")):
        for kind, field, extra in (
                (SpringKind.LINEAR_REAL, "stiffness", geometry),
                (SpringKind.LINEAR_REAL, "free_length", geometry),
                (SpringKind.LINEAR_REAL, "anchor_radius",
                 dict(bar_radius=0.05)),
                (SpringKind.LINEAR_REAL, "bar_radius",
                 dict(anchor_radius=0.1)),
                (SpringKind.TORSION, "torsion_neutral", {})):
            kw = dict(extra, stiffness=1.0)
            kw[field] = bad
            with pytest.raises(ValueError, match=field):
                SpringSpec(kind, Joint.J2, **kw)


@pytest.mark.parametrize("bad", [1.0, True, "j2", 3, -1, None])
def test_spring_spec_joint_must_name_a_joint(bad):
    with pytest.raises(ValueError, match="joint"):
        SpringSpec(SpringKind.TORSION, bad, 0.5)


@pytest.mark.parametrize("index", [1, 2, np.int64(2)])
def test_spring_spec_normalises_an_integer_joint(index):
    spec = SpringSpec(SpringKind.TORSION, index, 0.5)
    assert spec.joint is Joint(int(index))
    assert spec == SpringSpec(SpringKind.TORSION, Joint(int(index)), 0.5)
