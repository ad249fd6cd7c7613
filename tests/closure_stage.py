"""The stage of the equations of motion composed of the laws' closures.

Each law is called through the Law its one function returns, where the
RK4 step splices those Laws' templates. tests/test_dynamics.py steps
this stage with textbook RK4 and requires the spliced step to give the
same bytes, or the same error.
"""

import math

from spoonarm.dynamics import (STIFF_BOUND, DamperSpec, _mass_law,
                               _StiffStage, damper_sum)
from spoonarm.errors import NonFiniteStateError, TimestepTooCoarseError
from spoonarm.kinematics import (Joint, handle_point, point_torque_law,
                                 spec_tuple)
from spoonarm.statics import SpringSpec, gravity_laws, spring_sum


def closure_law(params, springs, dampers, dt):
    """accel(phi1, th2, th3, w1, w2, w3, force): (acc1, acc2, acc3,
    power), raising _StiffStage where dt*lambda passes STIFF_BOUND."""
    m22, m33, mass = _mass_law(params)
    m22_m33 = m22 * m33
    gravity2, gravity3 = (gravity_laws(params, joint)[0]
                          for joint in (Joint.J2, Joint.J3))
    handle_torques = point_torque_law(handle_point(params))
    springs = spec_tuple(springs, SpringSpec, "springs")
    dampers = spec_tuple(dampers, DamperSpec, "dampers")
    spring2, spring3 = (spring_sum(springs, joint)
                        for joint in (Joint.J2, Joint.J3))
    damper1, damper2, damper3 = (damper_sum(dampers, joint)
                                 for joint in Joint)
    cos, sin = math.cos, math.sin
    tiny = 1e-18

    dc1, dc2, dc3 = (dt * sum(spec.coefficient for spec in dampers
                              if spec.joint == joint)
                     for joint in Joint)
    floor1 = max(tiny, dc1 / STIFF_BOUND)
    floor23 = max(tiny, (dc2 * m33 + dc3 * m22) / STIFF_BOUND)
    planar = " and ".join(joint.name for joint, dc
                          in ((Joint.J2, dc2), (Joint.J3, dc3)) if dc)
    singular_rate = max((dc / m if m > tiny else math.inf) if dc else 0.0
                        for dc, m in ((dc2, m22), (dc3, m33)))

    def yaw(m11, rhs1):
        if dc1 > STIFF_BOUND * m11:
            raise _StiffStage(Joint.J1.name, dc1 / m11 if m11 else math.inf)
        return rhs1 / m11 if m11 > tiny else 0.0

    def solvable(det):
        if det > tiny:
            half = 0.5 * (dc2 * m33 + dc3 * m22) / det
            rate = half + math.sqrt(max(half * half - dc2 * dc3 / det, 0.0))
        else:
            rate = singular_rate
        if rate > STIFF_BOUND:
            raise _StiffStage(planar, rate)
        return det > tiny

    def accel(phi1, th2, th3, w1, w2, w3, force):
        c2t, s2t, c3t, s3t = cos(th2), sin(th2), cos(th3), sin(th3)
        m11, m23, d2, d3, bs = mass(c2t, s2t, c3t, s3t)

        tau1, damp2, damp3 = damper1(w1), damper2(w2), damper3(w3)
        power = 0.0 - tau1 * w1 - damp2 * w2 - damp3 * w3
        tau2 = gravity2(c2t) + spring2(th2, c2t, s2t) + damp2
        tau3 = gravity3(c3t) + spring3(th3, c3t, s3t) + damp3

        if force is not None:
            fx, fy, fz = force
            h1, h2, h3 = handle_torques(cos(phi1), sin(phi1),
                                        c2t, s2t, c3t, s3t, fx, fy, fz)
            tau1 += h1
            tau2 += h2
            tau3 += h3

        rhs1 = tau1 - w1 * (d2 * w2 + d3 * w3)
        rhs2 = tau2 - (-0.5 * d2 * w1 * w1 + bs * w3 * w3)
        rhs3 = tau3 - (-0.5 * d3 * w1 * w1 - bs * w2 * w2)

        acc1 = rhs1 / m11 if m11 > floor1 else yaw(m11, rhs1)
        det = m22_m33 - m23 * m23
        if det > floor23 or solvable(det):
            acc2 = (rhs2 * m33 - rhs3 * m23) / det
            acc3 = (rhs3 * m22 - rhs2 * m23) / det
        else:
            acc2 = rhs2 / m22 if m22 > tiny else 0.0
            acc3 = rhs3 / m33 if m33 > tiny else 0.0
        return acc1, acc2, acc3, power

    return accel


def closure_step(rk4, params, springs, dampers, dt, y, t, forces):
    """The next state by `rk4`(accel, limits, y, dt, forces) over
    closure_law, with the step's errors: NonFiniteStateError for a stage
    or a state that leaves the floats, TimestepTooCoarseError for
    dampers too stiff for dt."""
    accel = closure_law(params, springs, dampers, dt)
    diverged = f"state diverged at t = {t + dt:.6f} s; reduce the timestep"
    try:
        got = rk4(accel, params.joint_limits, list(y), dt, forces)
    except (ValueError, OverflowError):
        raise NonFiniteStateError(diverged) from None
    except _StiffStage as stiff:
        joints, rate = stiff.args
        raise TimestepTooCoarseError(
            f"{joints} damping dt*lambda = {rate:.6g} exceeds "
            f"{STIFF_BOUND} at t = {t:.6f} s; the largest stable dt is "
            f"{dt * STIFF_BOUND / rate:.6g} s; reduce the timestep"
        ) from None
    if not all(map(math.isfinite, got)):
        raise NonFiniteStateError(diverged)
    return tuple(got)
