"""Disentangling the unknown qubit from an output state: obstruction and odds.

No isometry (even a joint one with ancillas) can peel the unknown qubit off
the output state exactly: acting on the outputs for |psi> and its orthogonal
complement, inner-product preservation would force
2 N(alpha) N(beta) alpha beta* Re(c2 c3*) = 0.  The modulus of that quantity
is the obstruction value; it vanishes only at the poles (theta in {0, pi})
or when Re(c2 c3*) = 0, which IS reachable with all amplitudes nonzero
(for example c2 = a, c3 = ia).  `obstruction` takes the reference-0 output
for |psi>, as the recovery does; its oracle is the overlap of that output's
slots with the `bell_table` row of the reference-0 output for psi_perp.

A nonlocal probabilistic recovery exists: CNOT across the pair, then measure
the control in the |+->  basis.  The |+> branch restores |psi> exactly with
probability P = |c1|^2 N(alpha)^2 / 2, which exceeds 1/2 exactly when
Re(c2* c3) > 0.  It is taken as n / (2 (n - 2|beta|^2 Re(c2* c3))), with
n = |c2 + c3|^2, which cancels nowhere; on |c1|^2 N(alpha)^2 / 2, P's side of
1/2 would follow |c1|^2, which the 1e-12 zero-sum tolerance lets disagree with
the sign of Re(c2* c3).
"""
from __future__ import annotations

import math
import operator

import numpy as np

from .linalg import PureState, apply_gate, project, state_fidelity
from .protocol import BellOutcome, CobwebState, bell_table, normalization_constants
from .states import UnknownQubit, ZsaAmplitudes

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT.setflags(write=False)
_S = 1.0 / math.sqrt(2.0)
PLUS = np.array([_S, _S], dtype=complex)


def obstruction(c: CobwebState) -> dict:
    """Obstruction modulus |2 N(alpha) N(beta) alpha beta* Re(c2 c3*)|, its inner-product oracle, and the inputs.

    ``c`` is the protocol's reference-0 output for |psi>.  The oracle is the modulus of its inner product with the
    reference-0 output for the qubit (pi - theta, phi + pi), alpha|1> - beta*|0> up to a global phase: a perfect
    disentangler would need it to be zero.  Each part of the product is the `math.fsum` of the products of slot parts.
    """
    q, z = c.qubit, c.zsa
    if z.num_parties != 3:
        raise ValueError("the obstruction is computed for the tripartite output")
    if c.reference_bit != 0:
        raise ValueError("the obstruction is defined for reference bit 0")
    n_alpha, n_beta = normalization_constants(q, z)
    re_cross = (z.coeffs[1] * z.coeffs[2].conjugate()).real
    value = 2.0 * n_alpha * n_beta * q.alpha * abs(q.beta) * abs(re_cross)

    perp = bell_table(UnknownQubit(math.pi - q.theta, q.phi + math.pi), z).transcript(BellOutcome.PSI_MINUS).final
    v, w = c.slots, perp.slots
    re = math.fsum(map(operator.mul, v, w))
    im = math.fsum([*map(operator.mul, v[::2], w[1::2]), *(-x * y for x, y in zip(v[1::2], w[::2]))])
    oracle = math.hypot(re, im)
    return {
        "closed_form": value,
        "simulated": oracle,
        "abs_difference": abs(value - oracle),
        "theta": q.theta,
        "phi": q.phi,
        "coeffs": [[coeff.real, coeff.imag] for coeff in z.coeffs],
    }


def _recovery_probability(z: ZsaAmplitudes, q: UnknownQubit) -> tuple[float, float]:
    """The recovery probability n / (2 (n - 2|beta|^2 Re(c2* c3))), n = |c2 + c3|^2, and Re(c2* c3), in plain floats
    from the parts: for Re(c2* c3) > 0 the subtracted term is at most n/2, else both terms are nonnegative."""
    _, _, r2, i2, r3, i3 = z.parts
    re_cross, n = r2 * r3 + i2 * i3, (r2 + r3) * (r2 + r3) + (i2 + i3) * (i2 + i3)
    return n / (2.0 * (n - 2.0 * abs(q.beta) ** 2 * re_cross)), re_cross


def cnot_disentangle(c: CobwebState) -> dict:
    """CNOT (first pair qubit controls the second), then measure the control in |+->.

    The |+> branch leaves the target qubit exactly in |psi>; the closed-form
    success probability (`_recovery_probability`) must match the simulated
    branch probability.  Returns both, the fidelity of the |+> branch with
    |psi> and that branch's state.
    """
    if c.zsa.num_parties != 3:
        raise ValueError("the CNOT recovery acts on the two-qubit output")
    if c.reference_bit != 0:
        raise ValueError("the CNOT recovery is defined for reference bit 0")
    after = apply_gate(c.vector, (1, 2), CNOT)
    p_plus, res_plus = project(after, [1], PLUS)
    success_state = PureState(1, res_plus / math.sqrt(p_plus))
    closed_form = _recovery_probability(c.zsa, c.qubit)[0]
    return {
        "simulated_probability": p_plus,
        "closed_form_probability": closed_form,
        "abs_difference": abs(p_plus - closed_form),
        "success_fidelity": state_fidelity(success_state, c.qubit.state()),
        "success_state": [[a.real, a.imag] for a in success_state.amplitudes],
    }


def success_probability_sign(z: ZsaAmplitudes, q: UnknownQubit) -> dict:
    """Recovery odds and the sign rule P > 1/2 iff Re(c2* c3) > 0, for theta strictly inside (0, pi).

    ``better_than_half`` is the sign rule itself: P - 1/2 = |beta|^2 Re(c2* c3)
    / (|c2 + c3|^2 - 2|beta|^2 Re(c2* c3)) has the sign of Re(c2* c3), while
    the rounded P can land on exactly 1/2 when Re(c2* c3) is tiny or |beta|^2
    underflows.  Rounding is monotonic, so the rounded P never lies on the
    wrong side of 1/2: RuntimeError is raised if it does, which only a wrong
    P formula can cause.
    """
    if z.num_parties != 3:
        raise ValueError("recovery odds are computed for the tripartite output")
    if q.theta in (0.0, math.pi):
        raise ValueError("theta must lie strictly inside (0, pi)")
    probability, re_cross = _recovery_probability(z, q)
    better = re_cross > 0.0
    if probability != 0.5 and (probability > 0.5) != better:
        raise RuntimeError(
            f"sign rule violated: P = {probability!r} while Re(c2* c3) = {re_cross!r}"
        )
    return {
        "probability": probability,
        "better_than_half": better,
        "re_c2_conj_c3": re_cross,
        "sign": (re_cross > 0) - (re_cross < 0),
    }
