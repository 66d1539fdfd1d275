"""The universal-entangling protocol on a shared ZSA state.

The measuring party, party 1, holds the unknown qubit (particle a) and
particle 1 of the shared N-party one-hot ZSA state.  A Bell measurement on
(a, 1) followed by an outcome-conditioned single-qubit correction at every
remote party leaves parties 2..N sharing the unknown qubit entangled with a
reference state:

    outcome    correction (every remote qubit)    reference bit
    PhiPlus    i*sigma_y                          1
    PhiMinus   sigma_x                            1
    PsiPlus    sigma_z                            0
    PsiMinus   identity                           0

Bell basis: Phi+- = (|00> +- |11>)/sqrt2, Psi+- = (|01> +- |10>)/sqrt2, and
sigma_y = [[0, -i], [i, 0]] so that i*sigma_y|0> = -|1>, i*sigma_y|1> = |0>.
Protocol outputs are defined up to global phase.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    LinearOperator,
    PureState,
    apply_gate,
    project,
    tensor,
)
from .states import UnknownQubit, ZsaAmplitudes, build_state

DEGENERATE_PROBABILITY = 1e-14


class DegenerateBranch(RuntimeError):
    """A measurement branch has zero probability; cannot occur for valid ZSA inputs."""


class NonPositiveNorm(RuntimeError):
    """Closed-form normalization came out nonpositive; internal consistency failure."""


class BellOutcome(Enum):
    """The four Bell-measurement results; the value doubles as the 2-bit message payload."""

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3

    @property
    def payload(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return _LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "BellOutcome":
        for outcome, name in _LABELS.items():
            if name == label:
                return outcome
        raise ValueError(f"unknown Bell outcome {label!r}; expected one of {list(_LABELS.values())}")


_LABELS = {
    BellOutcome.PHI_PLUS: "PhiPlus",
    BellOutcome.PHI_MINUS: "PhiMinus",
    BellOutcome.PSI_PLUS: "PsiPlus",
    BellOutcome.PSI_MINUS: "PsiMinus",
}

_S = 1.0 / math.sqrt(2.0)
BELL_VECTORS = {
    BellOutcome.PHI_PLUS: np.array([_S, 0, 0, _S], dtype=complex),
    BellOutcome.PHI_MINUS: np.array([_S, 0, 0, -_S], dtype=complex),
    BellOutcome.PSI_PLUS: np.array([0, _S, _S, 0], dtype=complex),
    BellOutcome.PSI_MINUS: np.array([0, _S, -_S, 0], dtype=complex),
}

_OUTCOMES = tuple(BellOutcome)

I_SIGMA_Y = LinearOperator(2, [[0, 1], [-1, 0]], unitary=True)


@dataclass(frozen=True, eq=False)
class CorrectionRule:
    """Single-qubit gate applied identically at every remote party, plus the reference bit."""

    gate: LinearOperator
    reference_bit: int


_CORRECTION_TABLE = {
    BellOutcome.PHI_PLUS: CorrectionRule(I_SIGMA_Y, 1),
    BellOutcome.PHI_MINUS: CorrectionRule(PAULI_X, 1),
    BellOutcome.PSI_PLUS: CorrectionRule(PAULI_Z, 0),
    BellOutcome.PSI_MINUS: CorrectionRule(IDENTITY_2, 0),
}


def correction_for(outcome: BellOutcome) -> CorrectionRule:
    return _CORRECTION_TABLE[outcome]


@dataclass(frozen=True, eq=False)
class CobwebState:
    """The (N-1)-party universal entangled state produced by the protocol."""

    reference_bit: int
    zsa: ZsaAmplitudes
    qubit: UnknownQubit
    vector: PureState
    norm_constant: float


@dataclass(frozen=True, eq=False)
class Transcript:
    """Record of one protocol run."""

    outcome: BellOutcome
    outcome_probability: float
    cbits_sent: int
    parties_notified: int
    final: CobwebState

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.label,
            "payload": self.outcome.payload,
            "probability": self.outcome_probability,
            "cbits_sent": self.cbits_sent,
            "parties_notified": self.parties_notified,
            "reference_bit": self.final.reference_bit,
            "norm_constant": self.final.norm_constant,
            "final_state": [[float(a.real), float(a.imag)] for a in self.final.vector.amplitudes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def joint_state(q: UnknownQubit, z: ZsaAmplitudes) -> PureState:
    """|psi>_a tensor the shared state; particle a is the most significant qubit."""
    if z.num_parties < 3:
        raise ValueError("the protocol needs at least three parties")
    return tensor(q.state(), build_state(z))


def bell_measurement(
    joint: PureState, outcome: BellOutcome | None = None, seed=None
) -> tuple[BellOutcome, float, PureState]:
    """The Bell measurement of party 1 on qubits (a, 1) of the joint state.

    Forces ``outcome`` when given; otherwise projects onto all four Bell
    vectors once, draws the outcome with ``seed`` and keeps the drawn
    branch's residual.  Returns the outcome, its probability and the
    renormalized residual over the N-1 remote qubits.
    """
    if joint.num_qubits < 3:
        raise ValueError("joint state must cover particle a plus at least two parties")
    if outcome is None:
        branches = {o: project(joint, (1, 2), BELL_VECTORS[o]) for o in BellOutcome}
        outcome = draw_outcome({o: p for o, (p, _) in branches.items()}, seed)
        prob, residual = branches[outcome]
    else:
        prob, residual = project(joint, (1, 2), BELL_VECTORS[outcome])
    if prob < DEGENERATE_PROBABILITY:
        raise DegenerateBranch(f"outcome {outcome.label} has probability {prob:.3e}")
    return outcome, prob, PureState(joint.num_qubits - 2, residual / math.sqrt(prob))


def branch_probabilities(joint: PureState) -> dict[BellOutcome, float]:
    return {o: project(joint, (1, 2), BELL_VECTORS[o])[0] for o in BellOutcome}


def draw_outcome(probs: dict[BellOutcome, float], seed) -> BellOutcome:
    """Draw a Bell outcome from its branch probabilities; the one sampler of the package.

    ``seed`` is anything ``np.random.default_rng`` accepts, a Generator
    included; identical seeds draw identical outcomes.
    """
    if seed is None:
        raise ValueError("sampling an outcome requires a seed")
    weights = np.array([probs[o] for o in BellOutcome])
    return _OUTCOMES[int(np.random.default_rng(seed).choice(4, p=weights / weights.sum()))]


def normalization_constants(q: UnknownQubit, z: ZsaAmplitudes) -> tuple[float, float]:
    """Closed-form normalization constants N(alpha), N(beta).

    1/N(alpha)^2 = (1 - |c_1|^2) + alpha^2 (2|c_1|^2 - 1), and N(beta) with
    |beta|^2 in place of alpha^2.  For three parties this is the same as
    |c_2|^2 + |c_3|^2 + 2 alpha^2 Re(c_2* c_3).
    """
    if z.num_parties < 3:
        raise ValueError("normalization constants are defined for at least three parties")
    a1 = float(abs(z.coeffs[0]) ** 2)
    inv_sq_alpha = (1.0 - a1) + q.alpha**2 * (2.0 * a1 - 1.0)
    inv_sq_beta = (1.0 - a1) + abs(q.beta) ** 2 * (2.0 * a1 - 1.0)
    if inv_sq_alpha <= 0.0 or inv_sq_beta <= 0.0:
        raise NonPositiveNorm(
            f"closed-form 1/N^2 values ({inv_sq_alpha!r}, {inv_sq_beta!r}) must be positive"
        )
    return 1.0 / math.sqrt(inv_sq_alpha), 1.0 / math.sqrt(inv_sq_beta)


def target_vector(qubit_vector: np.ndarray, z: ZsaAmplitudes, reference_bit: int) -> np.ndarray:
    """Unnormalized amplitudes of sum_{k>=2} c_k |r r ... v@slot(k-1) ... r>.

    Slot k-1 of the (N-1)-qubit register carries the given single-qubit
    vector; every other slot carries the reference bit r.
    """
    if reference_bit not in (0, 1):
        raise ValueError(f"reference bit must be 0 or 1, got {reference_bit!r}")
    v = np.asarray(qubit_vector, dtype=complex).reshape(2)
    n_out = z.num_parties - 1
    base = (1 << n_out) - 1 if reference_bit else 0
    amps = np.zeros(2**n_out, dtype=complex)
    for slot in range(1, n_out + 1):
        bit = 1 << (n_out - slot)
        c_k = z.coeffs[slot]  # party k = slot + 1
        amps[base & ~bit] += c_k * v[0]
        amps[base | bit] += c_k * v[1]
    return amps


def generalized_target(q: UnknownQubit, z: ZsaAmplitudes, reference_bit: int) -> PureState:
    """The unnormalized protocol target; the oracle run_protocol is checked against."""
    if z.num_parties < 3:
        raise ValueError("targets are defined for at least three parties")
    return PureState(z.num_parties - 1, target_vector(q.vector(), z, reference_bit), normalized=False)


def cobweb_state(q: UnknownQubit, z: ZsaAmplitudes, reference_bit: int) -> CobwebState:
    """Build the normalized output state directly from its definition."""
    raw = target_vector(q.vector(), z, reference_bit)
    nrm = np.linalg.norm(raw)
    n_alpha, n_beta = normalization_constants(q, z)
    constant = n_beta if reference_bit else n_alpha
    return CobwebState(
        reference_bit=reference_bit,
        zsa=z,
        qubit=q,
        vector=PureState(z.num_parties - 1, raw / nrm),
        norm_constant=constant,
    )


def apply_correction(state: PureState, rule: CorrectionRule) -> PureState:
    """Apply the correction gate to every qubit of the residual, ascending order."""
    out = state
    for qubit in range(1, state.num_qubits + 1):
        out = apply_gate(out, [qubit], rule.gate)
    return out


def run_protocol(
    q: UnknownQubit,
    z: ZsaAmplitudes,
    outcome: BellOutcome | None = None,
    seed=None,
) -> Transcript:
    """Run one protocol instance, either forcing a Bell outcome or sampling it.

    Sampling requires a seed; identical seeds reproduce identical transcripts
    bit for bit.
    """
    n = z.num_parties
    outcome, prob, residual = bell_measurement(joint_state(q, z), outcome, seed)
    rule = correction_for(outcome)
    corrected = apply_correction(residual, rule)
    n_alpha, n_beta = normalization_constants(q, z)
    final = CobwebState(
        reference_bit=rule.reference_bit,
        zsa=z,
        qubit=q,
        vector=corrected,
        norm_constant=n_beta if rule.reference_bit else n_alpha,
    )
    return Transcript(
        outcome=outcome,
        outcome_probability=prob,
        cbits_sent=2,
        parties_notified=n - 1,
        final=final,
    )
