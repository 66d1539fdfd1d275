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

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import IDENTITY_2, PAULI_X, PAULI_Z, PRODUCT_TOL, LinearOperator, PureState
from .states import MAX_DENSE_QUBITS, UnknownQubit, ZsaAmplitudes, slot_positions

DEGENERATE_PROBABILITY = 1e-14


class DegenerateBranch(RuntimeError):
    """A forced Bell branch is below `DEGENERATE_PROBABILITY`; valid inputs reach it (theta = 0: P(Psi) = |c_1|^2 / 2)."""


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
        return self.name.title().replace("_", "")  # PHI_PLUS -> PhiPlus

    @classmethod
    def from_label(cls, label: str) -> "BellOutcome":
        for outcome in cls:
            if outcome.label == label:
                return outcome
        raise ValueError(f"unknown Bell outcome {label!r}; expected one of {[o.label for o in cls]}")


_S = 1.0 / math.sqrt(2.0)
BELL_VECTORS = {
    BellOutcome.PHI_PLUS: np.array([_S, 0, 0, _S], dtype=complex),
    BellOutcome.PHI_MINUS: np.array([_S, 0, 0, -_S], dtype=complex),
    BellOutcome.PSI_PLUS: np.array([0, _S, _S, 0], dtype=complex),
    BellOutcome.PSI_MINUS: np.array([0, _S, -_S, 0], dtype=complex),
}

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
    """The (N-1)-party universal entangled state produced by the protocol, a complex-weighted W-class state.

    ``slots`` holds its N amplitudes: on the all-r string (r the reference bit), then on that string with only
    qubit j = 1..N-1 flipped.  The dense `vector` is built on first use, for the oracles.
    """

    reference_bit: int
    zsa: ZsaAmplitudes
    qubit: UnknownQubit
    slots: np.ndarray
    norm_constant: float

    @functools.cached_property
    def vector(self) -> PureState:
        amplitudes = np.zeros(2 ** (self.slots.size - 1), dtype=complex)
        amplitudes[slot_positions(self.slots.size - 1, self.reference_bit)] = self.slots
        return PureState(self.slots.size - 1, amplitudes)

    def min_marginal_eigenvalues(self) -> np.ndarray:
        """The smaller eigenvalue of each qubit j's marginal, d_j / (1/2 + sqrt(1/4 - d_j)) without cancellation.

        The marginal holds |a_j|^2 on the flipped bit and a_0 a_j*, so d_j = |a_j|^2 sum_{i not 0, j} |a_i|^2."""
        flips = (self.slots[1:] * self.slots[1:].conj()).real
        det = flips * (flips.sum() - flips)
        return det / (0.5 + np.sqrt(np.maximum(0.25 - det, 0.0)))

    def is_product(self) -> bool:
        """True iff every single-qubit marginal is pure within `PRODUCT_TOL`, as the dense oracle says of `vector`."""
        return bool(self.min_marginal_eigenvalues().max() <= PRODUCT_TOL)


@dataclass(frozen=True, eq=False)
class Transcript:
    """Record of one protocol run."""

    outcome: BellOutcome
    outcome_probability: float
    cbits_sent: int
    parties_notified: int
    final: CobwebState

    def scalar_fields(self) -> dict:
        """Every field of `to_dict` but ``final_state``, in the same order."""
        return {
            "outcome": self.outcome.label,
            "payload": self.outcome.payload,
            "probability": self.outcome_probability,
            "cbits_sent": self.cbits_sent,
            "parties_notified": self.parties_notified,
            "reference_bit": self.final.reference_bit,
            "norm_constant": self.final.norm_constant,
        }

    def to_dict(self) -> dict:
        pairs = [[float(a.real), float(a.imag)] for a in self.final.vector.amplitudes]
        return {**self.scalar_fields(), "final_state": pairs}


def _require_protocol(z: ZsaAmplitudes) -> None:
    if z.num_parties < 3:
        raise ValueError("the protocol needs at least three parties")
    if z.num_parties > MAX_DENSE_QUBITS:
        raise ValueError(f"dense statevectors are limited to {MAX_DENSE_QUBITS} qubits")


def bell_projection(q: UnknownQubit, z: ZsaAmplitudes, outcome: BellOutcome) -> tuple[float, np.ndarray]:
    """Party 1's Bell projection on (a, 1): the Born probability and the unnormalized N slots of parties 2..N.

    Party 1 is set only where parties 2..N are all 0 (amplitude c_1) and clear
    only where one of them, party k, is 1 (c_k), so the residual lives on the
    N strings of `slot_positions` with reference bit 0, in that order.  The
    products v_a c_k are the multiplies a dense ``np.kron`` of |psi>_a and the
    shared state makes.  The probability is the correctly rounded sum of the
    2N squared parts, so it depends on the slots alone and on no BLAS kernel.
    """
    _require_protocol(z)
    products = np.multiply.outer(q.vector(), z.coeffs)[:, None]  # [a, -, k]: v_a c_k
    projected = (BELL_VECTORS[outcome].conj().reshape(2, 2, 1) * products).sum(axis=0)  # [bit of party 1, k]
    slots = projected[0]
    slots[0] = projected[1, 0]
    return math.fsum((slots.view(np.float64) ** 2).tolist()), slots


def branch_probabilities(q: UnknownQubit, z: ZsaAmplitudes) -> dict[BellOutcome, float]:
    return {o: bell_projection(q, z, o)[0] for o in BellOutcome}


def draw_outcome_block(probs: dict[BellOutcome, float], rng: np.random.Generator, count: int) -> np.ndarray:
    """The outcome values of ``count`` successive ``rng.choice(4, p=weights / weights.sum())`` calls, bit for bit.

    Takes ``count`` doubles from ``rng`` at once, one per draw as `Generator.choice`
    does, and inverts its CDF on them.  The probabilities are taken as valid:
    unlike `Generator.choice`, this does not check them.
    """
    weights = np.array([probs[o] for o in BellOutcome])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(count), side="right")


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
    all_r, *flipped = slot_positions(n_out, reference_bit)
    amps = np.zeros(2**n_out, dtype=complex)
    for c_k, position in zip(z.coeffs[1:], flipped):  # party k = 2..N; qubit k - 1 carries v
        amps[all_r] += c_k * v[reference_bit]
        amps[position] += c_k * v[1 - reference_bit]
    return amps


def _cobweb(q: UnknownQubit, z: ZsaAmplitudes, reference_bit: int, slots: np.ndarray) -> CobwebState:
    """An output state with its closed-form constant: N(beta) for reference bit 1, else N(alpha)."""
    n_alpha, n_beta = normalization_constants(q, z)
    slots.setflags(write=False)  # `CobwebState.vector` is built from them once
    return CobwebState(reference_bit=reference_bit, zsa=z, qubit=q, slots=slots,
                       norm_constant=n_beta if reference_bit else n_alpha)


def cobweb_state(q: UnknownQubit, z: ZsaAmplitudes, reference_bit: int) -> CobwebState:
    """Build the normalized output state directly from its definition: the slots of the dense target."""
    raw = target_vector(q.vector(), z, reference_bit)
    return _cobweb(q, z, reference_bit, raw[slot_positions(z.num_parties - 1, reference_bit)] / np.linalg.norm(raw))


def apply_correction(slots: np.ndarray, rule: CorrectionRule) -> np.ndarray:
    """The rule's gate on every qubit of a branch held as its N slots of reference bit 0: the corrected slots.

    The gate takes |0> to e_r |r> and |1> to e_f |1 - r> (r the reference bit, e_r and e_f each +-1), so every
    slot keeps its kind: the all-r string gets e_r^(N-1), a single flip e_r^(N-2) e_f.  ``+ 0.0`` turns ``-0.0``
    into ``0.0``.
    """
    g = rule.gate.entries.real
    e_ref, e_flip = g[rule.reference_bit, 0], g[1 - rule.reference_bit, 1]
    n = slots.size - 1
    return slots * np.array([e_ref**n, *[e_ref ** (n - 1) * e_flip] * n]) + 0.0


def run_protocol(
    q: UnknownQubit,
    z: ZsaAmplitudes,
    outcome: BellOutcome | None = None,
    seed=None,
) -> Transcript:
    """Run one protocol instance, either forcing a Bell outcome or sampling it.

    Sampling requires a seed: anything ``np.random.default_rng`` accepts, a
    Generator included, which gives up one double.  Identical seeds reproduce
    identical transcripts bit for bit.  The branch is projected, normalized and
    corrected on its N slots, in O(N).
    """
    if outcome is None:
        if seed is None:
            raise ValueError("sampling an outcome requires a seed")
        outcome = BellOutcome(int(draw_outcome_block(branch_probabilities(q, z), np.random.default_rng(seed), 1)[0]))
    prob, slots = bell_projection(q, z, outcome)
    if prob < DEGENERATE_PROBABILITY:
        raise DegenerateBranch(f"outcome {outcome.label} has probability {prob:.3e}")
    rule = correction_for(outcome)
    slots = apply_correction(slots / math.sqrt(prob), rule)
    return Transcript(outcome=outcome, outcome_probability=prob, cbits_sent=2,
                      parties_notified=z.num_parties - 1, final=_cobweb(q, z, rule.reference_bit, slots))
