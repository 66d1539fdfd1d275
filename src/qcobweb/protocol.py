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

One `bell_table` call holds every branch of a (qubit, shared state) pair:
two outputs, partners by the pinned relations.  It builds the normalized rows
of PsiMinus and PhiMinus, one per reference bit, and flags the product ones;
PsiPlus is PsiMinus and PhiPlus is (-1)^N PhiMinus.  It is the one builder of
protocol outputs: every run reads its branch from that table, a sampled run
draws it from `outcome_cdf` of its probabilities, and the reports take their
outputs from its identity and sigma_x rows.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import PRODUCT_TOL, PureState
from .states import MAX_DENSE_QUBITS, UnknownQubit, ZsaAmplitudes, slot_positions

DEGENERATE_PROBABILITY = 1e-14


class DegenerateBranch(ValueError):
    """A Bell branch a caller needs is below `DEGENERATE_PROBABILITY`; valid inputs reach it (theta = 0: P(Psi) =
    |c_1|^2 / 2).  `BellTable.probability` is its one source, so every refusal reads the same: the branch, its output,
    the table's own qubit and the exact probability.  A `ValueError`, so the CLI exits 2 on it, as on any other domain
    error."""


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

# Each outcome's correction as (reference bit r, e_r, e_f): its gate, the same at every remote party, takes |0> to
# e_r |r> and |1> to e_f |1 - r>.  Those are the gates of the table above, read off their columns.
CORRECTIONS = {
    BellOutcome.PHI_PLUS: (1, -1, 1),  # i*sigma_y
    BellOutcome.PHI_MINUS: (1, 1, 1),  # sigma_x
    BellOutcome.PSI_PLUS: (0, 1, -1),  # sigma_z
    BellOutcome.PSI_MINUS: (0, 1, 1),  # identity
}
# Each reference bit r's row factors (b_1, b_0), from PsiMinus and PhiMinus, whose gates have e_r = e_f = 1: slot 0 is
# v_r c_1 (party 1 set) and slot k >= 1 is v_(1-r) c_k (party 1 clear), so they take its Bell-vector entries b_1, b_0.
_ROW_FACTORS = tuple((BELL_VECTORS[o][2 * r + 1].real.item(), BELL_VECTORS[o][2 - 2 * r].real.item())
                     for r, o in enumerate((BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS)))


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


@dataclass(frozen=True, eq=False)
class Transcript:
    """Record of one protocol run."""

    SCALAR_FIELDS = ("outcome", "payload", "probability", "cbits_sent", "parties_notified", "reference_bit",
                     "norm_constant")  # the keys of `scalar_fields`, in order
    outcome: BellOutcome
    outcome_probability: float
    cbits_sent: int
    parties_notified: int
    final: CobwebState

    def scalar_fields(self) -> dict:
        """Every field of `to_dict` but ``final_state``, in the same order."""
        return dict(zip(self.SCALAR_FIELDS, (self.outcome.label, self.outcome.payload, self.outcome_probability,
                                             self.cbits_sent, self.parties_notified, self.final.reference_bit,
                                             self.final.norm_constant)))

    def to_dict(self) -> dict:
        pairs = self.final.vector.amplitudes.view(np.float64).reshape(-1, 2).tolist()  # one [re, im] per amplitude
        return {**self.scalar_fields(), "final_state": pairs}


def _require_protocol(z: ZsaAmplitudes) -> None:
    if z.num_parties < 3:
        raise ValueError("the protocol needs at least three parties")
    if z.num_parties > MAX_DENSE_QUBITS:
        raise ValueError(f"dense statevectors are limited to {MAX_DENSE_QUBITS} qubits")


@dataclass(frozen=True, eq=False)
class BellTable:
    """Every branch of party 1's Bell measurement for one (qubit, shared state) pair, normalized and corrected.

    Entry ``o.value`` of each tuple, a plain Python value, belongs to outcome ``o``.  ``rows`` holds each output's N
    slots of reference bit ``CORRECTIONS[o][0]`` as 2N floats, real and imaginary part in turn; a row whose
    probability is below `DEGENERATE_PROBABILITY` is left unnormalized, and if both rows of a reference bit are, its
    norm constant is None.  ``products`` flags the outputs whose single-qubit marginals are all pure within
    `PRODUCT_TOL`, as the dense oracle says of `CobwebState.vector`.
    """

    qubit: UnknownQubit
    zsa: ZsaAmplitudes
    probabilities: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]
    products: tuple[bool, ...]
    norm_constants: tuple[float | None, float | None]  # N(alpha), N(beta): those of reference bits 0 and 1

    def probability(self, outcome: BellOutcome) -> float:
        """The probability of ``outcome``.  Raises `DegenerateBranch` on a degenerate row; a branch on the bound is
        live."""
        prob = self.probabilities[outcome.value]
        if prob < DEGENERATE_PROBABILITY:
            raise DegenerateBranch(f"{outcome.label} (reference-{CORRECTIONS[outcome][0]} output) at theta = "
                                   f"{self.qubit.theta!r}, phi = {self.qubit.phi!r} has probability {prob!r}, below "
                                   f"{DEGENERATE_PROBABILITY!r}")
        return prob

    def transcript(self, outcome: BellOutcome) -> Transcript:
        """The run that lands on ``outcome``.  Raises `DegenerateBranch` on a degenerate row."""
        probability, reference_bit = self.probability(outcome), CORRECTIONS[outcome][0]
        slots = np.array(self.rows[outcome.value]).view(complex)
        slots.setflags(write=False)  # `CobwebState.vector` is built from them once
        final = CobwebState(reference_bit=reference_bit, zsa=self.zsa, qubit=self.qubit, slots=slots,
                            norm_constant=self.norm_constants[reference_bit])
        return Transcript(outcome=outcome, outcome_probability=probability, cbits_sent=2,
                          parties_notified=self.zsa.num_parties - 1, final=final)


def bell_table(q: UnknownQubit, z: ZsaAmplitudes) -> BellTable:
    """Party 1's Bell measurement on (a, 1) and the remote corrections, for all four outcomes at once, in O(N).

    Two outputs, partners by the pinned relations: only PsiMinus and PhiMinus are built; PsiPlus shares PsiMinus's row,
    probability and flag, and PhiPlus PhiMinus's, each part taken ``0.0 - x`` at odd N.  Party 1 is set only where
    parties 2..N are all 0 (c_1) and clear only where one, party k, is 1 (c_k): with r the reference bit, slot 0 is v_r
    c_1 and slot k is v_(1-r) c_k, times a Bell-vector entry.  The products v_a c_k are the one numpy call; the rest
    works on their parts as floats, bit for bit numpy's contraction, whose complex-by-real divide multiplies by the
    reciprocal.  Each probability is the correctly rounded sum of its row's 2N squared parts, so no BLAS kernel moves
    it, and ``+ 0.0`` turns ``-0.0`` into ``0.0``.  A flag tests d / (1/2 + sqrt(1/4 - d)), the smaller eigenvalue of
    qubit j's marginal at d = d_j = |a_j|^2 sum_{i not 0, j} |a_i|^2, at the largest d_j only: it rises with d.  A
    reference bit whose rows are degenerate takes no norm constant, whose closed form may round to zero.
    """
    _require_protocol(z)
    parts = np.multiply.outer(q.vector(), z.coeffs).view(np.float64).tolist()  # [a][2k + part]: v_a c_(k+1)
    built = []  # (probability, row, product flag) by reference bit
    for ref, (bell_set, bell_clear) in enumerate(_ROW_FACTORS):
        raw = [bell_set * x for x in parts[ref][:2]] + [bell_clear * x for x in parts[1 - ref][2:]]
        prob = math.fsum([x * x for x in raw])
        scale = 1.0 / math.sqrt(prob) if prob >= DEGENERATE_PROBABILITY else 1.0
        row = tuple([x * scale + 0.0 for x in raw])
        flips = [re * re + im * im for re, im in zip(row[2::2], row[3::2])]  # |a_j|^2, j = 1..n
        total = math.fsum(flips)
        det = max([flip * (total - flip) for flip in flips])
        built.append((prob, row, det / (0.5 + math.sqrt(max(0.25 - det, 0.0))) <= PRODUCT_TOL))
    (p0, psi, f0), (p1, phi, f1) = built
    phi_plus = phi if z.num_parties % 2 == 0 else tuple([0.0 - x for x in phi])
    live = {ref for ref, prob in enumerate((p0, p1)) if prob >= DEGENERATE_PROBABILITY}
    return BellTable(qubit=q, zsa=z, probabilities=(p1, p1, p0, p0), rows=(phi_plus, phi, psi, psi),
                     products=(f1, f1, f0, f0), norm_constants=normalization_constants(q, z, live))


def outcome_cdf(weights) -> list[float]:
    """The CDF that ``Generator.choice(4, p=w / w.sum())`` inverts for the weights ``w`` by outcome value, bit for
    bit: numpy's ``(w / w.sum()).cumsum()`` divided by its last entry, in plain floats.  numpy sums four doubles in
    order, as `itertools.accumulate` does (Python 3.12's ``sum`` compensates, so it is not used)."""
    *_, total = itertools.accumulate(weights)
    cdf = list(itertools.accumulate([w / total for w in weights]))
    return [c / cdf[-1] for c in cdf]


def draw_outcome(cdf, rng: np.random.Generator) -> int:
    """``draw_outcome_block(cdf, rng, 1)[0]`` as an int, without numpy's per-call work: one double, side "right"."""
    return bisect.bisect_right(cdf, rng.random())


def draw_outcome_block(cdf, rng: np.random.Generator, count: int) -> np.ndarray:
    """The outcome values of ``count`` successive ``rng.choice(4, p=...)`` calls on the weights whose `outcome_cdf` is
    ``cdf``, bit for bit: ``count`` doubles from ``rng`` at once, one per draw as `Generator.choice` takes, and the CDF
    inverted on them.  Unlike `Generator.choice`, this does not check the weights."""
    return np.searchsorted(cdf, rng.random(count), side="right")


def normalization_constants(q: UnknownQubit, z: ZsaAmplitudes, bits=(0, 1)) -> tuple[float | None, float | None]:
    """Closed-form normalization constants N(alpha), N(beta) of reference bits 0 and 1; a bit not in ``bits`` gets
    None instead.

    1/N(alpha)^2 = (1 - |c_1|^2) + alpha^2 (2|c_1|^2 - 1), and N(beta) with
    |beta|^2 in place of alpha^2.  For three parties this is the same as
    |c_2|^2 + |c_3|^2 + 2 alpha^2 Re(c_2* c_3).  Raises `NonPositiveNorm` when one
    that is taken comes out nonpositive.
    """
    if z.num_parties < 3:
        raise ValueError("normalization constants are defined for at least three parties")
    a1 = float(abs(z.coeffs[0]) ** 2)
    inv_sq = [(1.0 - a1) + weight * (2.0 * a1 - 1.0) if bit in bits else None
              for bit, weight in enumerate((q.alpha**2, abs(q.beta) ** 2))]
    if any(value is not None and value <= 0.0 for value in inv_sq):
        raise NonPositiveNorm(f"closed-form 1/N^2 values ({inv_sq[0]!r}, {inv_sq[1]!r}) must be positive")
    return tuple(None if value is None else 1.0 / math.sqrt(value) for value in inv_sq)


def run_protocol(
    q: UnknownQubit,
    z: ZsaAmplitudes,
    outcome: BellOutcome | None = None,
    seed=None,
) -> Transcript:
    """Run one protocol instance, either forcing a Bell outcome or sampling it.

    Sampling requires a seed: anything ``np.random.default_rng`` accepts, a
    Generator included, which gives up one double.  Identical seeds reproduce
    identical transcripts bit for bit.  The run is its outcome's row of `bell_table`.
    """
    if outcome is None and seed is None:
        raise ValueError("sampling an outcome requires a seed")
    table = bell_table(q, z)
    if outcome is None:
        outcome = BellOutcome(draw_outcome(outcome_cdf(table.probabilities), np.random.default_rng(seed)))
    return table.transcript(outcome)
