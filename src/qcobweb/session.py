"""Multi-party session: one protocol run plus its message log and resource ledger.

A session is the same LOCC protocol as ``run_protocol``: party 1 makes the
Bell measurement and sends the two-bit outcome to each of parties 2..N, and
every remote party applies the one fixed Pauli correction that the payload
names.  The session adds the append-only message log, one entry per
recipient with a total-order step, and the ledger of ebits and classical
bits spent.  Delivery is reliable, ordered and loss-free; the order in which
messages land cannot change the final state, because the corrections act on
distinct qubits and so commute.

The transcript is a row of the protocol's `bell_table`.  The ledger depends
on the shared state alone (`resource_ledger`) and the log text on the party
count and the payload alone (`message_log`), so a `run --session` call
builds one ledger and a process renders each payload's log once.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, partial_trace
from .measures import concurrence, eof_from_concurrence, splitting_entropy
from .protocol import BellOutcome, Transcript, run_protocol
from .states import UnknownQubit, ZsaAmplitudes, roots_of_unity_zsa, slot_positions


@dataclass(frozen=True)
class ClassicalMessage:
    """Two classical bits from the measuring party to one remote party."""

    step: int
    sender: int
    recipient: int
    payload: int

    def __post_init__(self):
        if self.payload not in (0, 1, 2, 3):
            raise ValueError(f"payload must encode two bits, got {self.payload!r}")


@dataclass(frozen=True)
class ResourceLedger:
    """Quantum and classical cost of one session."""

    ebits_consumed: float
    cbits_total: int
    parties: int


@dataclass(frozen=True, eq=False)
class SessionResult:
    transcript: Transcript
    ledger: ResourceLedger
    messages: tuple[ClassicalMessage, ...]


@dataclass(frozen=True, eq=False)
class BaselineReport:
    """Negative control: the same message flow over a classically correlated state."""

    outcome: BellOutcome
    max_coherence: float
    max_marginal_coherence: float
    entanglement_of_formation: float
    ledger: ResourceLedger
    messages: tuple[ClassicalMessage, ...]


def resource_ledger(z: ZsaAmplitudes) -> ResourceLedger:
    """What a session on ``z`` spends, whatever its outcome: the shared state's splitting entropy at party 1, and
    two classical bits to each of parties 2..N."""
    n = z.num_parties
    return ResourceLedger(ebits_consumed=splitting_entropy(z, 1), cbits_total=2 * (n - 1), parties=n)


def run_session(
    q: UnknownQubit,
    z: ZsaAmplitudes,
    outcome: BellOutcome | None = None,
    seed=None,
) -> SessionResult:
    """Run the protocol as N communicating parties; the transcript is run_protocol's, bit for bit.  Its messages
    carry two bits from party 1 to each of parties 2..N, in order.  A shared state of fewer than three parties, or
    past the dense cap, is refused by `bell_table`, as for `run_protocol`."""
    transcript = run_protocol(q, z, outcome, seed)
    messages = tuple(ClassicalMessage(step=k - 1, sender=1, recipient=k, payload=transcript.outcome.payload)
                     for k in range(2, z.num_parties + 1))
    return SessionResult(transcript=transcript, ledger=resource_ledger(z), messages=messages)


def classical_only_baseline(
    q: UnknownQubit,
    seed=None,
    outcome: BellOutcome | None = None,
    zsa: ZsaAmplitudes | None = None,
) -> BaselineReport:
    """Run the protocol's Bell branches and the session's messages on a classically correlated shared state.

    The shared state keeps the ZSA populations |c_k|^2 on the one-hot strings
    |x_k> but none of their coherences, so it is separable.  The Bell
    projection of each string is one of the N slots of the branch, so the
    drawn branch is the mixture of the slots of `run_protocol`'s output, each
    on its own: the same draw, projection, normalization and correction.
    Local corrections plus classical messages cannot create entanglement, so
    the report's coherence and entanglement-of-formation figures must all be
    zero.
    """
    z = zsa if zsa is not None else roots_of_unity_zsa(3)
    if z.num_parties != 3:
        raise ValueError("the baseline analyzes a two-party output, so it needs three parties")

    session = run_session(q, z, outcome, seed)
    final = session.transcript.final
    strings = np.zeros((3, 4), dtype=complex)  # row k: the corrected branch of slot k alone
    strings[np.arange(3), slot_positions(2, final.reference_bit)] = final.slots
    out = strings.T @ strings.conj()  # the sum of |slot><slot|
    out_dm = DensityMatrix(2, out)

    off_diag = np.abs(out - np.diag(np.diag(out)))
    marginal_coherences = [float(np.abs(partial_trace(out_dm, [qubit]).entries[0, 1])) for qubit in (1, 2)]
    return BaselineReport(
        outcome=session.transcript.outcome,
        max_coherence=float(off_diag.max()),
        max_marginal_coherence=max(marginal_coherences),
        entanglement_of_formation=eof_from_concurrence(concurrence(out_dm)),
        ledger=ResourceLedger(ebits_consumed=0.0, cbits_total=4, parties=3),
        messages=session.messages,
    )


@functools.lru_cache(maxsize=len(BellOutcome))
def message_log(num_parties: int, payload: int) -> str:
    """One newline-ended ``json.dumps`` line {step, from, to, payload} per `ClassicalMessage` of `run_session`, in
    order, for ``num_parties`` and this payload; the last four (party count, payload) logs are kept per process."""
    return "".join(f'{{"step": {k - 1}, "from": 1, "to": {k}, "payload": {payload}}}\n'
                   for k in range(2, num_parties + 1))
