"""Dense oracles the tests check the package against: whole statevectors and matrices, which no command builds.

Each is the plain O(2^N) construction of a quantity that the package computes
on the N slots of a one-hot state or in closed form.  The Pauli gates are the
dense form of `protocol.CORRECTIONS`, which holds each correction as a
reference bit and two signs.  `target_vector` and `cobweb_state` build a
protocol output from its definition, the reference-string target, and are the
oracle of every output `protocol.bell_table` makes.  The `exact_*` oracles
evaluate closed forms in `EXACT_DIGITS`-digit decimals from the exact values of
the float inputs, so they bound the program's rounding error itself, not the
gap between two float paths.  `numpy_zsa_verdict` is the ZSA check in numpy
reductions, the differential oracle of the package's plain-float check.
"""
from __future__ import annotations

import decimal
import math
from decimal import Decimal

import numpy as np

from qcobweb.linalg import (
    CONSTRUCTION_TOL,
    ENTROPY_CUTOFF,
    PRODUCT_TOL,
    DensityMatrix,
    PureState,
    _check_qubit_labels,
    project,
)
from qcobweb.protocol import (
    BELL_VECTORS,
    CORRECTIONS,
    DEGENERATE_PROBABILITY,
    BellOutcome,
    CobwebState,
    _require_protocol,
    normalization_constants,
)
from qcobweb.states import (
    ZERO_AMPLITUDE_TOL,
    NormalizationViolation,
    UnknownQubit,
    ZeroAmplitude,
    ZeroSumViolation,
    ZsaAmplitudes,
    build_state,
    slot_positions,
)

IMPOSSIBLE_PROBABILITY = 1e-14
EXACT_DIGITS = 60
_EXACT = decimal.Context(prec=EXACT_DIGITS)
# The relative error a closed form may show against its `exact_*` oracle, eight units in the last place of 1: the
# float inputs (cos, sin, the phase and 1/sqrt 2) carry up to one each, and each product, square and sum adds half.
EXACT_BOUND = 8 * 2.0**-52


def _gate(entries) -> np.ndarray:
    gate = np.array(entries, dtype=complex)
    gate.setflags(write=False)
    return gate


PAULI_X = _gate([[0, 1], [1, 0]])
PAULI_Z = _gate([[1, 0], [0, -1]])
IDENTITY_2 = _gate([[1, 0], [0, 1]])
I_SIGMA_Y = _gate([[0, 1], [-1, 0]])  # i*sigma_y: |0> -> -|1>, |1> -> |0>
# The gate every remote party applies for each Bell outcome.
CORRECTION_GATES = {
    BellOutcome.PHI_PLUS: I_SIGMA_Y,
    BellOutcome.PHI_MINUS: PAULI_X,
    BellOutcome.PSI_PLUS: PAULI_Z,
    BellOutcome.PSI_MINUS: IDENTITY_2,
}


def numpy_zsa_verdict(coeffs) -> type | None:
    """The `ZsaValidationError` class that the ZSA check in numpy reductions raises on finite coefficients, or None.

    This is `ZsaAmplitudes`'s check as numpy ufuncs: a pairwise ``sum``, the squared norm as a BLAS ``zdotc`` and the
    smallest ``np.abs``, in the same order and against the same bounds as the package's plain-float check.
    """
    arr = np.array(coeffs, dtype=complex).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # parts near the largest double sum to inf or nan
        total = complex(arr.sum())
    if not abs(total) <= CONSTRUCTION_TOL:
        return ZeroSumViolation
    if abs(float(np.vdot(arr, arr).real) - 1.0) > CONSTRUCTION_TOL:
        return NormalizationViolation
    return ZeroAmplitude if float(np.min(np.abs(arr))) <= ZERO_AMPLITUDE_TOL else None


class ImpossibleOutcome(ValueError):
    """Requested measurement outcome has (numerically) zero probability."""


def basis_state(num_qubits: int, index: int) -> PureState:
    """Computational-basis state |index> (big-endian bit order)."""
    if not 0 <= index < 2 ** num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amp = np.zeros(2 ** num_qubits, dtype=complex)
    amp[index] = 1.0
    return PureState(num_qubits, amp)


def tensor(a, b):
    """Kronecker product of two states or two operator matrices; a's indices most significant."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.kron(a, b)
    raise TypeError("tensor expects two PureStates or two operator matrices")


def outer(state: PureState) -> DensityMatrix:
    """Projector |psi><psi| of a pure state."""
    return DensityMatrix(state.num_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))


def _marginal_entries(state: PureState, keep) -> tuple[int, np.ndarray]:
    """Qubit count and matrix of a pure state's marginal over the kept qubits, unvalidated: the general form of the
    Grams `single_qubit_spectra` builds."""
    n = state.num_qubits
    kept = sorted(set(_check_qubit_labels(n, keep)))
    if not kept:
        raise ValueError("keep set must be nonempty")
    rest = [q for q in range(1, n + 1) if q not in kept]
    psi = state.amplitudes.reshape([2] * n)
    m = psi.transpose([q - 1 for q in kept] + [q - 1 for q in rest]).reshape(2 ** len(kept), -1)
    return len(kept), m @ m.conj().T


def pure_marginal(state: PureState, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state without forming the full projector."""
    return DensityMatrix(*_marginal_entries(state, keep))


def single_qubit_spectra(*states: PureState) -> np.ndarray:
    """Each qubit's marginal spectrum, ascending, one row per qubit, the states' rows in order (qubit q of the first
    state in row q - 1): one eigvalsh on the stacked Grams of every state, no `DensityMatrix`.  The dense oracle of
    `measures.marginal_spectrum`."""
    grams = []
    for state in states:
        for q in range(state.num_qubits):  # qubit q + 1's bit indexes the rows, the other qubits' bits the columns
            m = state.amplitudes.reshape(2**q, 2, -1).swapaxes(0, 1).reshape(2, -1)
            grams.append(m @ m.conj().T)
    return np.linalg.eigvalsh(np.array(grams))


def spectrum_entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum(l log2 l) along each row of single-qubit eigenvalues, in bits, with 0 log 0 := 0 for l <= 1e-14.

    One unmasked log2 over the stack, each dropped eigenvalue replaced by 1 (a log2 with ``where=`` runs another
    loop, which rounds some values differently)."""
    kept = np.where(spectra > ENTROPY_CUTOFF, spectra, 1.0)
    return -(kept * np.log2(kept)).sum(axis=-1)


def entropy_of_eigenvalues(evals: np.ndarray) -> float:
    """-sum(l log2 l) over a density matrix's eigenvalues, in bits, with 0 log 0 := 0: the per-spectrum form of
    `spectrum_entropies`."""
    evals = evals[evals > ENTROPY_CUTOFF]
    return float(-np.sum(evals * np.log2(evals)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho) in bits, with 0 log 0 := 0."""
    return entropy_of_eigenvalues(np.linalg.eigvalsh(rho.entries))


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float = 1e-10) -> bool:
    """True iff |<a|b>| >= 1 - tol."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)


def is_product_state(state: PureState, tol: float = PRODUCT_TOL) -> bool:
    """True iff every single-qubit marginal is pure within tol."""
    if state.num_qubits == 1:
        return True
    for q in range(1, state.num_qubits + 1):
        low = float(np.linalg.eigvalsh(_marginal_entries(state, [q])[1])[0])
        if low > tol:
            return False
    return True


def min_marginal_eigenvalues(slots: np.ndarray) -> np.ndarray:
    """The smaller eigenvalue of each qubit j's marginal, d_j / (1/2 + sqrt(1/4 - d_j)) without cancellation, for
    every output held as its N slots along the last axis of ``slots``: the array form of `protocol.bell_table`'s
    product flag, which takes the largest d_j alone.

    The marginal holds |a_j|^2 on the flipped bit and a_0 a_j*, so d_j = |a_j|^2 sum_{i not 0, j} |a_i|^2."""
    flipped = slots[..., 1:]
    flips = (flipped * flipped.conj()).real
    det = flips * (flips.sum(axis=-1, keepdims=True) - flips)
    return det / (0.5 + np.sqrt(np.maximum(0.25 - det, 0.0)))


def numpy_bell_table(q: UnknownQubit, z: ZsaAmplitudes,
                     dropped: tuple[BellOutcome, ...] = ()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(probabilities (4,), slots (4, N), product flags (4,)) of every Bell branch, by outcome value, the numpy way
    that `protocol.bell_table` does in plain floats: the stacked conjugated Bell vectors contracted with v_a c_k, one
    broadcast divide by the square roots of the probabilities, one multiply by each outcome's correction signs and
    `min_marginal_eigenvalues` of every row, each of the four built on its own.  The products v_a c_k are the
    `_products`, as the table forms them.  The Bell vectors of the outcomes in ``dropped`` are taken as zero.
    """
    bell = np.array([np.zeros(4) if o in dropped else BELL_VECTORS[o] for o in BellOutcome], dtype=complex)
    outer = np.array(_products(q, z))[:, None]  # [a, -, k]: v_a c_k
    projected = (bell.conj().reshape(4, 2, 2, 1) * outer).sum(axis=1)  # [outcome, bit of party 1, k]
    slots = projected[:, 0]
    slots[:, 0] = projected[:, 1, 0]
    probs = np.array([math.fsum(parts) for parts in (slots.view(np.float64) ** 2).tolist()])
    scale = np.where(probs >= DEGENERATE_PROBABILITY, np.sqrt(probs), 1.0)
    n = z.num_parties - 1
    signs = np.array([[e_ref**n, *[e_ref ** (n - 1) * e_flip] * n] for _, e_ref, e_flip in CORRECTIONS.values()])
    slots = slots / scale[:, None] * signs + 0.0
    return probs, slots, min_marginal_eigenvalues(slots).max(axis=-1) <= PRODUCT_TOL


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


def cobweb_state(q: UnknownQubit, z: ZsaAmplitudes, reference_bit: int) -> CobwebState:
    """Build the normalized output state directly from its definition: the slots of the dense target, with its
    closed-form constant, N(beta) for reference bit 1, else N(alpha).  `bell_table`'s PsiMinus row is -1 times its
    reference-0 slots and its PhiMinus row +1 times its reference-1 slots, within rounding."""
    raw = target_vector(q.vector(), z, reference_bit)
    slots = raw[slot_positions(z.num_parties - 1, reference_bit)] / np.linalg.norm(raw)
    return CobwebState(reference_bit=reference_bit, zsa=z, qubit=q, slots=tuple(slots.view(np.float64).tolist()),
                       norm_constant=normalization_constants(q, z)[reference_bit])


def orthogonal_complement(q: UnknownQubit) -> np.ndarray:
    """The vector alpha|1> - beta*|0>, orthogonal to q's state."""
    return np.array([-np.conj(q.beta), q.alpha], dtype=complex)


def _products(q: UnknownQubit, z: ZsaAmplitudes) -> list[list[complex]]:
    """v_a c_k for a = 0, 1 and k = 1..N, each a Python ``complex`` multiply: every product and sum rounded once, as
    `protocol.bell_table` forms them, where numpy's complex multiply fuses them under AVX2 and AVX-512."""
    return [[v * c for c in z.coeffs] for v in q.vector().tolist()]


def joint_state(q: UnknownQubit, z: ZsaAmplitudes) -> PureState:
    """|psi>_a tensor the shared state; particle a is the most significant qubit.  Its nonzero cells are the
    `_products`: the Kronecker product of ``q.state()`` and `build_state`, bit for bit where no multiply is fused."""
    _require_protocol(z)
    n = z.num_parties
    amps = np.zeros(2 ** (n + 1), dtype=complex)
    for a, row in enumerate(_products(q, z)):
        amps[[a << n | position for position in slot_positions(n, 0)[1:]]] = row
    return PureState(n + 1, amps)


def bell_projection(q: UnknownQubit, z: ZsaAmplitudes, outcome: BellOutcome) -> tuple[float, np.ndarray]:
    """One Bell branch the dense way: `joint_state` projected onto the outcome's Bell vector on (a, 1).

    The probability is the correctly rounded sum of the residual's squared parts (its zero cells add exactly); the
    slots are its cells at `slot_positions(N - 1, 0)`.
    """
    _, residual = project(joint_state(q, z), (1, 2), BELL_VECTORS[outcome])
    return math.fsum((residual.view(np.float64) ** 2).tolist()), residual[slot_positions(z.num_parties - 1, 0)]


def project_qubit(state: PureState, k: int, outcome: int) -> tuple[float, PureState]:
    """Measure qubit k in the computational basis and keep the given outcome.

    Returns the Born probability and the renormalized residual state of the
    remaining qubits.  Raises ImpossibleOutcome when the probability vanishes.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    target = np.zeros(2, dtype=complex)
    target[outcome] = 1.0
    prob, residual = project(state, [k], target)
    if prob < IMPOSSIBLE_PROBABILITY:
        raise ImpossibleOutcome(
            f"outcome {outcome} on qubit {k} has probability {prob:.3e}"
        )
    return prob, PureState(state.num_qubits - 1, residual / math.sqrt(prob))


def _exact_cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x by their Taylor series, each summed until a term no longer changes it."""
    sums = []
    for term, k in ((Decimal(1), 0), (x, 1)):
        total = term
        while True:
            term = -term * x * x / ((k + 1) * (k + 2))
            k += 2
            if total + term == total:
                break
            total += term
        sums.append(total)
    return sums[0], sums[1]


def _exact_weights(z: ZsaAmplitudes) -> list[Decimal]:
    """Each |c_k|^2, the sum of the squares of its float parts; call it in the `_EXACT` context."""
    return [Decimal(c.real) ** 2 + Decimal(c.imag) ** 2 for c in z.coeffs]


def _exact_output_norms(q: UnknownQubit, z: ZsaAmplitudes) -> tuple[Decimal, Decimal]:
    """The squared norms of the unnormalized reference-0 and reference-1 outputs: alpha^2 |c_1|^2 + |beta|^2
    sum_{k>=2} |c_k|^2, and the same with alpha and |beta| swapped.  They do not assume that sum |c_k|^2 = 1."""
    cos, sin = _exact_cos_sin(Decimal(q.theta) / 2)
    alpha2, beta2 = cos * cos, sin * sin
    first, *rest = _exact_weights(z)
    others = sum(rest)
    return alpha2 * first + beta2 * others, beta2 * first + alpha2 * others


def exact_branch_probabilities(q: UnknownQubit, z: ZsaAmplitudes) -> tuple[Decimal, ...]:
    """Each Bell branch's probability, by outcome value: half the squared norm of its output (a Bell vector's entries
    are +-1/sqrt 2), so P(Phi+-) = 1 / (2 N(beta)^2) and P(Psi+-) = 1 / (2 N(alpha)^2)."""
    with decimal.localcontext(_EXACT):
        psi, phi = (norm / 2 for norm in _exact_output_norms(q, z))
        return phi, phi, psi, psi


def exact_norm_constants(q: UnknownQubit, z: ZsaAmplitudes) -> tuple[Decimal, Decimal]:
    """N(alpha) and N(beta): one over the norm of the unnormalized reference-0 and reference-1 outputs."""
    with decimal.localcontext(_EXACT):
        return tuple(1 / norm.sqrt() for norm in _exact_output_norms(q, z))


def exact_binary_entropy(p) -> Decimal:
    """H2(p) = -p log2 p - (1 - p) log2 (1 - p) of ``p``, a float or a decimal, with 0 log 0 := 0."""
    with decimal.localcontext(_EXACT):
        x = Decimal(p)
        return -sum(y * y.ln() for y in (x, 1 - x) if y) / Decimal(2).ln()


def exact_marginal_spectrum(parts, j: int) -> tuple[Decimal, Decimal]:
    """Qubit j's marginal spectrum of a one-hot row of (re, im) floats, ascending, as `measures.marginal_spectrum`
    defines it: the eigenvalues of [[top, a_0 a_j*], [., s]], with s = |a_j|^2 and top the sum of every other
    |a_k|^2.  The smaller is the determinant s r over the larger, r the sum of the other flipped |a_k|^2."""
    with decimal.localcontext(_EXACT):
        weights = [Decimal(re) ** 2 + Decimal(im) ** 2 for re, im in zip(parts[::2], parts[1::2])]
        s, top = weights[j], sum(weights) - weights[j]
        large = (top + s) / 2 + (((top - s) / 2) ** 2 + weights[0] * s).sqrt()
        return s * (top - weights[0]) / large, large


def exact_two_level_spectrum(trace, det) -> tuple[Decimal, Decimal]:
    """(smaller, larger) eigenvalue of a 2x2 Hermitian matrix of this trace and determinant, for floats or decimals:
    (trace + sqrt(trace^2 - 4 det)) / 2, and det over it, which `EXACT_DIGITS` would not hold as (trace - sqrt(...)) / 2
    at det = 1e-61.  A negative discriminant, which only a rounded determinant reaches, gives the degenerate pair
    (trace/2, trace/2), as in `linalg.two_level_spectrum`."""
    with decimal.localcontext(_EXACT):
        trace, det = Decimal(trace), Decimal(det)
        large = (trace + max(trace * trace - 4 * det, Decimal(0)).sqrt()) / 2
        return min(det / large, large), large


def exact_two_level_entropy(det) -> tuple[Decimal, Decimal]:
    """The smaller root of trace 1 and determinant ``det``, a float or a decimal, and its H2: the exact value of a
    two-level entropy, an output's `entanglement_bits` or an entanglement of formation."""
    with decimal.localcontext(_EXACT):
        small = exact_two_level_spectrum(1, det)[0]
        return small, exact_binary_entropy(small)


def exact_eof(con: float) -> tuple[Decimal, Decimal]:
    """`exact_two_level_entropy` at the determinant C^2/4 of the float concurrence ``con``, taken exactly."""
    with decimal.localcontext(_EXACT):
        return exact_two_level_entropy(Decimal(con) ** 2 / 4)


def exact_ppt_spectrum(z: ZsaAmplitudes) -> tuple[Decimal, Decimal]:
    """(smaller, larger) eigenvalue of the block [[|c_1|^2, c_2 c_3*], [., 0]] of the tripartite pair marginal's
    partial transpose: trace |c_1|^2 and determinant -|c_2|^2 |c_3|^2."""
    with decimal.localcontext(_EXACT):
        a1, a2, a3 = _exact_weights(z)
        return exact_two_level_spectrum(a1, -a2 * a3)


def exact_obstruction(q: UnknownQubit, z: ZsaAmplitudes) -> Decimal:
    """The obstruction modulus 2 N(alpha) N(beta) alpha |beta| |Re(c_2 c_3*)| of a tripartite state."""
    with decimal.localcontext(_EXACT):
        n_alpha, n_beta = exact_norm_constants(q, z)
        alpha, beta = _exact_cos_sin(Decimal(q.theta) / 2)
        _, _, r2, i2, r3, i3 = (Decimal(x) for x in z.parts)
        return 2 * n_alpha * n_beta * alpha * abs(beta) * abs(r2 * r3 + i2 * i3)


def exact_recovery_probability(q: UnknownQubit, z: ZsaAmplitudes) -> Decimal:
    """The CNOT recovery probability (|c_2|^2 + |c_3|^2 + 2 Re(c_2* c_3)) / (2 (|c_2|^2 + |c_3|^2 + 2 alpha^2
    Re(c_2* c_3))) of a tripartite state, the form that cancels in floats near a pole."""
    with decimal.localcontext(_EXACT):
        cos, _ = _exact_cos_sin(Decimal(q.theta) / 2)
        _, a2, a3 = _exact_weights(z)
        _, _, r2, i2, r3, i3 = (Decimal(x) for x in z.parts)
        cross = r2 * r3 + i2 * i3
        return (a2 + a3 + 2 * cross) / (2 * (a2 + a3 + 2 * cos * cos * cross))


def relative_error(value: float, exact: Decimal) -> float:
    """|value - exact| / |exact| for a nonzero exact value."""
    with decimal.localcontext(_EXACT):
        return float(abs(Decimal(value) - exact) / abs(exact))
