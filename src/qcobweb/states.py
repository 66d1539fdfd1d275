"""Zero-sum-amplitude (ZSA) entangled states.

The special ZSA class puts one complex amplitude c_k on each one-hot basis
string |x_k> (all zeros except a single 1 at party k), with sum(c_k) = 0 and
sum(|c_k|^2) = 1 and every c_k nonzero.  `ZsaAmplitudes` checks these once,
in plain floats: each sum correctly rounded by `math.fsum`, each modulus
libm's hypot (complex ``abs``), so no figure depends on the BLAS kernel or on
numpy's SIMD dispatch.
"""
from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import CONSTRUCTION_TOL, DensityMatrix, PureState

ZERO_AMPLITUDE_TOL = 1e-12
MIN_RANDOM_AMPLITUDE = 1e-3  # generator rejects smaller magnitudes after normalization
MAX_DENSE_QUBITS = 20


class ZsaValidationError(ValueError):
    """A coefficient list failed one of the ZSA invariants.

    ``residual`` carries the measured size of the violation.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


class ZeroSumViolation(ZsaValidationError):
    pass


class NormalizationViolation(ZsaValidationError):
    pass


class ZeroAmplitude(ZsaValidationError):
    pass


class AmplitudeFileError(ValueError):
    """An amplitude JSON document is structurally malformed."""


def _fsum(values) -> float:
    """`math.fsum`, or inf where a partial sum of finite values passes the largest double."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _sums(parts: tuple[float, ...]) -> tuple[complex, float]:
    """The sum and the squared norm of finite amplitudes given as their interleaved (re, im) parts.

    Each real figure is the correctly rounded sum of its terms: of the real or imaginary parts, or of the 2N
    squared parts, each square rounded once.  A sum past the largest double reads inf.
    """
    return complex(_fsum(parts[0::2]), _fsum(parts[1::2])), _fsum(map(operator.mul, parts, parts))


@dataclass(frozen=True, eq=False)
class ZsaAmplitudes:
    """One amplitude per party: zero sum, unit norm, all entries nonzero.

    ``coeffs`` is a tuple of Python ``complex``, from any array-like.  The invariants are checked once, in plain floats
    (`_sums`), and their figures kept: ``parts``, the (re, im) floats of ``coeffs`` in turn, ``amplitude_sum``,
    ``squared_norm`` and ``min_modulus``, the smallest ``abs`` (libm's hypot) of an amplitude.
    """

    coeffs: tuple[complex, ...]
    parts: tuple[float, ...] = field(init=False, repr=False)
    amplitude_sum: complex = field(init=False, repr=False)
    squared_norm: float = field(init=False, repr=False)
    min_modulus: float = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex).reshape(-1)
        if arr.size < 2:
            raise ValueError(f"need at least 2 coefficients, got {arr.size}")
        values = tuple(arr.tolist())
        if not all(map(cmath.isfinite, values)):  # both parts finite
            raise ValueError("coefficients must be finite")
        parts = tuple(arr.view(np.float64).tolist())
        total, sq = _sums(parts)
        try:
            size = abs(total)
        except OverflowError:  # finite parts whose modulus passes the largest double
            size = math.inf
        if not size <= CONSTRUCTION_TOL:
            raise ZeroSumViolation(f"coefficients sum to {total!r} (|sum| = {size:.6e}, required 0)", size)
        if abs(sq - 1.0) > CONSTRUCTION_TOL:
            raise NormalizationViolation(
                f"squared moduli sum to {sq!r} (deviation {abs(sq - 1.0):.6e} from 1)",
                abs(sq - 1.0),
            )
        smallest = min(map(abs, values))  # every modulus is at most about 1 here, so none overflows
        if smallest <= ZERO_AMPLITUDE_TOL:
            raise ZeroAmplitude(
                f"smallest amplitude magnitude {smallest:.6e} is indistinguishable from 0",
                smallest,
            )
        for name, value in (("coeffs", values), ("parts", parts), ("amplitude_sum", total), ("squared_norm", sq),
                            ("min_modulus", smallest)):
            object.__setattr__(self, name, value)

    @property
    def num_parties(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class UnknownQubit:
    """Qubit parametrized by polar angles: alpha = cos(theta/2), beta = sin(theta/2) e^{i phi}."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi!r}")
        object.__setattr__(self, "phi", phi % (2.0 * math.pi))
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def alpha(self) -> float:
        return math.cos(self.theta / 2.0)

    @property
    def beta(self) -> complex:
        return math.sin(self.theta / 2.0) * complex(math.cos(self.phi), math.sin(self.phi))

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def state(self) -> PureState:
        return PureState(1, self.vector())


def slot_positions(num_qubits: int, reference_bit: int) -> list[int]:
    """Basis positions of the ``num_qubits`` + 1 slots of reference bit r: the all-r string, then qubit j flipped.

    With r = 0 the flipped strings are the one-hot strings |x_1>, ..., |x_n>, in party order.
    """
    top = (1 << num_qubits) - 1 if reference_bit else 0
    return [top, *(top ^ 1 << bit for bit in range(num_qubits - 1, -1, -1))]


def build_state(z: ZsaAmplitudes) -> PureState:
    """The N-qubit state sum_k c_k |x_k>, supported only on one-hot strings."""
    n = z.num_parties
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense statevectors are limited to {MAX_DENSE_QUBITS} qubits")
    amp = np.zeros(2**n, dtype=complex)
    amp[slot_positions(n, 0)[1:]] = z.coeffs
    return PureState(n, amp)


def roots_of_unity_zsa(n: int) -> ZsaAmplitudes:
    """Amplitudes c_k = e^{2 pi i k / n} / sqrt(n), the Nth roots of unity."""
    if n < 2:
        raise ValueError(f"need at least two parties, got {n}")
    k = np.arange(1, n + 1)
    return ZsaAmplitudes(np.exp(2j * np.pi * k / n) / math.sqrt(n))


def epr_zsa() -> ZsaAmplitudes:
    """The two-party coefficients (1/sqrt2, -1/sqrt2); builds the singlet."""
    s = 1.0 / math.sqrt(2.0)
    return ZsaAmplitudes([s, -s])


def random_zsa(num_parties: int, rng: np.random.Generator) -> ZsaAmplitudes:
    """Random ZSA coefficients: complex Gaussian draws with the last entry fixed to minus the partial sum.

    Draws are rejected until every normalized magnitude is at least MIN_RANDOM_AMPLITUDE.
    """
    if num_parties < 2:
        raise ValueError(f"need at least two parties, got {num_parties}")
    while True:
        c = rng.standard_normal(num_parties - 1) + 1j * rng.standard_normal(num_parties - 1)
        c = np.append(c, -c.sum())
        c /= np.linalg.norm(c)
        if np.min(np.abs(c)) >= MIN_RANDOM_AMPLITUDE:
            return ZsaAmplitudes(c)


def reduced_single(z: ZsaAmplitudes, k: int) -> DensityMatrix:
    """Single-party marginal: |c_k|^2 I + (1 - 2|c_k|^2)|0><0| = diag(1-|c_k|^2, |c_k|^2)."""
    if not 1 <= k <= z.num_parties:
        raise ValueError(f"party index {k} out of range 1..{z.num_parties}")
    p = abs(z.coeffs[k - 1]) ** 2
    entries = p * np.eye(2, dtype=complex)
    entries[0, 0] += 1.0 - 2.0 * p
    return DensityMatrix(1, entries)


def reduced_pair(z: ZsaAmplitudes) -> DensityMatrix:
    """Two-party marginal of the tripartite state after tracing out party 1.

    In the pair basis {00, 01, 10, 11}: populations |c1|^2, |c3|^2, |c2|^2
    and the single coherence c2 c3* between |10> and |01>.
    """
    if z.num_parties != 3:
        raise ValueError("pair marginal is defined for the tripartite state")
    c1, c2, c3 = z.coeffs
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = abs(c1) ** 2
    m[1, 1] = abs(c3) ** 2
    m[2, 2] = abs(c2) ** 2
    m[2, 1] = c2 * c3.conjugate()
    m[1, 2] = c2.conjugate() * c3
    return DensityMatrix(2, m)


def _is_finite_number(x) -> bool:
    """A JSON number that is a finite double: an integer past the largest double is not."""
    try:
        return not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(float(x))
    except OverflowError:
        return False


def coefficients_from_document(doc) -> list[complex]:
    """Parse {"coeffs": [[re, im], ...]} into a list of complex numbers, or raise AmplitudeFileError."""
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise AmplitudeFileError('document must be an object with a "coeffs" key')
    raw = doc["coeffs"]
    if not isinstance(raw, list) or not raw:
        raise AmplitudeFileError('"coeffs" must be a nonempty list of [re, im] pairs')
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_finite_number, pair)):
            raise AmplitudeFileError(f"coeffs[{i}] is not a finite [re, im] pair: {pair!r}")
    return [complex(float(re), float(im)) for re, im in raw]


def load_amplitudes(path) -> ZsaAmplitudes:
    """Read and validate an amplitude JSON document; a file that is not UTF-8 JSON raises AmplitudeFileError.

    One read and one strict UTF-8 decode, with text mode's newline translation: text-mode ``json.load``'s errors."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        doc = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (ValueError, RecursionError) as exc:  # bad bytes or JSON, an integer past the digit limit, deep nesting
        raise AmplitudeFileError(str(exc)) from exc
    return ZsaAmplitudes(coefficients_from_document(doc))
