"""Shared test utilities: seeded random states, qubits, and unitaries."""
from __future__ import annotations

import math

import numpy as np

from qcobweb.linalg import DensityMatrix, PureState
from qcobweb.protocol import BellOutcome, CobwebState, run_protocol
from qcobweb.states import UnknownQubit, ZsaAmplitudes


def random_qubit(rng: np.random.Generator) -> UnknownQubit:
    """Haar-uniform direction on the Bloch sphere."""
    theta = float(np.arccos(1.0 - 2.0 * rng.random()))
    phi = float(2.0 * np.pi * rng.random())
    return UnknownQubit(theta, phi)


def reference_0_output(q: UnknownQubit, z: ZsaAmplitudes) -> CobwebState:
    """The protocol's reference-0 output, `bell_table`'s PsiMinus row: the output `measures` hands to `obstruction`."""
    return run_protocol(q, z, outcome=BellOutcome.PSI_MINUS).final


def near_pole_sweep(seed: int = 1201, count: int = 200):
    """Seeded (qubit, shared state) pairs that reach the rounding limits of the closed forms: ``count`` shared states
    of 3 to 6 parties with |c_1| log-uniform from 1e-11 to 0.3 (the rest random, the sum zero), each taken with five
    qubits: theta = 0 and pi, theta within 1e-15 to 1e-6 of each pole, and one Haar-random qubit."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, size, angle = int(rng.integers(3, 7)), 10.0 ** rng.uniform(-11, -0.5), 2.0 * math.pi * rng.random()
        c1 = size * complex(math.cos(angle), math.sin(angle))
        rest = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        rest -= rest.mean()
        rest *= math.sqrt(1.0 - size * size) / np.linalg.norm(rest)
        coeffs = np.concatenate([[c1], rest - c1 / (n - 1)])
        z = ZsaAmplitudes(coeffs / np.linalg.norm(coeffs))
        offset = 10.0 ** rng.uniform(-15, -6)
        for theta in (0.0, math.pi, offset, math.pi - offset):
            yield UnknownQubit(theta, 2.0 * math.pi * rng.random()), z
        yield random_qubit(rng), z


def random_pure_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    v = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return PureState(num_qubits, v / np.linalg.norm(v))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density_matrix(num_qubits: int, rng: np.random.Generator, rank: int = 3) -> DensityMatrix:
    d = 2**num_qubits
    m = np.zeros((d, d), dtype=complex)
    weights = rng.random(rank)
    weights /= weights.sum()
    for w in weights:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return DensityMatrix(num_qubits, m)
