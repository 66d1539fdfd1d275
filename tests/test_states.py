import dataclasses
import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from qcobweb.linalg import (
    CONSTRUCTION_TOL,
    PureState,
    apply_gate,
    partial_trace,
    state_fidelity,
)
from qcobweb.states import (
    ZERO_AMPLITUDE_TOL,
    AmplitudeFileError,
    NormalizationViolation,
    UnknownQubit,
    ZeroAmplitude,
    ZeroSumViolation,
    ZsaAmplitudes,
    ZsaValidationError,
    _sums,
    build_state,
    coefficients_from_document,
    epr_zsa,
    load_amplitudes,
    random_zsa,
    reduced_pair,
    reduced_single,
    roots_of_unity_zsa,
    slot_positions,
)

from oracles import (
    ImpossibleOutcome,
    basis_state,
    equal_up_to_global_phase,
    numpy_zsa_verdict,
    outer,
    project_qubit,
)

S2 = 1.0 / np.sqrt(2.0)
SINGLET = PureState(2, np.array([0, -S2, S2, 0]))


# --- validation ---------------------------------------------------------------


def test_validate_epr_coefficients():
    z = ZsaAmplitudes([S2, -S2])
    assert z.num_parties == 2


def test_zero_sum_violation():
    with pytest.raises(ZeroSumViolation) as err:
        ZsaAmplitudes([S2, S2])
    assert err.value.residual == pytest.approx(np.sqrt(2), abs=1e-12)


def test_normalization_violation():
    with pytest.raises(NormalizationViolation) as err:
        ZsaAmplitudes([1.0, -1.0])
    assert err.value.residual == pytest.approx(1.0, abs=1e-12)  # |sum of squares - 1|


def test_zero_amplitude():
    with pytest.raises(ZeroAmplitude):
        ZsaAmplitudes([S2, -S2, 0.0])


@pytest.mark.parametrize("coeffs", [
    [1e308 + 1e308j, 1e308 + 1e308j, -1e308],  # the sum overflows to inf
    [1e308, -1e308, 1e-3, 1e-3, 1e308, -1e308, 1e-3, 1e-3],  # numpy's pairwise sum meets inf - inf: nan
    [1.5e308 + 1.5e308j, -1.0, 1.0],  # a finite sum whose modulus overflows complex abs
], ids=["inf-sum", "nan-sum", "inf-modulus"])
def test_coefficients_near_the_largest_double_fail_the_zero_sum_check(coeffs):
    """Finite parts whose sum or its modulus overflows raise a `ZeroSumViolation`, not numpy's RuntimeWarning (an
    error here) or an OverflowError."""
    with pytest.raises(ZeroSumViolation, match="coefficients sum to"):
        ZsaAmplitudes(coeffs)


@pytest.mark.parametrize("coeffs", [
    [1e154, -1e154, 1e154, -1e154],  # each square is finite, their sum is not: `math.fsum` overflows
    [1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j],  # each square is inf; numpy's zdotc reads nan, which no bound refuses
], ids=["fsum-overflow", "inf-squares"])
def test_squared_parts_past_the_largest_double_fail_the_norm_check(coeffs):
    with pytest.raises(NormalizationViolation) as err:
        ZsaAmplitudes(coeffs)
    assert str(err.value) == "squared moduli sum to inf (deviation inf from 1)"
    assert err.value.residual == math.inf


def test_the_check_keeps_its_figures_read_only():
    z = roots_of_unity_zsa(5)
    for name in ("parts", "amplitude_sum", "squared_norm", "min_modulus"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(z, name, 0.0)
    with pytest.raises(TypeError):
        ZsaAmplitudes(z.coeffs, squared_norm=1.0)


def test_coeffs_is_the_checks_complex_tuple():
    """``coeffs`` is a tuple of Python ``complex``, whatever array-like holds the input, and its real and imaginary
    parts are ``parts`` bit for bit, signed zeros included; no field of the check is a numpy array."""
    s = 1.0 / math.sqrt(2.0)
    sources = [roots_of_unity_zsa(5), random_zsa(6, np.random.default_rng(28)), epr_zsa(),
               ZsaAmplitudes([complex(s, -0.0), complex(-s, 0.0)]), ZsaAmplitudes(np.array([[s], [-s]])),
               ZsaAmplitudes(coefficients_from_document({"coeffs": [[0.0, s], [-0.0, -s]]}))]
    for z in sources:
        assert type(z.coeffs) is tuple and {type(c) for c in z.coeffs} == {complex}
        assert z.num_parties == len(z.coeffs) == len(z.parts) // 2
        parts = [x for c in z.coeffs for x in (c.real, c.imag)]
        assert struct.pack(f"{len(parts)}d", *parts) == struct.pack(f"{len(parts)}d", *z.parts)
        assert not any(isinstance(getattr(z, f.name), np.ndarray) for f in dataclasses.fields(z))


def _exact_sums(parts: list[float]) -> tuple[complex, float]:
    """The sum and the squared norm of interleaved (re, im) parts, in exact rationals rounded once to a double; each
    square is the double ``x * x``, as in the check."""
    re, im = (float(sum(map(Fraction, half))) for half in (parts[0::2], parts[1::2]))
    return complex(re, im), float(sum(Fraction(x * x) for x in parts))


def _sweep_parts(rng: np.random.Generator, n: int) -> list[float]:
    """2n parts of log-uniform magnitude from 1e-150 to 1e150 and random sign; for odd n the last amplitude cancels
    the numpy sum of the others, leaving a residual far below the parts."""
    parts = (rng.choice([-1.0, 1.0], 2 * n) * 10.0 ** rng.uniform(-150.0, 150.0, 2 * n)).tolist()
    if n % 2:
        head = np.array(parts[:-2]).view(complex).sum()
        parts[-2:] = [-head.real, -head.imag]
    return parts


def test_the_check_figures_are_correctly_rounded():
    """Exact oracle: the sum's parts and the squared norm equal exact rational sums rounded once, bit for bit, over
    N = 2..64 and 1000 with parts from 1e-150 to 1e150 and near-cancelling sums; the smallest modulus is the smallest
    ``abs`` of the stored amplitudes, on seeded valid states, whose ``parts`` are their (re, im) floats in turn."""
    rng = np.random.default_rng(3301)
    for n in [*range(2, 65), 1000]:
        for _ in range(8 if n < 1000 else 2):
            parts = _sweep_parts(rng, n)
            assert _sums(parts) == _exact_sums(parts), (n, parts)
            z = random_zsa(n, rng)
            assert z.parts == tuple(np.array(z.coeffs).view(np.float64).tolist())
            assert (z.amplitude_sum, z.squared_norm) == _exact_sums(z.parts)
            assert z.min_modulus == min(abs(c) for c in z.coeffs)


def _near_bound(rng: np.random.Generator, n: int, offset) -> np.ndarray:
    """A seeded valid state moved by about ``offset()`` across one bound: its sum, its squared norm, or one modulus."""
    c = np.array(random_zsa(n, rng).coeffs)
    kind, phase = int(rng.integers(3)), np.exp(2j * np.pi * rng.random())
    if kind == 0:
        c[0] += offset() * phase
    elif kind == 1:
        c *= math.sqrt(1.0 + offset() * rng.choice([-1.0, 1.0]))
    else:
        k = int(rng.integers(n))
        c[(k + 1) % n] += c[k] - offset() * phase
        c[k] = offset() * phase
        c /= np.linalg.norm(c)
    return c


def test_the_check_matches_the_numpy_check():
    """Differential check against the numpy reductions the check replaced (`oracles.numpy_zsa_verdict`).

    On states moved across a bound by 1e-13 to 1e-11, and on parts from 1e-150 to 1e150, both raise the same class,
    or none.  On states within 2e-15 of a bound they may differ, and only where the deciding figure lies within 1e-15
    of its bound: there the numpy sums' own rounding (a pairwise sum, an OpenBLAS zdotc) decides.  Parts that cancel
    numpy's own pairwise sum are left out: numpy's residual reads 0 there by construction, whatever the exact one.
    """
    rng = np.random.default_rng(3302)

    def verdict(coeffs):
        try:
            ZsaAmplitudes(coeffs)
        except ZsaValidationError as err:
            return type(err)
        return None

    sizes = [*range(2, 65), 1000]
    wide = [np.array(_sweep_parts(rng, n)).view(complex) for n in sizes if n % 2 == 0]
    moved = [_near_bound(rng, n, lambda: 10.0 ** rng.uniform(-13.0, -11.0)) for n in sizes for _ in range(8)]
    for coeffs in wide + moved:
        assert verdict(coeffs) is numpy_zsa_verdict(coeffs), coeffs
    edge = [_near_bound(rng, n, lambda: 1e-12 + rng.uniform(-2e-15, 2e-15)) for n in sizes for _ in range(8)]
    differ = [c for c in edge if verdict(c) is not numpy_zsa_verdict(c)]
    for c in differ:
        total, sq = _sums(c.view(np.float64).tolist())
        gaps = (abs(abs(total) - CONSTRUCTION_TOL), abs(abs(sq - 1.0) - CONSTRUCTION_TOL),
                abs(min(abs(c)) - ZERO_AMPLITUDE_TOL))
        assert min(gaps) <= 1e-15, (c, gaps)
    assert len(differ) < len(edge) // 10


def test_too_short():
    with pytest.raises(ValueError):
        ZsaAmplitudes([1.0])


# --- construction -------------------------------------------------------------


def test_build_state_epr_is_singlet():
    state = build_state(epr_zsa())
    assert state_fidelity(state, SINGLET) >= 1 - 1e-12
    assert state.amplitudes[slot_positions(2, 0)[1]] == pytest.approx(S2)
    assert state.amplitudes[slot_positions(2, 0)[2]] == pytest.approx(-S2)


def test_build_state_cube_roots():
    z = roots_of_unity_zsa(3)
    state = build_state(z)
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(state.amplitudes[4], w / np.sqrt(3), atol=1e-15)
    np.testing.assert_allclose(state.amplitudes[2], w.conjugate() / np.sqrt(3), atol=1e-15)
    np.testing.assert_allclose(state.amplitudes[1], 1 / np.sqrt(3), atol=1e-15)


def test_build_state_support():
    rng = np.random.default_rng(3)
    for n in (3, 4, 6):
        z = random_zsa(n, rng)
        amps = build_state(z).amplitudes
        support = {slot_positions(n, 0)[k] for k in range(1, n + 1)}
        for idx in range(2**n):
            if idx not in support:
                assert amps[idx] == 0.0


def test_roots_of_unity():
    z2 = roots_of_unity_zsa(2)
    np.testing.assert_allclose(z2.coeffs, [-S2, S2], atol=1e-15)
    assert state_fidelity(build_state(z2), SINGLET) >= 1 - 1e-12

    # the cube-roots assignment rotated by one root is the same physical state
    w = np.exp(2j * np.pi / 3)
    literal = ZsaAmplitudes(np.array([1.0, w, w.conjugate()]) / np.sqrt(3))
    assert equal_up_to_global_phase(build_state(roots_of_unity_zsa(3)), build_state(literal), 1e-12)

    assert abs(np.sum(roots_of_unity_zsa(5).coeffs)) < 1e-14
    with pytest.raises(ValueError):
        roots_of_unity_zsa(1)


def test_roots_of_unity_zero_sum_holds_at_a_million_parties():
    # the summed rounding of 10^6 roots drifts to about 1.1e-13, still inside the construction tolerance
    z = roots_of_unity_zsa(10**6)
    assert z.num_parties == 10**6
    assert abs(complex(np.sum(z.coeffs))) <= CONSTRUCTION_TOL
    assert abs(float(np.vdot(z.coeffs, z.coeffs).real) - 1.0) <= CONSTRUCTION_TOL


def test_random_zsa_invariants():
    rng = np.random.default_rng(41)
    for n in (2, 3, 5, 8):
        z = random_zsa(n, rng)
        assert abs(np.sum(z.coeffs)) < 1e-12
        assert abs(np.vdot(z.coeffs, z.coeffs).real - 1) < 1e-12
        assert np.min(np.abs(z.coeffs)) >= 1e-3
    a = random_zsa(4, np.random.default_rng(99)).coeffs
    b = random_zsa(4, np.random.default_rng(99)).coeffs
    np.testing.assert_array_equal(a, b)


# --- marginals ----------------------------------------------------------------


def test_reduced_single_closed_forms():
    cube = roots_of_unity_zsa(3)
    for k in (1, 2, 3):
        np.testing.assert_allclose(
            reduced_single(cube, k).entries, np.diag([2 / 3, 1 / 3]), atol=1e-15
        )
    np.testing.assert_allclose(reduced_single(epr_zsa(), 1).entries, np.eye(2) / 2, atol=1e-15)
    for n in (4, 7):
        z = roots_of_unity_zsa(n)
        np.testing.assert_allclose(
            reduced_single(z, 2).entries, np.diag([1 - 1 / n, 1 / n]), atol=1e-14
        )
    with pytest.raises(ValueError):
        reduced_single(cube, 4)


def test_reduced_single_matches_partial_trace():
    # closed form vs the full partial-trace oracle on 1000 random states
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        z = random_zsa(n, rng)
        k = int(rng.integers(1, n + 1))
        oracle = partial_trace(outer(build_state(z)), [k])
        assert np.max(np.abs(reduced_single(z, k).entries - oracle.entries)) < 1e-11


def test_reduced_pair_cube_roots():
    z = roots_of_unity_zsa(3)
    rho = reduced_pair(z)
    np.testing.assert_allclose(np.diag(rho.entries).real, [1 / 3, 1 / 3, 1 / 3, 0], atol=1e-15)
    assert abs(rho.entries[2, 1]) == pytest.approx(1 / 3, abs=1e-15)


def test_reduced_pair_matches_partial_trace():
    rng = np.random.default_rng(77)
    for _ in range(200):
        z = random_zsa(3, rng)
        oracle = partial_trace(outer(build_state(z)), [2, 3])
        rho = reduced_pair(z)
        assert np.max(np.abs(rho.entries - oracle.entries)) < 1e-12
        assert abs(np.trace(rho.entries) - 1) < 1e-12
        assert rho.entries[3, 3] == 0.0  # no |11> population on one-hot support


# --- projections ---------------------------------------------------------------


def test_project_qubit_fragility():
    rng = np.random.default_rng(19)
    z = random_zsa(3, rng)
    state = build_state(z)
    c1, c2, c3 = z.coeffs

    p0, residual0 = project_qubit(state, 1, 0)
    expected = np.zeros(4, dtype=complex)
    expected[2], expected[1] = c2, c3  # c2|10> + c3|01>
    expected /= np.linalg.norm(expected)
    assert state_fidelity(residual0, PureState(2, expected)) >= 1 - 1e-12
    # the residual pair state keeps its |10><01| coherence: still entangled
    assert abs(outer(residual0).entries[2, 1]) > 0.01

    p1, residual1 = project_qubit(state, 1, 1)
    assert state_fidelity(residual1, basis_state(2, 0)) >= 1 - 1e-12  # product
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_project_onto_one_always_disentangles():
    rng = np.random.default_rng(21)
    for n in (3, 4, 5):
        z = random_zsa(n, rng)
        state = build_state(z)
        for k in range(1, n + 1):
            _, residual = project_qubit(state, k, 1)
            assert state_fidelity(residual, basis_state(n - 1, 0)) >= 1 - 1e-12


def test_project_qubit_impossible_outcome():
    with pytest.raises(ImpossibleOutcome):
        project_qubit(basis_state(2, 0), 1, 1)


# --- local phases ----------------------------------------------------------------


def test_magnitudes_invariant_under_extra_phases():
    rng = np.random.default_rng(37)
    z = random_zsa(3, rng)
    magnitudes = np.abs(z.coeffs)
    state = build_state(z)
    for k in range(1, 4):
        state = apply_gate(state, [k], np.diag([1, np.exp(1j * rng.random())]))
    np.testing.assert_allclose(
        np.sort(np.abs(state.amplitudes[np.abs(state.amplitudes) > 0])),
        np.sort(magnitudes),
        atol=1e-15,
    )


# --- unknown qubit ----------------------------------------------------------------


def test_unknown_qubit_parametrization():
    for theta in np.linspace(0, np.pi, 7):
        for phi in (0.0, 1.0, 5.5):
            q = UnknownQubit(theta, phi)
            assert abs(q.alpha**2 + abs(q.beta) ** 2 - 1) < 1e-14
            assert q.alpha >= 0
    with pytest.raises(ValueError):
        UnknownQubit(-0.1)
    with pytest.raises(ValueError):
        UnknownQubit(3.5)
    assert UnknownQubit(1.0, 2 * np.pi + 0.25).phi == pytest.approx(0.25)


@pytest.mark.parametrize("phi", [float("nan"), float("inf"), float("-inf")])
def test_unknown_qubit_rejects_non_finite_phi(phi):
    with pytest.raises(ValueError, match="phi"):
        UnknownQubit(1.0, phi)


# --- JSON I/O ----------------------------------------------------------------------


def test_amplitude_json_round_trip(tmp_path):
    rng = np.random.default_rng(53)
    z = random_zsa(5, rng)
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in z.coeffs]}))
    loaded = load_amplitudes(path)
    np.testing.assert_array_equal(loaded.coeffs, z.coeffs)  # repr floats are lossless


@pytest.mark.parametrize(
    "doc",
    [
        {"wrong": []},
        {"coeffs": []},
        {"coeffs": [[0.5, 0.0, 1.0]]},
        {"coeffs": [["abc", 0.0]]},
        {"coeffs": [[True, 0.0]]},
        {"coeffs": "not a list"},
    ],
)
def test_malformed_amplitude_documents(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(AmplitudeFileError):
        load_amplitudes(path)


_PAIR = b"[0.7071067811865476, 0]", b"[-0.7071067811865476, 0]"  # the EPR coefficients, a valid document's


@pytest.mark.parametrize("raw", [
    b'{"coeffs": [%s, %s]}' % _PAIR,
    b'{"coeffs":\r\n [%s,\r\n %s]}\r\n' % _PAIR,
    b'\xef\xbb\xbf{"coeffs": [%s, %s]}' % _PAIR,
    b'\xff\xfe{"coeffs": [[1, 0]]}',
    b'{"coeffs": [["\xc3\xa9", 0]]} \xe9',
    b'{"coeffs":\r\n [%s,\r\n %s\r\n' % _PAIR,
    b'{"coeffs":\r [%s,\r %s %s]}' % (*_PAIR, _PAIR[0]),
    b'{"coeffs": [["a\rb", 0]]}',
    b'{"coeffs": [%s\n\r\n\r, %s]] ' % _PAIR,
    b"",
], ids=["plain", "crlf", "bom", "not-utf8", "bad-byte-late", "crlf-truncated", "cr-missing-comma",
        "cr-in-string", "mixed-newlines", "empty"])
def test_load_amplitudes_reads_as_text_mode_json_load(tmp_path, raw):
    """The one-read byte loader against text-mode ``json.load``: the same coefficients, or the same error text."""
    path = tmp_path / "coeffs.json"
    path.write_bytes(raw)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        with pytest.raises(AmplitudeFileError) as err:
            load_amplitudes(path)
        assert str(err.value) == str(exc)
    else:
        assert list(load_amplitudes(path).coeffs) == coefficients_from_document(doc)


def test_roots_of_unity_large_register_still_validates():
    z = roots_of_unity_zsa(64)
    assert abs(np.sum(z.coeffs)) < 1e-12
    assert abs(np.vdot(z.coeffs, z.coeffs).real - 1) < 1e-12
