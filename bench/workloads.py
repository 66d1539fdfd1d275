"""The three workloads: inputs made from the seed, the calls of one round, and their checks.

A round is the same list of calls in every run of a workload, so every run
attempts whole rounds and the share of failed operations never depends on
the seed or on the run length.  Calls are grouped into batches of equal
make-up; `ops_per_s` is the median over batches.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

CUBE_TRIALS = 1500  # trials per call: about 0.75 s of sampled protocol runs
CUBE_CALLS = 4  # (theta, phi, seed) settings per round
WIDE_PARTIES = 14  # 13 output qubits, so a row carries 8192 amplitudes
WIDE_TRIALS = 16
WIDE_CALLS = 4
SURVEY_PARTIES = range(3, 9)
SURVEY_PER_PARTY = 5  # states of each size in one batch: 30 states, 90 calls
SURVEY_BATCHES = 8  # 240 states per round
# In each batch the state at these sizes is replaced by an invalid file: 3 in 30.
SURVEY_INVALID = {4: ("nonzero-sum", 2), 6: ("zero-amplitude", 2), 8: ("malformed", 3)}


@dataclass
class Output:
    rc: object
    stdout: str
    stderr: str
    messages: str


@dataclass
class Call:
    argv: list[str]
    ops: int
    batch: int
    check: Callable[[Output], None]
    messages_path: str | None = None
    trials: int = 0  # sampled trial rows the call prints


@dataclass
class Workload:
    name: str
    op: str
    calls: list[Call]
    warmup: list[Call]


def _angles(rng: np.random.Generator) -> tuple[float, float]:
    """A polar angle strictly inside (0, pi), so no output is a product state."""
    return float(rng.uniform(0.15, math.pi - 0.15)), float(rng.uniform(0.0, 2.0 * math.pi))


def _run_argv(source: list[str], theta: float, phi: float, trials: int, seed: int) -> list[str]:
    return ["run", *source, "--theta", repr(theta), "--phi", repr(phi), "--trials", str(trials), "--seed", str(seed)]


def _roots(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(1, n + 1) / n) / math.sqrt(n)


def _json_run_call(source, coeffs, theta, phi, trials, seed, batch) -> Call:
    def check(out: Output) -> None:
        checks.check_exit(out.rc, 0, out.stdout, out.stderr)
        checks.check_run_json(out.stdout, checks.RunExpectation(coeffs, theta, phi), trials, seed)

    return Call(_run_argv(source, theta, phi, trials, seed), trials, batch, check, trials=trials)


def cube_trials(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    coeffs = _roots(3)
    calls = []
    for i in range(CUBE_CALLS):
        theta, phi = _angles(rng)
        calls.append(_json_run_call(["--gen", "cube"], coeffs, theta, phi, CUBE_TRIALS,
                                    int(rng.integers(2**62)), batch=i))
    warm = _json_run_call(["--gen", "cube"], coeffs, 1.0, 0.5, 20, seed, batch=0)
    return Workload("cube-trials", "trial row", calls, [warm])


def _session_call(theta, phi, trials, seed, batch, path) -> Call:
    coeffs = _roots(WIDE_PARTIES)
    argv = _run_argv(["--gen", f"roots:{WIDE_PARTIES}"], theta, phi, trials, seed)
    argv += ["--session", "--messages", path, "--format", "csv"]

    def check(out: Output) -> None:
        checks.check_exit(out.rc, 0, out.stdout, out.stderr)
        checks.check_run_csv(out.stdout, out.messages, checks.RunExpectation(coeffs, theta, phi), trials, seed)

    return Call(argv, trials, batch, check, messages_path=path, trials=trials)


def wide_session(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    path = os.path.join(workdir, "messages.jsonl")
    calls = []
    for i in range(WIDE_CALLS):
        theta, phi = _angles(rng)
        calls.append(_session_call(theta, phi, WIDE_TRIALS, int(rng.integers(2**62)), i, path))
    return Workload("wide-session", "trial row", calls, [_session_call(1.0, 0.5, 1, seed, 0, path)])


def _random_coeffs(n: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-sum unit-norm complex amplitudes, every magnitude at least 1e-3."""
    while True:
        c = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        c = np.append(c, -c.sum())
        c /= np.linalg.norm(c)
        if np.min(np.abs(c)) >= 1e-3:
            return c


def _write_coeffs(path: str, coeffs: np.ndarray, malformed: bool = False) -> None:
    text = json.dumps({"coeffs": [[float(c.real), float(c.imag)] for c in coeffs]})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2] if malformed else text + "\n")


def _survey_state(path, coeffs, theta, phi, run_seed, batch) -> list[Call]:
    source = ["--coeffs", path]
    validate = Call(["validate", *source], 1, batch,
                    lambda out: (checks.check_exit(out.rc, 0, out.stdout, out.stderr),
                                 checks.check_validate(out.stdout, coeffs)))
    measures = Call(["measures", *source, "--theta", repr(theta), "--phi", repr(phi)], 1, batch,
                    lambda out: (checks.check_exit(out.rc, 0, out.stdout, out.stderr),
                                 checks.check_measures(out.stdout, coeffs, theta, phi)))
    run = _json_run_call(source, coeffs, theta, phi, 1, run_seed, batch)
    return [validate, measures, run]


def _invalid_state(path, theta, phi, wanted_rc, batch) -> list[Call]:
    def check(out: Output) -> None:
        checks.check_exit(out.rc, wanted_rc, out.stdout, out.stderr)

    source = ["--coeffs", path]
    return [
        Call(["validate", *source], 1, batch, check),
        Call(["measures", *source, "--theta", repr(theta), "--phi", repr(phi)], 1, batch, check),
        Call(_run_argv(source, theta, phi, 1, 0), 1, batch, check),
    ]


def state_survey(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    calls = []
    for batch in range(SURVEY_BATCHES):
        for n in SURVEY_PARTIES:
            for j in range(SURVEY_PER_PARTY):
                path = os.path.join(workdir, f"state-{batch}-{n}-{j}.json")
                theta, phi = _angles(rng)
                if j == 0 and n in SURVEY_INVALID:
                    kind, wanted_rc = SURVEY_INVALID[n]
                    if kind == "zero-amplitude":
                        _write_coeffs(path, np.append(_random_coeffs(n - 1, rng), 0.0))
                    else:
                        coeffs = _random_coeffs(n, rng)
                        if kind == "nonzero-sum":
                            coeffs[0] += 1e-3
                            coeffs /= np.linalg.norm(coeffs)
                        _write_coeffs(path, coeffs, malformed=kind == "malformed")
                    calls += _invalid_state(path, theta, phi, wanted_rc, batch)
                else:
                    coeffs = _random_coeffs(n, rng)
                    _write_coeffs(path, coeffs)
                    calls += _survey_state(path, coeffs, theta, phi, int(rng.integers(2**62)), batch)
    # the warm-up touches the same code paths on one valid and one invalid state
    first_invalid = 3 * SURVEY_PER_PARTY
    warm = calls[:3] + calls[first_invalid:first_invalid + 3]
    return Workload("state-survey", "CLI call", calls, warm)


WORKLOADS = {"cube-trials": cube_trials, "wide-session": wide_session, "state-survey": state_survey}
