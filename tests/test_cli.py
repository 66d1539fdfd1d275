import argparse
import ast
import csv
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcobweb import cli, disentangle, protocol
from qcobweb.cli import main
from qcobweb.protocol import BellOutcome, run_protocol
from qcobweb.session import message_log, run_session
from qcobweb.states import UnknownQubit, ZsaAmplitudes, random_zsa, roots_of_unity_zsa

from oracles import cobweb_state, is_product_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ---------------------------------------------------------------


def test_validate_generator(capsys):
    code, out, _ = run_cli(capsys, "validate", "--gen", "cube")
    assert code == 0
    assert "3 parties" in out


def test_validate_roots_generator(capsys):
    code, out, _ = run_cli(capsys, "validate", "--gen", "roots:6")
    assert code == 0
    assert "6 parties" in out


def _validate_figures(z) -> dict:
    """The four figures `validate` reports, computed here with plain Python sums."""
    coeffs = z.coeffs
    return {"parties": len(coeffs), "sum_residual": abs(sum(coeffs)),
            "norm_deviation": abs(sum(abs(c) ** 2 for c in coeffs) - 1.0),
            "min_abs_coefficient": min(abs(c) for c in coeffs)}


@pytest.mark.parametrize("gen,z", [("cube", roots_of_unity_zsa(3)), ("roots:6", roots_of_unity_zsa(6))])
def test_validate_machine_readable_formats(capsys, tmp_path, gen, z):
    expected = _validate_figures(z)
    code, out, err = run_cli(capsys, "validate", "--gen", gen, "--format", "json")
    assert (code, err) == (0, "")
    figures = json.loads(out)
    assert out == json.dumps(figures) + "\n"
    assert list(figures) == list(expected)
    assert figures["parties"] == expected["parties"]
    for key in ("sum_residual", "norm_deviation", "min_abs_coefficient"):
        assert figures[key] == pytest.approx(expected[key], abs=1e-15)
    text = run_cli(capsys, "validate", "--gen", gen)[1]
    assert text.splitlines()[0] == f"valid ZSA coefficients: {expected['parties']} parties"
    assert [float(line.split("=")[1]) for line in text.splitlines()[1:]] == [
        float(f"{figures[key]:.6e}") for key in ("sum_residual", "norm_deviation", "min_abs_coefficient")]

    path = tmp_path / "figures.csv"
    assert run_cli(capsys, "validate", "--gen", gen, "--format", "csv", "--output", str(path)) == (0, "", "")
    header, *rows = csv.reader(path.read_text().splitlines())
    assert header == ["key", "value"]
    assert rows == [[key, json.dumps(value)] for key, value in figures.items()]


def test_validate_zero_sum_violation(capsys, tmp_path):
    s = 1 / math.sqrt(2)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coeffs": [[s, 0.0], [s, 0.0]]}))
    code, _, err = run_cli(capsys, "validate", "--coeffs", str(path))
    assert code == 2
    assert "ZeroSumViolation" in err


def test_validate_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"coeffs": [["abc", 0.0]]}')
    code, _, err = run_cli(capsys, "validate", "--coeffs", str(path))
    assert code == 3
    path.write_text("not json at all {")
    code, _, _ = run_cli(capsys, "validate", "--coeffs", str(path))
    assert code == 3
    code, _, _ = run_cli(capsys, "validate", "--coeffs", str(tmp_path / "missing.json"))
    assert code == 3
    not_utf8 = b'\xff\xfe{"coeffs": [[1, 0]]}'
    past_double = b'{"coeffs": [[1' + b"0" * 400 + b', 0]]}'
    past_digit_limit = b'{"coeffs": [[1' + b"0" * 4400 + b', 0]]}'
    too_deep = b'{"coeffs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    for raw in (not_utf8, past_double, past_digit_limit, too_deep):
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "validate", "--coeffs", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("input error: ")
    path.write_bytes(not_utf8)
    rows = tmp_path / "rows.jsonl"
    code, _, err = run_cli(capsys, "run", "--coeffs", str(path), "--theta", "1.0", "--output", str(rows))
    assert code == 3
    assert err.startswith("input error: ")
    assert not rows.exists()


def test_coeffs_file_is_read_on_every_call(capsys, tmp_path):
    """A ``--coeffs`` file can change between two calls of one process, so no call reuses what an earlier one read:
    a rewritten file prints its own figures (those of the same state by name), and a truncated one exits 3."""
    path = tmp_path / "s.json"
    for name, z in (("cube", roots_of_unity_zsa(3)), ("roots:4", roots_of_unity_zsa(4))):
        path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in z.coeffs]}))
        code, out, err = run_cli(capsys, "validate", "--coeffs", str(path))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "validate", "--gen", name)[1]
        assert out.startswith(f"valid ZSA coefficients: {z.num_parties} parties\n")
    path.write_text("")
    code, out, err = run_cli(capsys, "validate", "--coeffs", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("input error: ")


@pytest.mark.parametrize("argv", [["validate"], ["measures"], ["run", "--theta", "1.0"]], ids=lambda a: a[0])
def test_coefficients_near_the_largest_double_exit_2_with_one_line(capsys, tmp_path, argv):
    """Sums past the largest double read inf: a sum of parts, the sum's modulus, or the squared norm."""
    path = tmp_path / "huge.json"
    for coeffs, line in [
        ([[1e308, 1e308], [1e308, 1e308], [-1e308, 0]], "ZeroSumViolation: "),
        ([[1.5e308, 1.5e308], [-1, 0], [1, 0]],
         "ZeroSumViolation: coefficients sum to (1.5e+308+1.5e+308j) (|sum| = inf, required 0)\n"),
        ([[1e154, 0], [-1e154, 0], [1e154, 0], [-1e154, 0]],
         "NormalizationViolation: squared moduli sum to inf (deviation inf from 1)\n"),
        ([[1.5e308, 1.5e308], [-1.5e308, -1.5e308]],
         "NormalizationViolation: squared moduli sum to inf (deviation inf from 1)\n"),
    ]:
        path.write_text(json.dumps({"coeffs": coeffs}))
        code, out, err = run_cli(capsys, *argv, "--coeffs", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(line) and err.count("\n") == 1


def test_validate_unknown_generator(capsys):
    code, _, err = run_cli(capsys, "validate", "--gen", "bogus")
    assert code == 2
    assert "unknown generator" in err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_generator_too_large_to_allocate_exits_2(command):
    """A ``roots:N`` whose arrays no machine can map is a bad argument value: one stderr line, exit 2.

    N = 10^17 needs 711 PiB, more than any 57-bit address space holds, so numpy's allocation is refused up front
    under every overcommit setting and the call touches no memory.
    """
    argv = [command, "--gen", "roots:100000000000000000"] + (["--theta", "1.0"] if command == "run" else [])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "qcobweb.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "invalid request: generator 'roots:100000000000000000' needs more memory than can be allocated"]


# --- run ---------------------------------------------------------------------


def test_run_deterministic(capsys):
    argv = ["run", "--gen", "cube", "--theta", "1.2", "--phi", "0.4", "--trials", "25", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_forced_outcome_product_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--gen", "cube", "--theta", "0", "--outcome", "PsiMinus", "--trials", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    assert all(row["outcome"] == "PsiMinus" for row in rows)
    assert all(row["product_state"] == 1 for row in rows)
    summary = json.loads(lines[-1])["summary"]
    assert summary["empirical_PsiMinus"] == 1.0


def test_run_theta_degrees(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--gen", "cube", "--theta-deg", "90", "--outcome", "PhiPlus"
    )
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["reference_bit"] == 1


@pytest.mark.parametrize("command", ["run", "measures"])
@pytest.mark.parametrize("degrees", ["200", "-0.5", "nan"])
def test_theta_degrees_out_of_range_names_the_option(capsys, command, degrees):
    """A `--theta-deg` outside [0, 180] exits 2 with the degrees given, not their value in radians."""
    code, out, err = run_cli(capsys, command, "--gen", "cube", "--theta-deg", degrees)
    assert (code, out) == (2, "")
    assert err == f"invalid request: --theta-deg must lie in [0, 180], got {float(degrees)!r}\n"


def test_run_sampled_frequencies_within_three_sigma(capsys):
    trials = 10000
    code, out, _ = run_cli(
        capsys,
        "run", "--gen", "cube", "--theta", "1.5707963267948966", "--phi", "0",
        "--trials", str(trials), "--seed", "7",
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    for label in ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus"):
        p = summary[f"expected_{label}"]
        emp = summary[f"empirical_{label}"]
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(emp * trials - p * trials) <= 3 * sigma


def _parse_run_csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    summary_line = next(line for line in text.splitlines() if line.startswith("# summary: "))
    summary = json.loads(summary_line[len("# summary: "):])
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    return list(reader), summary


def test_run_csv_json_numeric_parity(capsys, tmp_path):
    argv = ["run", "--gen", "cube", "--theta", "0.9", "--phi", "1.1", "--trials", "8", "--seed", "3"]
    code, json_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0

    json_lines = json_out.strip().splitlines()
    json_rows = [json.loads(line) for line in json_lines[:-1]]
    json_summary = json.loads(json_lines[-1])["summary"]
    csv_rows, csv_summary = _parse_run_csv(csv_out)

    assert json_summary == csv_summary
    assert len(json_rows) == len(csv_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        assert int(crow["trial"]) == jrow["trial"]
        assert crow["outcome"] == jrow["outcome"]
        assert float(crow["probability"]) == jrow["probability"]
        assert float(crow["norm_constant"]) == jrow["norm_constant"]
        for i, (re, im) in enumerate(jrow["final_state"]):
            assert float(crow[f"amp{i}_re"]) == re
            assert float(crow[f"amp{i}_im"]) == im


def test_run_session_summary_and_messages(capsys, tmp_path):
    log = tmp_path / "messages.jsonl"
    code, out, _ = run_cli(
        capsys,
        "run", "--gen", "roots:4", "--theta", "1.0", "--trials", "2", "--seed", "5",
        "--session", "--messages", str(log),
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["cbits_total"] == 6
    assert summary["parties"] == 4
    assert summary["ebits_consumed"] == pytest.approx(0.8112781244591328, abs=1e-12)
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 6  # 3 messages per trial, 2 trials
    assert all(set(json.loads(line)) == {"step", "from", "to", "payload"} for line in lines)


def test_run_output_file(capsys, tmp_path):
    target = tmp_path / "rows.jsonl"
    code, out, _ = run_cli(
        capsys,
        "run", "--gen", "cube", "--theta", "0.3", "--trials", "2", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert len(target.read_text().strip().splitlines()) == 3


def test_run_rejects_bad_trials(capsys):
    code, _, err = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.0", "--trials", "0")
    assert code == 2
    assert "trials" in err


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_run_rejects_non_finite_phi(capsys, phi):
    code, out, err = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.0", f"--phi={phi}")
    assert code == 2
    assert out == ""
    assert "phi" in err


# SHA-256 of stdout and of the --messages file, recorded from the implementation
# that ran every trial through the protocol and buffered all rows (numpy 2.4.6,
# x86-64).  The branch-cached streaming path must reproduce them byte for byte.
# The csv, session-csv, wide-json, wide-forced-json, many-blocks-json and
# seed-2^64-json stdout pins were re-recorded when the Bell probability became
# the correctly rounded sum of the branch's squared slot parts instead of
# OpenBLAS zdotc over the dense residual: probabilities and the amplitudes
# divided by their square roots moved by at most 2 ULP, no other text moved,
# and the bytes stopped depending on the CPU's BLAS kernel.  Every message-log
# pin held.  Every sampled pin (each call without --outcome), stdout and message
# log, was re-recorded when a call's trials came to take successive draws of one
# default_rng(seed) instead of one default_rng([seed, t]) each.  Each new pin was
# first checked against the bytes the previous implementation writes when its
# outcomes are drawn one at a time by Generator.choice on default_rng(seed).
# Thirteen stdout pins (all but session-csv, forced-json, signed-zero-json,
# signed-zero-csv and seed-2^32-json) were re-recorded when `bell_table` came to
# form its products in plain floats, with no fused multiply-add, the norm
# constants the two-term form |beta|^2 (1 - |c_1|^2) + alpha^2 |c_1|^2, and
# `binary_entropy` its log1p form (the ledger's ebits): last bits of
# probabilities, norm constants, amplitudes and expected frequencies moved, no
# outcome moved, and every message-log pin held.  The bytes stopped depending on
# numpy's SIMD dispatch.
GOLDEN_RUNS = [
    (
        ["--gen", "cube", "--theta", "1.2", "--phi", "0.4", "--trials", "40", "--seed", "9"],
        "106ec816c132844e0a457813d3c564783cf96ddfb76c8f775da81430203be234",
        None,
    ),
    (
        ["--gen", "roots:4", "--theta", "0.9", "--phi", "1.1", "--trials", "30", "--seed", "3", "--format", "csv"],
        "81b9b364c36c878e32e555e7364dfdd86e4219adc05bcbf0e2717a20efa4bc04",
        None,
    ),
    (
        ["--gen", "roots:5", "--theta", "1.0", "--phi", "0.2", "--trials", "25", "--seed", "5", "--session"],
        "e667b9007a2c091e051c13a871f7714644bfae6ff0629b4a3b82041b1d09bf18",
        "2c2fb4e7ef0022b782eb1adc7023bf0620a3f4300699543e677c474d347b3ae3",
    ),
    (
        ["--gen", "roots:4", "--theta", "2.0", "--trials", "20", "--seed", "8", "--session", "--format", "csv"],
        "98cffb6d40a30b71dec61fd903417879ade83ab9bc86bb8a5470694ca16867c0",
        "32cccbd169fdcb62dfb89e78ef672f605dd05d4f4c33fcc53ec96e8f37a116d3",
    ),
    (
        ["--gen", "cube", "--theta", "0.7", "--outcome", "PhiMinus", "--trials", "5"],
        "119ffca5c9071c53ac7db4c9b332193c8c978a99ee5b60fc499d59b4fdecf9f8",
        None,
    ),
    (
        ["--gen", "roots:6", "--theta", "2.5", "--phi", "5.0", "--outcome", "PsiPlus", "--trials", "3",
         "--session", "--format", "csv"],
        "7900a1d954925d04b49cea705dfe37c96affb7fc85840556edb115b3d4b594d6",
        "102a908948c8af880454099eab91ab66ad2ee1305e23f63c93f4fe364ca7031d",
    ),
    # Wide rows, recorded from the renderer that ran every amplitude through json.dumps.  The three
    # signed-zero rows printed -0.0 cells left by the dense per-qubit corrections; they are re-pinned
    # with those cells as 0.0, the one byte change of writing each branch on its one-hot support.
    (
        ["--gen", "roots:14", "--theta", "1.1", "--phi", "0.3", "--session", "--format", "csv", "--trials", "5",
         "--seed", "2"],
        "73be7c0b2dfb0659b7ba7a82cbadfa1208c014ed192695e391155393170e0775",
        "e2ce8dacde67d403b72e7d79d00c8fd8cf3f9a919834715cb9230a4a83766e22",
    ),
    (
        ["--gen", "roots:11", "--theta", "0.6", "--phi", "2.2", "--trials", "6", "--seed", "4"],
        "11911979ed334750a79c4918f7ad1daf46ae5d21a5e0f5b913d75d5bad15c3d9",
        None,
    ),
    (
        ["--gen", "roots:12", "--theta", "1.9", "--phi", "0.8", "--outcome", "PhiPlus"],
        "f8bc4407b6b40090ee44b1b5a2b911d10555a5c69b44b85ed4d28f1232280ce5",
        None,
    ),
    (
        ["--gen", "cube", "--theta", "0", "--outcome", "PsiPlus"],
        "9e30cb65d8b751f567a387a0675088b4ec70bcae6d7fdcbb141c47313c49104f",
        None,
    ),
    (
        ["--gen", "cube", "--theta", "0", "--outcome", "PsiPlus", "--format", "csv"],
        "044ecca917eb347ff0d57195f93053db5e3b76bf70f060df60354f51ba5adadb",
        None,
    ),
    (
        ["--gen", "cube", "--theta", "0", "--outcome", "PhiPlus", "--format", "csv"],
        "a7b264075965e2ce6ef172684cb9a63ed1ca7b48a2f48fd69a5583fd08e0ec78",
        None,
    ),
    # Checked against Generator.choice drawing every trial in turn: calls that cross block draws, and
    # seeds of two, three and four 32-bit words.
    (
        ["--gen", "cube", "--theta", "1.3", "--phi", "0.5", "--trials", "5000", "--seed", "12"],
        "a51ede304d6474d4e9bc5abbbc97b434ea30c7e2a3dd2177a3df1859c2b627b3",
        None,
    ),
    (
        ["--gen", "cube", "--theta", "0.9", "--trials", "40", "--seed", "4294967296"],
        "70e63d4c734bb9ba37bf299c7ca3ddd41f422e09164489021c5a8e79348b84e7",
        None,
    ),
    (
        ["--gen", "roots:4", "--theta", "2.1", "--phi", "1.0", "--trials", "40", "--seed", "18446744073709551616"],
        "5586c15a7a9aa08c38ec8099060d53cf7001d38ab6d22673448adb79a0952e07",
        None,
    ),
    (
        ["--gen", "cube", "--theta", "1.7", "--phi", "3.0", "--trials", "40", "--seed",
         "1267650600228229401496703205376", "--format", "csv"],
        "2b9ea035158682f5b2f966e0e495389d5048f21354e397cacb6a4a2a1096c363",
        None,
    ),
    (
        ["--gen", "roots:5", "--theta", "1.4", "--phi", "0.6", "--trials", "300", "--seed", "31", "--session"],
        "4111ec89eee4eea4ed14ab341709674b1038b25d6194b226059ddeb5cb7e33b2",
        "a0795e0e7ac4d2649dcfd76839675e696f8f2ff162dc3de1736459f17c49d9c1",
    ),
    # Recorded from the implementation that drew 128-trial blocks and wrote one row, and one message-log
    # line, per write call: this call crosses two 1024-trial blocks and many write chunks of each file.
    (
        ["--gen", "roots:5", "--theta", "1.4", "--phi", "0.6", "--trials", "2100", "--seed", "31", "--session"],
        "7c9def24c52fc85a59de8e0bac60830a35401ab96ade12ac963bbc81d26db826",
        "ca3a6fc1a7aa8e55506a6758826cacddaa14ebbef992f49009bfd369bc8a79a6",
    ),
]


@pytest.mark.parametrize(
    "argv,stdout_digest,messages_digest",
    GOLDEN_RUNS,
    ids=["json", "csv", "session-json", "session-csv", "forced-json", "forced-session-csv",
         "wide-session-csv", "wide-json", "wide-forced-json", "signed-zero-json", "signed-zero-csv",
         "signed-zero-phiplus-csv", "many-blocks-json", "seed-2^32-json", "seed-2^64-json", "seed-2^100-csv",
         "blocks-session-json", "chunks-session-json"],
)
def test_run_golden_output(capsys, tmp_path, argv, stdout_digest, messages_digest):
    log = tmp_path / "messages.jsonl"
    extra = ["--messages", str(log)] if messages_digest else []
    code, out, err = run_cli(capsys, "run", *argv, *extra)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    if messages_digest:
        assert hashlib.sha256(log.read_bytes()).hexdigest() == messages_digest


# OpenBLAS kernels and the CPU features each needs; one above the host's instruction set dies on an illegal
# instruction, so only those the host can run are tried.
BLAS_KERNELS = {"SkylakeX": ("AVX512_SKX",), "Haswell": ("AVX2", "FMA3"), "Nehalem": ()}

# Runs every (argv, logged) pair read as JSON from stdin and prints the [stdout, messages] SHA-256 list.
_GOLDEN_DIGESTS = """
import contextlib, hashlib, io, json, sys
from qcobweb.cli import main
digests = []
for argv, logged in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", *argv, *(["--messages", "messages.jsonl"] if logged else [])]) == 0
    messages = hashlib.sha256(open("messages.jsonl", "rb").read()).hexdigest() if logged else None
    digests.append([hashlib.sha256(out.getvalue().encode()).hexdigest(), messages])
print(json.dumps(digests))
"""


def _host_blas_kernels() -> list[str]:
    """The `BLAS_KERNELS` this CPU can run."""
    from numpy._core._multiarray_umath import __cpu_features__

    return [name for name, needs in BLAS_KERNELS.items() if all(__cpu_features__.get(f) for f in needs)]


def _stdout_on_kernel(kernel: str, script: str, stdin: str, cwd) -> str:
    """The stdout of ``python -c script`` in a process whose OpenBLAS runs ``kernel``.

    OpenBLAS reads ``OPENBLAS_CORETYPE`` once, when it loads; ``OPENBLAS_VERBOSE=2`` makes it print the core it
    picked, which proves the switch took.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_CORETYPE": kernel,
           "OPENBLAS_VERBOSE": "2"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=cwd,
                          input=stdin, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert f"Core: {kernel}" in proc.stderr
    return proc.stdout


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86-64 kernels")
def test_run_golden_output_on_every_blas_kernel(tmp_path):
    """Every `run` golden is the same, and equals its pin, under each OpenBLAS kernel the host can run.

    One subprocess per kernel runs the whole golden set.
    """
    pins = [[stdout, messages] for _, stdout, messages in GOLDEN_RUNS]
    stdin = json.dumps([[argv, bool(m)] for argv, _, m in GOLDEN_RUNS])
    for kernel in _host_blas_kernels():
        assert json.loads(_stdout_on_kernel(kernel, _GOLDEN_DIGESTS, stdin, tmp_path)) == pins, kernel


def test_repeated_and_interleaved_gen_calls_in_one_process(capsys, tmp_path):
    """`run` bytes do not depend on what earlier calls of the same process built.  The named-source cache keeps one
    name, read-only, and never a name that failed; the message-log cache gives each party count its own logs."""
    cube_argv, cube_digest, _ = GOLDEN_RUNS[0]
    wide_argv, wide_digest, wide_log_digest = GOLDEN_RUNS[5]  # roots:6 --session, forced PsiPlus, CSV
    cube_session = [*cube_argv, "--session", "--messages", str(tmp_path / "log3.jsonl")]
    wide_session = [*wide_argv, "--messages", str(tmp_path / "log6.jsonl")]
    cli._named_source.cache_clear()
    message_log.cache_clear()

    def call(*argv) -> str:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert cli._named_source.cache_info().currsize <= 1
        assert message_log.cache_info().currsize <= len(BellOutcome)
        assert cli._row_templates.cache_info().currsize <= 1
        return out

    def check_wide() -> None:
        assert hashlib.sha256(call("run", *wide_session).encode()).hexdigest() == wide_digest
        assert hashlib.sha256((tmp_path / "log6.jsonl").read_bytes()).hexdigest() == wide_log_digest

    first = call("run", *cube_argv)
    assert hashlib.sha256(first.encode()).hexdigest() == cube_digest
    check_wide()
    for _ in range(2):
        code, out, err = run_cli(capsys, "validate", "--gen", "roots:100000000000000000")
        assert (code, out) == (2, "")
        assert "needs more memory than can be allocated" in err
        assert cli._named_source.cache_info().currsize == 1
    assert call("run", *cube_argv) == first
    cube = cli._named_source("cube")
    assert cube is cli._named_source("cube")
    assert type(cube.coeffs) is tuple and {type(c) for c in cube.coeffs} == {complex}
    assert cli._named_source.cache_info().currsize == 1

    # N = 3 logs between N = 6 ones: each trial's lines are json.dumps of its session's messages
    q = UnknownQubit(float(cube_argv[cube_argv.index("--theta") + 1]), float(cube_argv[cube_argv.index("--phi") + 1]))
    messages = {o.label: "".join(json.dumps({"step": m.step, "from": m.sender, "to": m.recipient,
                                             "payload": m.payload}) + "\n"
                                 for m in run_session(q, cube, outcome=o).messages) for o in BellOutcome}
    rows = call("run", *cube_session).splitlines()[:-1]
    log3 = (tmp_path / "log3.jsonl").read_text()
    assert log3 == "".join(messages[json.loads(row)["outcome"]] for row in rows)
    check_wide()
    assert call("run", *cube_session).splitlines()[:-1] == rows
    assert (tmp_path / "log3.jsonl").read_text() == log3
    check_wide()


# Runs `validate --gen roots:N --format json` for each N read as JSON from stdin and prints the outputs.
_VALIDATE_OUTPUTS = """
import contextlib, io, json, sys
from qcobweb.cli import main
outputs = []
for n in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", "--gen", f"roots:{n}", "--format", "json"]) == 0
    outputs.append(out.getvalue())
print(json.dumps(outputs))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86-64 kernels")
def test_validate_output_on_every_blas_kernel(tmp_path):
    """`validate` prints the same bytes under each OpenBLAS kernel the host can run: no BLAS call makes a figure.

    Its norm deviation is the correctly rounded sum of the squared parts; as an OpenBLAS ``zdotc`` it moved with
    the kernel at N = 13, 19 and 20.  One subprocess per kernel runs all five calls.
    """
    stdin = json.dumps([6, 13, 17, 19, 20])
    outputs = {kernel: _stdout_on_kernel(kernel, _VALIDATE_OUTPUTS, stdin, tmp_path)
               for kernel in _host_blas_kernels()}
    assert len(set(outputs.values())) == 1, outputs


# Runs every argv read as JSON from stdin and prints numpy's CPU feature table, then the SHA-256 of each output.
_CLI_OUTPUTS = """
import contextlib, hashlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from qcobweb.cli import main
outputs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    outputs.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
print(json.dumps([__cpu_features__, outputs]))
"""


def _outputs_with_targets_off(targets: list[str], argvs: list[list[str]], cwd) -> tuple[dict, list[str]]:
    """numpy's feature table and the SHA-256 of each argv's stdout, in one process that dispatches none of
    ``targets``.

    With no targets the process takes numpy's default dispatch, whatever ``NPY_DISABLE_CPU_FEATURES`` this one runs
    under."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if targets:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    proc = subprocess.run([sys.executable, "-c", _CLI_OUTPUTS], capture_output=True, text=True, env=env, cwd=cwd,
                          input=json.dumps(argvs), timeout=300)
    assert proc.returncode == 0, proc.stderr
    features, outputs = json.loads(proc.stdout)
    assert not any(features[t] for t in targets), features  # the switch took
    return features, outputs


@pytest.mark.parametrize("baseline", ["avx512-off", "x86-v2"])
def test_outputs_on_every_simd_target(tmp_path, baseline):
    """`validate`, `measures` at N = 3..8, `scaling` and `run` print the same bytes whatever numpy's SIMD dispatch:
    each figure is plain-float arithmetic on libm's ``abs``, ``log2`` and ``log1p`` and `math.fsum`, and each
    `bell_table` product a plain-float multiply, with no numpy ufunc.

    The default dispatch is compared with its AVX-512 targets off (AVX2 and FMA stay) and with X86_V3 off as well,
    numpy's no-FMA X86_V2 baseline, each where this host dispatches it.  `run` covers N = 3..20 on a seeded state
    each, in JSON and CSV, sampled and forced.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__

    rng, argvs = np.random.default_rng(33), [["scaling", "--max", "10000"]]
    for n in range(3, 9):
        for k in range(24):
            path = tmp_path / f"s{n}-{k}.json"
            path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in random_zsa(n, rng).coeffs]}))
            theta, phi = float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi))
            argvs += [["validate", "--coeffs", str(path), "--format", "json"],
                      ["measures", "--coeffs", str(path), "--theta", repr(theta), "--phi", repr(phi)]]
    argvs += [["validate", "--gen", f"roots:{n}", "--format", "json"] for n in (6, 13, 14, 17, 19, 20)]
    for n in range(3, 21):
        path = tmp_path / f"r{n}.json"
        path.write_text(json.dumps({"coeffs": [[c.real, c.imag] for c in random_zsa(n, rng).coeffs]}))
        theta, phi = float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi))
        run = ["run", "--coeffs", str(path), "--theta", repr(theta), "--phi", repr(phi)]
        for fmt in ("json", "csv"):
            argvs += [[*run, "--trials", "3", "--seed", str(n), "--format", fmt],
                      [*run, "--outcome", BellOutcome(n % 4).label, "--format", fmt]]
    features, default = _outputs_with_targets_off([], argvs, tmp_path)
    targets = [t for t in __cpu_dispatch__ if (t.startswith("AVX512") or t == "X86_V4") and features[t]]
    if baseline == "x86-v2":
        if not ("X86_V3" in __cpu_dispatch__ and features["X86_V3"]):
            pytest.skip("numpy dispatches no X86_V3 target on this host")
        targets.append("X86_V3")
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 target on this host")
    outputs = _outputs_with_targets_off(targets, argvs, tmp_path)[1]
    assert [argv for argv, a, b in zip(argvs, default, outputs) if a != b] == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("session", [False, True], ids=["protocol", "session"])
def test_run_rows_match_per_trial_protocol(capsys, fmt, session):
    """Differential check of the branch cache and the row renderer against one sampled run per trial.

    Each row must equal its trial's own `Transcript.to_dict`, with every cell
    written by `json.dumps`; the trials draw in turn from one ``default_rng(seed)``.
    """
    q, z = UnknownQubit(0.8, 2.9), roots_of_unity_zsa(9)
    extra = ["--session"] if session else []
    code, out, _ = run_cli(
        capsys, "run", "--gen", "roots:9", "--theta", "0.8", "--phi", "2.9", "--trials", "60", "--seed", "21",
        "--format", fmt, *extra,
    )
    assert code == 0
    lines = out.splitlines()[:-1]
    if fmt == "csv":
        header, *lines = csv.reader(lines)
    assert len(lines) == 60
    outcomes, rng = set(), np.random.default_rng(21)
    for trial, line in enumerate(lines):
        transcript = run_session(q, z, seed=rng).transcript if session else run_protocol(q, z, seed=rng)
        outcomes.add(transcript.outcome)
        row = {"trial": trial, **transcript.to_dict(),
               "product_state": int(is_product_state(transcript.final.vector))}
        if fmt == "json":
            assert line == json.dumps(row)
            continue
        amps = row.pop("final_state")
        assert header == [*row, *(f"amp{i}_{part}" for i in range(len(amps)) for part in ("re", "im"))]
        scalars = [value if isinstance(value, str) else json.dumps(value) for value in row.values()]
        assert line == scalars + [json.dumps(x) for pair in amps for x in pair]
    assert outcomes == set(BellOutcome)


@pytest.mark.parametrize("seed", [21, 2**100])
def test_run_trial_t_takes_the_t_th_draw_of_its_seed(capsys, seed):
    """Trial t is the protocol run on ``PCG64(seed).advance(t)`` alone, so trials stay order-independent.

    The rows checked sit on both sides of each block edge and at the end of a call of three blocks.
    """
    q, z = UnknownQubit(1.4, 0.6), roots_of_unity_zsa(5)
    trials = 2 * cli.DRAW_BLOCK + 2
    code, out, _ = run_cli(capsys, "run", "--gen", "roots:5", "--theta", "1.4", "--phi", "0.6",
                           "--trials", str(trials), "--seed", str(seed))
    assert code == 0
    lines = out.splitlines()
    outcomes = set()
    for trial in (0, 1, cli.DRAW_BLOCK, cli.DRAW_BLOCK + 1, trials - 1):
        transcript = run_protocol(q, z, seed=np.random.Generator(np.random.PCG64(seed).advance(trial)))
        outcomes.add(transcript.outcome)
        row = {"trial": trial, **transcript.to_dict(), "product_state": int(is_product_state(transcript.final.vector))}
        assert lines[trial] == json.dumps(row)
    assert len(outcomes) > 1


# Cells that json.dumps writes in every form it has: signed zeros, the
# smallest subnormal, values that round at the 17th digit, and extremes.
_CRAFTED_CELLS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.1 + 0.2, 1.0 / 3.0,
                  math.nextafter(1.0, 2.0), 1e300, -1e300]


def _slots(count: int, nonzero: dict) -> np.ndarray:
    """``count`` zero slots but for the given {slot: value} pairs."""
    slots = np.zeros(count, dtype=complex)
    for k, value in nonzero.items():
        slots[k] = value
    return slots


def _dense(slots: np.ndarray, reference_bit: int) -> np.ndarray:
    """The slots written into a dense register: the all-r string, then qubit j = 1..N-1 flipped."""
    n = slots.size - 1
    top = 2**n - 1 if reference_bit else 0
    dense = np.zeros(2**n, dtype=complex)
    dense[[top, *(top ^ (1 << (n - j)) for j in range(1, n + 1))]] = slots
    return dense


def _random_slots(n: int) -> list[np.ndarray]:
    """Four seeded slot arrays of an n-qubit output: normal parts, with about one slot in four zeroed."""
    rng = np.random.default_rng(900 + n)
    return [rng.normal(size=2 * n + 2).view(complex) * (rng.random(n + 1) < 0.75) for _ in range(4)]


# Each case is a list of slot arrays, each rendered with both reference bits; the first and last slots in
# basis order are slot 0 and slot N-1 for reference bit 0, slot 1 and slot 0 for reference bit 1.
@pytest.mark.parametrize("cases", [
    [np.array([complex(re, im) for im in _CRAFTED_CELLS]) for re in _CRAFTED_CELLS],
    [np.array([0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0, -0.0]).view(complex)],  # every sign pair
    [np.zeros(8, dtype=complex)],
    [(np.random.default_rng(5).normal(size=16) * (np.random.default_rng(6).random(16) < 0.3)).astype(complex)],
    [_slots(5, {0: 0.25 - 1j / 3})],
    [_slots(5, {1: -1e-300j}), _slots(5, {4: 0.5})],
    [_slots(5, {0: 0.5, 1: 0.5j}), _slots(5, {0: 0.5, 4: 0.5j})],
    [_slots(5, {0: 0.1 + 0.2, 4: -1.0 / 3.0, 3: 5e-324j}), _slots(5, {1: 0.1 + 0.2, 2: -1.0 / 3.0})],
    [np.array([1.0 - 0.0j])],
    [np.array([0.1j])],
    [np.zeros(1, dtype=complex)],
    *([np.array(run_protocol(UnknownQubit(0.8, 2.9), roots_of_unity_zsa(14), outcome=outcome).final.slots)
       .view(complex)] for outcome in (BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS)),
    *(_random_slots(n) for n in range(1, 13)),
], ids=["crafted", "signed-zeros", "all-zero", "sparse-random", "first-pair", "last-pair", "first-and-last",
        "adjacent-pairs", "one-amplitude", "one-imaginary", "one-zero", "protocol-14-reference-0",
        "protocol-14-reference-1", *(f"random-{n}-qubits" for n in range(1, 13))])
def test_amplitude_text_matches_json_dumps_per_cell(cases):
    """The filled amplitude template: in CSV each cell after its comma, in JSON the inside of the list."""

    def filled(slots, reference_bit, csv_cells):
        n = slots.size - 1
        template = cli._amplitude_template(n, reference_bit, csv_cells)
        return template.format(*slots.view(np.float64).tolist(), *cli._row_templates(n, csv_cells)[2])

    for slots in cases:
        for reference_bit in (0, 1):
            dense = _dense(slots, reference_bit)
            oracle = [[float(a.real), float(a.imag)] for a in dense]  # as `Transcript.to_dict` writes them
            assert filled(slots, reference_bit, True) == "".join(
                "," + json.dumps(float(x)) for x in dense.view(np.float64)
            )
            text = "[" + filled(slots, reference_bit, False) + "]"
            assert json.loads(text) == oracle
            assert text == json.dumps(oracle)  # also tells -0.0 from 0.0, which == does not


def _transcript_rows(transcript, product: int, dense_texts: dict | None = None) -> tuple[str, str]:
    """The JSON and CSV texts a trial of this branch wrote after its trial index, newline included, by the per-row
    path: the branch's `Transcript`, ``json.dumps`` of its `scalar_fields` (in CSV, one ``json.dumps`` per cell
    that is not a string) and its dense `to_dict` amplitudes.  The cyclic collector is paused while the 2^(N-1)
    two-float lists are built and dumped: at N = 20 its passes over them took most of the time.  ``dense_texts``
    keeps each dense text by reference bit and row object, for the outcomes of one table: PsiPlus's output holds
    PsiMinus's row, and PhiPlus's PhiMinus's at even N, so their text is the same."""
    scalars, collecting = transcript.scalar_fields(), gc.isenabled()
    dense_texts = {} if dense_texts is None else dense_texts
    key = (transcript.final.reference_bit, id(transcript.final.slots))
    if key not in dense_texts:
        gc.disable()
        try:
            dense_texts[key] = json.dumps(transcript.to_dict()["final_state"])
        finally:
            if collecting:
                gc.enable()
    amplitudes = dense_texts[key]
    as_json = f', {json.dumps(scalars)[1:-1]}, "final_state": {amplitudes}, "product_state": {product}}}\n'
    cells = [value if isinstance(value, str) else json.dumps(value) for value in [*scalars.values(), product]]
    as_csv = "".join([",", ",".join(cells), ",", amplitudes.translate({ord(c): None for c in "[] "}), "\n"])
    return as_json, as_csv


@pytest.mark.parametrize("parties", [3, 4, 7, 14, 20])
def test_branch_row_matches_the_transcript_path(parties):
    """Differential check of `_branch_row`, which reads a row off the table's rows alone, against the per-row
    path: every outcome, both formats, theta at both poles and one seeded draw.  The roots of unity, whose exact
    zero parts test the signs of zero cells, and below 20 parties a seeded random state too: a 20-party dense
    `to_dict` takes about a second."""
    rng = np.random.default_rng(600 + parties)
    for z in [roots_of_unity_zsa(parties), *([random_zsa(parties, rng)] if parties < 20 else [])]:
        for theta in (0.0, math.pi, rng.uniform(0.0, math.pi)):
            table = protocol.bell_table(UnknownQubit(theta, rng.uniform(0.0, 2.0 * math.pi)), z)
            dense_texts: dict = {}  # its rows live as long as the table, so their ids are not reused
            expected = [_transcript_rows(table.transcript(o), int(table.products[o.value]), dense_texts)
                        for o in BellOutcome]
            for csv_cells in (False, True):  # a format at a time: `_row_templates` keeps one, as a call uses one
                texts: dict = {}  # shared by the four outcomes, as in a call
                for outcome, rows in zip(BellOutcome, expected):
                    assert "".join(cli._branch_row(table, outcome, csv_cells, texts)) == rows[csv_cells]


@pytest.mark.parametrize("csv_cells", [False, True], ids=["json", "csv"])
def test_branch_row_raises_on_a_degenerate_branch(csv_cells):
    # a valid ZSA state with c_1 = 1e-8: at theta = 0 the Psi branches have probability |c_1|^2 / 2
    table = protocol.bell_table(UnknownQubit(0.0), ZsaAmplitudes([1e-8, 2**-0.5 - 5e-9, -(2**-0.5 + 5e-9)]))
    for outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS):
        line = f"{outcome.label} (reference-0 output) at theta = 0.0, phi = 0.0 has probability 5e-17, below 1e-14"
        with pytest.raises(protocol.DegenerateBranch, match=f"^{re.escape(line)}$"):
            cli._branch_row(table, outcome, csv_cells, {})
    assert cli._branch_row(table, BellOutcome.PHI_PLUS, csv_cells, {})  # the Phi branches still render


def _counted_builds(monkeypatch) -> list:
    """The outcome of each branch row a `run` call renders from its table, in render order, protocol and session
    alike."""
    calls = []
    real = cli._branch_row

    def counted(table, outcome, csv_cells, texts):
        calls.append(outcome)
        return real(table, outcome, csv_cells, texts)

    monkeypatch.setattr(cli, "_branch_row", counted)
    return calls


@pytest.mark.parametrize("parties,fills", [(3, 3), (14, 2)])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_fills_the_amplitude_text_once_per_distinct_row(capsys, monkeypatch, parties, fills, fmt):
    """Two outputs: a call that renders all four branches fills an amplitude template once per distinct row.  The Psi
    pair shares a row, and the Phi pair does at even N and differs in sign at odd N, so N = 3 takes three fills and
    N = 14 two.  Each of the four rows still reads as `_transcript_rows` writes it."""
    fills_seen, rendered = [], {}
    real_templates, real_row = cli._row_templates, cli._branch_row

    class CountedTemplate(str):
        def format(self, *args, **kwargs):
            fills_seen.append(self)
            return str.format(self, *args, **kwargs)

    def templates(n, csv_cells):
        head, amplitudes, runs, header = real_templates(n, csv_cells)
        return head, tuple(map(CountedTemplate, amplitudes)), runs, header

    def branch_row(table, outcome, csv_cells, texts):
        head_and_text = real_row(table, outcome, csv_cells, texts)
        rendered[outcome] = "".join(head_and_text)
        return head_and_text

    monkeypatch.setattr(cli, "_row_templates", templates)
    monkeypatch.setattr(cli, "_branch_row", branch_row)
    code, out, _ = run_cli(capsys, "run", "--gen", f"roots:{parties}", "--theta", "1.3", "--phi", "0.4",
                           "--trials", "40", "--seed", "3", "--format", fmt)
    assert code == 0
    assert len(out.splitlines()) == 40 + (fmt == "csv") + 1
    assert len(fills_seen) == fills
    table = protocol.bell_table(UnknownQubit(1.3, 0.4), roots_of_unity_zsa(parties))
    assert set(rendered) == set(BellOutcome)
    for outcome, row in rendered.items():
        assert row == _transcript_rows(table.transcript(outcome), int(table.products[outcome.value]))[fmt == "csv"]


@pytest.mark.parametrize("extra", [[], ["--session"]], ids=["protocol", "session"])
def test_run_builds_each_branch_once(capsys, monkeypatch, extra):
    calls = _counted_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", "--trials", "1000", "--seed", "4", *extra)
    assert code == 0
    assert len(out.splitlines()) == 1001
    assert 1 <= len(calls) <= 4
    assert len(set(calls)) == len(calls)



def _counted(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(cli, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("first,stop", [
    (0, 1), (0, 1000), (1, 1025), (998, 1002), (999, 2001), (1025, 2049), (1000, 1001), (9999, 10001),
    (123456, 125001), (10**12 - 3, 10**12 + 2500),
])
@pytest.mark.parametrize("lead", ["", '{"trial": '], ids=["csv", "json"])
def test_index_parts_join_to_the_lead_and_str_of_each_trial(first, stop, lead):
    """Differential check of `_index_runs` against ``str``, across thousands and block edges: trial t's head (the lead
    and its thousands) is the ``after`` of the run before it, so head and tail read ``lead + str(t)``, and the runs
    tile first .. stop - 1 with the last ``after`` the head of trial ``stop``."""
    head, lines, lo = lead + str(first)[:-3], [], first
    for run_lo, hi, tails, after in cli._index_runs(lead, first, stop):
        assert (run_lo, len(tails)) == (lo, hi - lo) and hi > lo
        for tail in tails:
            lines.append(head + tail)
            head = after
        lo = hi
    assert lines == [lead + str(t) for t in range(first, stop)]
    assert (lo, head) == (stop, lead + str(stop)[:-3])


@pytest.mark.parametrize("trials", [1500, 1, 129, cli.DRAW_BLOCK + 1, 2 * cli.DRAW_BLOCK + 2])
def test_run_draws_trial_zero_alone_then_blocks(capsys, monkeypatch, trials):
    """Trial 0 is one scalar draw; the rest come from blocks of up to `DRAW_BLOCK`, all on one generator, and a
    one-trial call draws no block."""
    draws = []
    for name in ("draw_outcome", "draw_outcome_block"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, real=real, name=name: draws.append((name, *args)) or real(*args))
    code, out, _ = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", "--trials", str(trials), "--seed", "8")
    assert code == 0
    assert len(out.splitlines()) == trials + 1
    rng = draws[0][2]
    assert isinstance(rng, np.random.Generator)
    assert all(call[2] is rng for call in draws)
    assert [(call[0], *call[3:]) for call in draws] == [
        ("draw_outcome",),
        *(("draw_outcome_block", min(cli.DRAW_BLOCK, trials - start)) for start in range(1, trials, cli.DRAW_BLOCK)),
    ]


@pytest.mark.parametrize("extra", [
    ["--outcome", "PhiPlus"],
    ["--trials", "5"],
    ["--outcome", "PsiMinus", "--trials", "3", "--output", "rows.jsonl"],
    ["--trials", "5", "--output", "rows.jsonl"],
    ["--trials", "5", "--session", "--messages", "log.jsonl", "--output", "rows.csv", "--format", "csv"],
], ids=["forced", "sampled", "forced-output", "sampled-output", "session-files"])
def test_run_rejects_negative_seed(capsys, tmp_path, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.0", "--seed", "-1", *extra)
    assert code == 2
    assert out == ""
    assert "expected non-negative integer" in err
    assert err == "invalid request: --seed: expected non-negative integer, got -1\n"
    assert list(tmp_path.iterdir()) == []


def _built_outcomes(capsys, monkeypatch, *argv) -> list:
    calls = _counted_builds(monkeypatch)
    code, _, _ = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", *argv)
    assert code == 0
    return calls


@pytest.mark.parametrize("trials", ["1", "3", "4"])
def test_run_renders_exactly_the_branches_it_draws(capsys, monkeypatch, trials):
    # seed 6 draws PhiMinus on each of the first four trials, so the call renders that branch alone
    assert _built_outcomes(capsys, monkeypatch, "--trials", trials, "--seed", "6") == [BellOutcome.PHI_MINUS]


def test_run_never_builds_an_undrawable_branch(capsys, monkeypatch):
    real = cli.bell_table

    def no_psi_minus(q, z):
        table = real(q, z)
        probs = list(table.probabilities)
        probs[BellOutcome.PSI_MINUS.value] = 0.0
        return dataclasses.replace(table, probabilities=tuple(probs))

    monkeypatch.setattr(cli, "bell_table", no_psi_minus)
    calls = _built_outcomes(capsys, monkeypatch, "--trials", "40", "--seed", "3")
    assert sorted(calls, key=lambda o: o.value) == [BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS]


@pytest.mark.parametrize("trials", [1, 2, 999, 1000, 1001, 1024, 1025, 2000, 2049, 3001])
@pytest.mark.parametrize("kind", ["sampled", "forced", "session"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_stream_reads_as_the_lead_str_of_each_trial_and_its_row(capsys, tmp_path, fmt, kind, trials):
    """Differential check of the written stream: row line t is ``lead + str(t)`` and its outcome's row by the per-row
    path (`_transcript_rows`), the outcomes drawn as one `draw_outcome_block` over the whole call, and the summary line
    follows the last row.  The trial counts sit at the edges of the 1000-trial runs, the draw blocks and the last row;
    with ``--session --messages``, the log is each trial's `message_log` in trial order."""
    q, seed, log = UnknownQubit(1.3, 0.4), 9, tmp_path / "log.jsonl"
    extra = {"sampled": [], "forced": ["--outcome", "PsiPlus"], "session": ["--session", "--messages", str(log)]}[kind]
    code, out, err = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", "--phi", "0.4", "--trials", str(trials),
                             "--seed", str(seed), "--format", fmt, *extra)
    assert (code, err) == (0, "")
    table = protocol.bell_table(q, roots_of_unity_zsa(3))
    if kind == "forced":
        outcomes = [BellOutcome.PSI_PLUS.value] * trials
    else:
        cdf = protocol.outcome_cdf(table.probabilities)
        outcomes = protocol.draw_outcome_block(cdf, np.random.default_rng(seed), trials).tolist()
    rows = [_transcript_rows(table.transcript(o), int(table.products[o.value]))[fmt == "csv"] for o in BellOutcome]
    lines = out.splitlines(keepends=True)
    if fmt == "csv":
        assert lines.pop(0).startswith("trial,outcome,")
    lead = "" if fmt == "csv" else '{"trial": '
    assert lines[:-1] == [lead + str(t) + rows[value] for t, value in enumerate(outcomes)]
    assert lines[-1].startswith("# summary: {" if fmt == "csv" else '{"summary": ')
    if kind == "session":
        assert log.read_text() == "".join(message_log(3, value) for value in outcomes)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_forced_outcome_fills_every_block(capsys, fmt):
    """A forced call draws its blocks like a sampled one, on one-hot weights: every trial, past two full blocks,
    writes trial 0's row after its own index, and the summary counts the forced outcome alone."""
    trials = 2 * cli.DRAW_BLOCK + 2
    code, out, err = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", "--outcome", "PhiPlus",
                             "--trials", str(trials), "--seed", "5", "--format", fmt)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0].startswith("trial,outcome,")
        rows, summary = lines[1:-1], json.loads(lines[-1].removeprefix("# summary: "))
        after = [row.split(",", 1) for row in rows]
    else:
        rows, summary = lines[:-1], json.loads(lines[-1])["summary"]
        after = [row.removeprefix('{"trial": ').split(",", 1) for row in rows]
    assert [index for index, _ in after] == [str(t) for t in range(trials)]
    assert {rest for _, rest in after} == {after[0][1]}
    assert ("PhiPlus" if fmt == "csv" else '"outcome": "PhiPlus"') in after[0][1]
    assert {label: summary[f"empirical_{label}"] for label in cli._LABELS} == {
        label: float(label == "PhiPlus") for label in cli._LABELS}


@pytest.mark.parametrize("extra", [
    ["--trials", "1"],
    ["--trials", "1500", "--seed", "4"],
    ["--outcome", "PsiPlus", "--trials", "3"],
    ["--trials", "16", "--seed", "5", "--session", "--format", "csv"],
], ids=["one-trial", "sampled", "forced", "session"])
def test_run_projects_once_per_call(capsys, monkeypatch, extra):
    """Every `run` call makes one stacked Bell projection, one `bell_table`, whichever branches it renders."""
    calls = []
    real = protocol.bell_table

    def counted(q, z):
        calls.append(z.num_parties)
        return real(q, z)

    for module in (protocol, cli):
        monkeypatch.setattr(module, "bell_table", counted)
    code, _, _ = run_cli(capsys, "run", "--gen", "roots:6", "--theta", "1.3", *extra)
    assert code == 0
    assert calls == [6]


def _traced_peak(capsys, path, trials: int, gen: str = "roots:8") -> int:
    gc.collect()  # earlier tests leave cyclic garbage; collect it so the peak does not depend on when
    tracemalloc.start()
    try:
        code = main(["run", "--gen", gen, "--theta", "1.1", "--trials", str(trials), "--seed", "2",
                     "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == ""
    return peak


def test_run_memory_flat_in_trials(capsys, tmp_path):
    _traced_peak(capsys, tmp_path / "warm.jsonl", 20)  # imports and caches outside the measurement
    # both calls draw at least one full block, so the bound sees what grows with --trials, not the block
    small = _traced_peak(capsys, tmp_path / "small.jsonl", cli.DRAW_BLOCK + 2)
    large = _traced_peak(capsys, tmp_path / "large.jsonl", 10 * cli.DRAW_BLOCK)
    assert len((tmp_path / "large.jsonl").read_text().splitlines()) == 10 * cli.DRAW_BLOCK + 1
    assert large <= 1.5 * small
    # many block draws: a buffer that lives for the whole call, not one block, grows here
    many = _traced_peak(capsys, tmp_path / "many.jsonl", 20000)
    with open(tmp_path / "many.jsonl", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 20001
    assert many <= 1.5 * large


def test_run_memory_flat_in_trials_for_rows_wider_than_a_write_chunk(capsys, tmp_path):
    _traced_peak(capsys, tmp_path / "warm.jsonl", 2, "roots:14")
    small = _traced_peak(capsys, tmp_path / "small.jsonl", 20, "roots:14")
    large = _traced_peak(capsys, tmp_path / "large.jsonl", 200, "roots:14")
    with open(tmp_path / "large.jsonl", encoding="utf-8") as fh:
        widths = [len(line) for line in fh]
    assert len(widths) == 201
    assert min(widths[:-1]) > cli.WRITE_CHUNK  # so each row is written on its own
    assert large <= 1.5 * small


def test_run_memory_in_row_widths_across_thousand_trial_runs(capsys, tmp_path):
    """An N = 14 JSON call of 2500 trials crosses two 1000-trial runs, so its rows, each followed by the next trial's
    lead, are joined three times.  Its traced peak stays under 9 row widths (7.5 before the rows carried the next
    lead), so a copy of each row kept per run, or kept beside the followed row, fails here."""
    _traced_peak(capsys, tmp_path / "warm.jsonl", 2, "roots:14")
    with open(tmp_path / "warm.jsonl", encoding="utf-8") as fh:
        width = max(len(line) for line in fh)
    assert width > cli.WRITE_CHUNK
    assert _traced_peak(capsys, os.devnull, 2500, "roots:14") <= 9 * width


class _WriteSpy:
    """A text sink that keeps every write call's text."""

    def __init__(self):
        self.writes = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


def test_run_writes_rows_and_messages_in_bounded_chunks(capsys, monkeypatch):
    trials = 3000
    stdout, log = _WriteSpy(), _WriteSpy()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(cli, "open", lambda path, mode, encoding: log, raising=False)
    code = main(["run", "--gen", "cube", "--theta", "1.3", "--trials", str(trials), "--seed", "8", "--session",
                 "--messages", "log.jsonl"])
    assert code == 0
    assert "".join(stdout.writes).count("\n") == trials + 1
    assert "".join(log.writes).count("\n") == trials * log.writes[0].count("\n")  # trial 0's log is written alone
    for sink in (stdout, log):
        assert len(sink.writes) * 20 < trials
        assert all(len(text) <= cli.WRITE_CHUNK or text.count("\n") == 1 for text in sink.writes)


def test_run_unwritable_messages_writes_no_rows(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "run", "--gen", "cube", "--theta", "1.0", "--trials", "5", "--session",
        "--messages", str(tmp_path / "missing" / "log.jsonl"),
    )
    assert code == 3
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize("layout", ["same-name", "dot-dot", "symlink", "existing"])
def test_run_rejects_messages_and_output_on_one_file(capsys, tmp_path, monkeypatch, layout):
    monkeypatch.chdir(tmp_path)
    messages, output = {
        "same-name": ("rows.txt", "rows.txt"),
        "dot-dot": ("rows.txt", str(tmp_path / "missing" / ".." / "rows.txt")),
        "symlink": ("link.txt", "rows.txt"),
        "existing": ("rows.txt", "./rows.txt"),
    }[layout]
    if layout in ("symlink", "existing"):
        (tmp_path / "rows.txt").write_text("keep\n")
    if layout == "symlink":
        (tmp_path / "link.txt").symlink_to(tmp_path / "rows.txt")
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(
        capsys, "run", "--gen", "cube", "--theta", "1.0", "--trials", "3", "--session",
        "--messages", messages, "--output", output,
    )
    assert code == 2
    assert out == ""
    assert "same file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if layout in ("symlink", "existing"):
        assert (tmp_path / "rows.txt").read_text() == "keep\n"


@pytest.mark.parametrize("argv", [
    ["validate", "--output", "state.json"],
    ["measures", "--format", "csv", "--output", "state.json"],
    ["run", "--theta", "1.0", "--output", "./state.json"],
    ["run", "--theta", "1.0", "--session", "--messages", "link.json", "--output", "rows.jsonl"],
], ids=["validate", "measures", "run-output", "run-messages"])
def test_output_naming_the_coeffs_file_exits_2_before_any_file_opens(capsys, tmp_path, monkeypatch, argv):
    """Writing the ``--coeffs`` file would overwrite the input, so each command refuses it before reading it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_amplitudes", lambda path: pytest.fail(f"{path} was read"))
    text = json.dumps({"coeffs": [[c.real, c.imag] for c in roots_of_unity_zsa(3).coeffs]})
    (tmp_path / "state.json").write_text(text)
    (tmp_path / "link.json").symlink_to(tmp_path / "state.json")
    code, out, err = run_cli(capsys, argv[0], "--coeffs", "state.json", *argv[1:])
    assert (code, out) == (2, "")
    assert "and --coeffs name the same file" in err
    assert (tmp_path / "state.json").read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "state.json"]


def test_run_rejects_zero_probability_forced_outcome(capsys, tmp_path):
    # a valid ZSA state with c_1 = 1e-8: at theta = 0 the Psi branches have probability |c_1|^2 / 2
    source = tmp_path / "tiny_c1.json"
    source.write_text(json.dumps({"coeffs": [[1e-8, 0.0], [2**-0.5 - 5e-9, 0.0], [-(2**-0.5 + 5e-9), 0.0]]}))
    rows = tmp_path / "rows.jsonl"
    argv = ["run", "--coeffs", str(source), "--theta", "0", "--output", str(rows)]
    code, out, err = run_cli(capsys, *argv, "--outcome", "PsiPlus")
    assert code == 2
    assert out == ""
    assert err == ("invalid request: PsiPlus (reference-0 output) at theta = 0.0, phi = 0.0 has probability 5e-17, "
                   "below 1e-14\n")
    assert not rows.exists()
    # a sampled call never lands there
    code, _, err = run_cli(capsys, *argv, "--trials", "40")
    assert (code, err) == (0, "")


# |c_1|^2 = 6.8e-22: at a pole the closed-form 1/N^2 of one reference bit rounds to 0.0.
POLE_TINY_C1 = ('{"coeffs": [[2.6019241460158823e-11, 0.0], [-0.614122056339072, 0.35050549201667086], '
                '[0.6141220563130528, -0.35050549201667086]]}')
# Its refusal of a degenerate branch at each pole, after the branch's label: at theta = 0 both Psi branches, at
# theta = pi both Phi branches.
POLE_REFUSALS = {
    "0": "(reference-0 output) at theta = 0.0, phi = 0.0 has probability 3.3850046308102386e-22, below 1e-14",
    "3.141592653589793": ("(reference-1 output) at theta = 3.141592653589793, phi = 0.0 has probability "
                          "3.3850046308289854e-22, below 1e-14"),
}


@pytest.mark.parametrize("theta,drawable", [
    ("3.141592653589793", ("PsiPlus", "PsiMinus")),
    ("0", ("PhiPlus", "PhiMinus")),
], ids=["pi", "zero"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_at_a_pole_needs_no_norm_constant_of_the_degenerate_reference_bit(capsys, tmp_path, theta, drawable, fmt):
    """Both branches of one reference bit have P = |c_1|^2 / 2 = 3.4e-22, so a sampled call draws only the other
    two, prints them with their own norm constant and exits 0; forcing a degenerate branch still exits 2.
    `validate` accepts the file."""
    path = tmp_path / "tiny-c1.json"
    path.write_text(POLE_TINY_C1)
    assert run_cli(capsys, "validate", "--coeffs", str(path))[0] == 0
    code, out, err = run_cli(capsys, "run", "--coeffs", str(path), "--theta", theta, "--trials", "40", "--seed", "3",
                             "--format", fmt)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    rows = list(csv.DictReader(lines[:-1])) if fmt == "csv" else [json.loads(line) for line in lines[:-1]]
    assert len(rows) == 40
    assert {row["outcome"] for row in rows} == set(drawable)
    assert {float(row["norm_constant"]) for row in rows} == {1.0}
    degenerate = ({"PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus"} - set(drawable)).pop()
    code, out, err = run_cli(capsys, "run", "--coeffs", str(path), "--theta", theta, "--outcome", degenerate)
    assert (code, out) == (2, "")
    assert err == f"invalid request: {degenerate} {POLE_REFUSALS[theta]}\n"


@pytest.mark.parametrize("theta,degenerate", [
    ("3.141592653589793", "PhiMinus"),
    ("0", "PsiMinus"),
], ids=["pi", "zero"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_measures_at_a_pole_refuses_a_degenerate_reference_output(capsys, tmp_path, theta, degenerate, fmt):
    """A three-party report needs both outputs, and at a pole the file's |c_1| of 2.6e-11 leaves one at
    P = |c_1|^2 / 2 = 3.4e-22: the call exits 2 with one line naming it, as `run` refuses a degenerate forced
    outcome, and writes nothing.  Off the poles the same file reports."""
    path = tmp_path / "tiny-c1.json"
    path.write_text(POLE_TINY_C1)
    code, out, err = run_cli(capsys, "measures", "--coeffs", str(path), "--theta", theta, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"invalid request: {degenerate} {POLE_REFUSALS[theta]}\n"
    code, out, err = run_cli(capsys, "measures", "--coeffs", str(path), "--theta", "1.0", "--format", fmt)
    assert (code, err) == (0, "")
    assert out


# |c_1| = 1.4e-7: at theta = pi both reference outputs have P = |c_1|^2 / 2 = 1.0e-14, on the degenerate bound.
BOUNDARY_C1 = ('{"coeffs": [[1.4142135623730952e-07, 0.0], [-7.071067811865476e-08, 0.7071067811865405], '
               '[-7.071067811865476e-08, -0.7071067811865405]]}')


@pytest.mark.parametrize("phi", ["0.662846390572469", "4.533244938408841"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_measures_exits_2_when_the_obstruction_needs_a_degenerate_branch(capsys, tmp_path, phi, fmt):
    """Both reference outputs pass the bound, but the obstruction oracle's psi-perp row has P = 9.999999999999998e-15,
    just below it: its `DegenerateBranch` exits 2 with one line, as any domain error does, not with a traceback.  The
    line names that row by the psi-perp qubit's angles, theta = 0 and phi + pi."""
    path = tmp_path / "boundary-c1.json"
    path.write_text(BOUNDARY_C1)
    code, out, err = run_cli(capsys, "measures", "--coeffs", str(path), "--theta", "3.141592653589793", "--phi", phi,
                             "--format", fmt)
    assert (code, out) == (2, "")
    perp_phi = {"0.662846390572469": "3.804439044162262", "4.533244938408841": "1.391652284819048"}[phi]
    assert err == (f"invalid request: PsiMinus (reference-0 output) at theta = 0.0, phi = {perp_phi} has probability "
                   "9.999999999999998e-15, below 1e-14\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_forces_a_branch_exactly_on_the_degenerate_bound(capsys, tmp_path, fmt):
    """At theta = pi, phi = 0.662846390572469 the boundary state's Phi branches have P == `DEGENERATE_PROBABILITY`
    exactly, and the bound is strict, so forcing one is live: the call exits 0 and writes its rows.  Their norm
    constant is 1/sqrt(2e-14), which a 1/N^2 of (1 - |c_1|^2) + alpha^2 (2|c_1|^2 - 1) printed as 7073895.380882599."""
    path = tmp_path / "boundary-c1.json"
    path.write_text(BOUNDARY_C1)
    argv = ["--coeffs", str(path), "--theta", "3.141592653589793", "--phi", "0.662846390572469"]
    code, out, err = run_cli(capsys, "run", *argv, "--outcome", "PhiMinus", "--trials", "2", "--format", fmt)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    rows = list(csv.DictReader(lines[:-1])) if fmt == "csv" else [json.loads(line) for line in lines[:-1]]
    assert [row["outcome"] for row in rows] == ["PhiMinus", "PhiMinus"]
    assert [float(row["probability"]) for row in rows] == [protocol.DEGENERATE_PROBABILITY] * 2
    assert [float(row["norm_constant"]) for row in rows] == [7071067.811865475] * 2


@pytest.mark.parametrize("extra", [[], ["--session", "--messages", "log.jsonl"]], ids=["protocol", "session"])
def test_run_rejects_parties_past_the_dense_cap(capsys, tmp_path, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "run", "--gen", "roots:21", "--theta", "1.0", "--output", "rows.jsonl", *extra)
    assert code == 2
    assert out == ""
    assert err == "invalid request: dense statevectors are limited to 20 qubits\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", [["--gen", "roots:21"], "coeffs"], ids=["gen", "coeffs"])
def test_measures_rejects_parties_past_the_dense_cap(capsys, tmp_path, monkeypatch, source):
    """The report builds no dense state, yet refuses 21 parties as `run` does, from a generator or a file, before
    writing anything."""
    monkeypatch.chdir(tmp_path)
    if source == "coeffs":
        c = np.exp(2j * np.pi * np.arange(21) / 21) / math.sqrt(21)
        Path("c21.json").write_text(json.dumps({"coeffs": [[v.real, v.imag] for v in c.tolist()]}))
        source = ["--coeffs", "c21.json"]
    code, out, err = run_cli(capsys, "measures", *source, "--theta", "1.0", "--output", "report.json")
    assert (code, out) == (2, "")
    assert err == "invalid request: dense statevectors are limited to 20 qubits\n"
    assert not Path("report.json").exists()


def test_run_stops_quietly_when_stdout_closes(tmp_path):
    """`qcobweb run ... | head -1`: a reader that goes away ends the call with exit 0 and nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "qcobweb.cli", "run", "--gen", "roots:6", "--theta", "1.1", "--trials", "3000",
            "--seed", "2"]  # about 3 MB of rows, far past a pipe's buffer
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path) as proc:
        assert proc.stdout.readline().startswith(b'{"trial": 0, ')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_run_session_rejects_two_parties_as_session(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "run", "--gen", "epr", "--theta", "1.0", "--session", "--output", "rows.jsonl",
                             "--messages", "log.jsonl")
    assert code == 2
    assert out == ""
    assert err == "invalid request: the protocol needs at least three parties\n"
    assert not (tmp_path / "rows.jsonl").exists()
    assert not (tmp_path / "log.jsonl").exists()


# --- measures ------------------------------------------------------------------


def test_measures_json_report(capsys):
    code, out, _ = run_cli(capsys, "measures", "--gen", "cube", "--theta", "1.5707963267948966")
    assert code == 0
    doc = json.loads(out)
    assert doc["ppt"]["max_abs_difference"] < 1e-10
    assert doc["entanglement_of_formation"]["abs_difference"] < 1e-10
    assert doc["splitting_entropy"]["party_1"]["closed_form"] == pytest.approx(0.918296, abs=1e-6)
    ref0 = doc["cobweb"]["reference_0"]
    assert ref0["max_abs_difference"] < 1e-10
    assert ref0["epsilon_4x_vs_determinant"] > 0.3
    assert doc["obstruction"]["abs_difference"] < 1e-11
    assert doc["recovery"]["odds"]["probability"] == pytest.approx(1 / 3, abs=1e-12)


def test_measures_csv_matches_json(capsys):
    code, json_out, _ = run_cli(capsys, "measures", "--gen", "cube", "--theta", "0.8")
    assert code == 0
    code, csv_out, _ = run_cli(capsys, "measures", "--gen", "cube", "--theta", "0.8", "--format", "csv")
    assert code == 0
    doc = json.loads(json_out)
    from qcobweb.cli import _flatten

    flat = dict(_flatten(doc))
    reader = csv.DictReader(io.StringIO(csv_out))
    csv_map = {row["key"]: row["value"] for row in reader}
    assert set(csv_map) == set(flat)
    for key, value in flat.items():
        if isinstance(value, float):
            assert float(csv_map[key]) == value


def test_measures_outputs_are_the_table_rows_of_the_oracle_states():
    """The outputs a three-party report reads from one `bell_table`, over seeded states at both poles and inside:
    the reference-0 output (the PsiMinus row) is -1 times `oracles.cobweb_state` and the reference-1 output (the
    PhiMinus row) +1 times it, and each norm constant is the oracle's bit for bit.  Each part agrees within 1e-15
    times that constant N >= 1, which is 1 / |target|: the oracle's all-r slot holds sum_{k>=2} c_k where the table
    holds -c_1, and normalizing multiplies their rounding by N (1.7e-15 at theta = pi, |c_1| = 0.077, N = 13)."""
    rng = np.random.default_rng(2501)
    for _ in range(40):
        z = random_zsa(3, rng)
        for theta in (0.0, math.pi, math.pi * rng.random()):
            q = UnknownQubit(theta, 2.0 * math.pi * rng.random())
            table = protocol.bell_table(q, z)
            outputs = [table.transcript(outcome).final for outcome in (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS)]
            for ref, (sign, output) in enumerate(zip((-1.0, 1.0), outputs)):
                oracle = cobweb_state(q, z, ref)
                assert output.reference_bit == ref
                assert output.norm_constant.hex() == oracle.norm_constant.hex()
                gap = np.abs(np.array(output.slots) - sign * np.array(oracle.slots)).max()
                assert gap <= 1e-15 * oracle.norm_constant


@pytest.mark.parametrize(("gen", "tables"), [("cube", 2), ("roots:5", 0)])
def test_measures_builds_one_bell_table_per_qubit(capsys, monkeypatch, gen, tables):
    """A three-party report builds one table for psi, which holds both its outputs, and one for psi_perp, the
    obstruction oracle's: psi's row is read from the reference-0 output, not built again.  A report at N != 3 reads no
    output, so it builds none."""
    built = []
    real = protocol.bell_table

    def counted(q, z):
        built.append((q.theta, q.phi))
        return real(q, z)

    for module in (protocol, cli, disentangle):
        monkeypatch.setattr(module, "bell_table", counted)
    code, _, _ = run_cli(capsys, "measures", "--gen", gen, "--theta", "1.0", "--phi", "0.5")
    assert code == 0
    perp = UnknownQubit(math.pi - 1.0, 0.5 + math.pi)
    assert built == [(1.0, 0.5), (perp.theta, perp.phi)][:tables]


def test_measures_many_parties(capsys):
    code, out, _ = run_cli(capsys, "measures", "--gen", "roots:5")
    assert code == 0
    doc = json.loads(out)
    assert "ppt" not in doc
    assert len(doc["splitting_entropy"]) == 5


@pytest.mark.parametrize("theta", ["1.1", "1e-170"])
def test_measures_sign_rule_holds_where_the_probability_rounds_to_one_half(capsys, tmp_path, theta):
    """Re(c2* c3) = 2.5e-18 > 0 makes P - 1/2 about 1e-18 at theta = 1.1, and |beta|^2 Re(c2* c3) underflows to 0
    at theta = 1e-170, so P prints as 0.5 in both; the verdict follows the sign rule, and the call exits 0 rather
    than raising."""
    path = tmp_path / "near-half.json"
    path.write_text('{"coeffs": [[-0.5, -0.5], [0.5, 0.0], [5e-18, 0.5]]}')
    code, out, err = run_cli(capsys, "measures", "--coeffs", str(path), "--theta", theta)
    assert (code, err) == (0, "")
    assert '"better_than_half": true' in out
    odds = json.loads(out)["recovery"]["odds"]
    assert odds["probability"] == 0.5
    assert odds["re_c2_conj_c3"] == 2.5e-18
    assert odds["better_than_half"] == (odds["re_c2_conj_c3"] > 0) and odds["sign"] == 1


def _writer_values():
    rng = np.random.default_rng(2306)
    for n in range(3, 9):
        yield cli._measures_report(random_zsa(n, rng), UnknownQubit(float(rng.uniform(0.0, math.pi)), 0.4))
    yield cli._measures_report(roots_of_unity_zsa(20), UnknownQubit(1.1, 0.3))
    yield {
        "floats": [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7, np.float64(2.5)],
        "ints": [0, -1, 10**30],
        "flags": [True, False, None],
        "empty": [[], {}, [[]], {"inner": {}}],
        "nested": {"a": [[1.5, [2, {"b": []}]], {"c": (3.0, "t")}]},
        'key "quoted"\\ \u00e9\n': 'text "quoted"\\ \u00e9\t\u2028',
        "nonfinite": [float("nan"), float("inf"), -float("inf")],
        "empty string": "",
    }
    yield from ([], {}, 0.25, -0.0, 7, "s", None, float("nan"))


def test_indented_writer_matches_json_dumps():
    """`cli._indented_json` is ``json.dumps(value, indent=2)`` byte for byte: seeded reports and one value with
    every kind of scalar, empty and nested containers, escapes and non-finite floats."""
    for value in _writer_values():
        assert cli._indented_json(value) == json.dumps(value, indent=2)


# --- scaling ----------------------------------------------------------------------


def test_scaling_cmd(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--max", "6")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0] == {"parties": 2, "ebits": 1.0}
    assert rows[1]["ebits"] == pytest.approx(0.9182958340544896, abs=1e-12)
    assert [r["parties"] for r in rows] == [2, 3, 4, 5, 6]


def test_scaling_csv(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--max", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["parties"]) for r in rows] == [2, 3, 4]
    assert float(rows[2]["ebits"]) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_scaling_memory_flat_in_max(capsys, tmp_path):
    """Rows are written as the curve is computed, at most `WRITE_CHUNK` characters at a time, so the peak does not
    grow with ``--max``; both calls write several chunks."""

    def peak(n_max: int) -> int:
        path = tmp_path / f"curve-{n_max}.jsonl"
        gc.collect()
        tracemalloc.start()
        try:
            code = main(["scaling", "--max", str(n_max), "--output", str(path)])
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == ""
        with open(path, encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == n_max - 1
        return top

    peak(100)  # imports and caches outside the measurement
    small, large = peak(4000), peak(40000)
    assert large <= 1.5 * small


# --- claims ------------------------------------------------------------------------


def test_claims_text_report(capsys):
    code, out, _ = run_cli(capsys, "claims")
    assert code == 0
    assert "pass" in out and "flag" in out
    assert "output-marginal-determinant-4x" in out
    assert "recovery-probability-cube-roots" in out


def test_claims_expected_flags(capsys):
    code, out, _ = run_cli(capsys, "claims", "--format", "json")
    assert code == 0
    rows = {row["claim"]: row for row in map(json.loads, out.strip().splitlines())}
    expected_flags = {
        "output-marginal-determinant-4x",
        "recovery-probability-cube-roots",
        "obstruction-always-nonzero",
        "scaling-large-n-loose",
    }
    for claim, row in rows.items():
        if claim in expected_flags:
            assert row["status"] == "flag", claim
        else:
            assert row["status"] == "pass", claim


def test_claims_csv(capsys):
    code, out, _ = run_cli(capsys, "claims", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {"claim", "stated", "computed", "abs_diff", "status", "note"} == set(rows[0])
    by_claim = {row["claim"]: row for row in rows}
    assert float(by_claim["scaling-two-parties"]["computed"]) == 1.0


@dataclasses.dataclass(frozen=True)
class SeededCoeffs:
    """A ``--coeffs`` file, written when a test runs: normalized zero-sum complex Gaussian draws from
    ``default_rng(seed)``, with the first draw replaced by 1e-8 when ``tiny`` (|c_1|^2 about 5e-18)."""

    parties: int
    seed: int
    tiny: bool = False

    def write(self, directory: Path) -> str:
        rng = np.random.default_rng(self.seed)
        c = rng.standard_normal(self.parties - 1) + 1j * rng.standard_normal(self.parties - 1)
        if self.tiny:
            c[0] = 1e-8
        c = np.append(c, -c.sum())
        c /= np.linalg.norm(c)
        path = directory / f"seeded-{self.parties}-{self.seed}.json"
        path.write_text(json.dumps({"coeffs": [[float(v.real), float(v.imag)] for v in c]}))
        return str(path)


# SHA-256 of stdout (numpy 2.4.6, x86-64).  The scaling pins were recorded from the implementation that wrote each
# CSV through its own writer.  The claims and `measures` pins were re-recorded when every single-qubit marginal oracle
# came from `measures.marginal_spectrum`, in plain floats from the slots, in place of a BLAS Gram and a stacked
# eigensolve: only oracle fields moved, and they read the same under OpenBLAS's SkylakeX, Haswell and Nehalem kernels.
# Every pin was re-recorded again with item 10 of ROADMAP.md: `binary_entropy`'s log1p form moved entropies and the
# claims that read them, the plain-float `bell_table` products and two-term norm constants moved the N = 3 output
# fields, and `marginal_spectrum`'s smaller eigenvalue, now a determinant over the larger, moved oracle fields.
# The cube's `measures` pins and the claims JSON and CSV pins were re-recorded when every 2x2 spectrum came from
# `linalg.two_level_spectrum` (eta_minus moved by 4 ULP) and the recovery probability from |c2 + c3|^2 (the recovery
# fields and the `recovery-probability-cube-roots` claim moved by 1 ULP); the claims text rounds both to six digits.
# The claims pins, the cube's `measures` pins and the N = 8 `--coeffs` pin were re-recorded when every two-level
# entropy took H2 of the smaller root and `binary_entropy` read exactly 0.0 at and below its cutoff: the cube's
# `entanglement_bits` and concurrence-route EoF moved by 1 ULP, and the N = 8 closed form by 7.6e-18.
# The three `--coeffs` states' amplitude magnitudes differ, so unlike the cube's they pin the rounding of every
# per-party entropy; the N = 8 state's |c_1|^2 is below 1e-14, so its closed form is exactly 0.0, and its oracle
# is the larger eigenvalue's term rounded, 1.6e-16.
GOLDEN_REPORTS = [
    (["claims"], "bbfb1d44dbdc5032947d7b86f7334a55da48aa0fc5a6d8abec818f3d030336c2"),
    (["claims", "--format", "json"], "a08db38a45f367dc8cc6bef396ee0f25da4db8e077411a7dc1995e7aa274ba51"),
    (["claims", "--format", "csv"], "8821298737b29fd1cb7ed4026609f2170b3a8ae0c280cef46898919e6fb15c07"),
    (["measures", "--gen", "cube", "--theta", "1.1", "--phi", "0.3"],
     "e919fe2aab674566559a6b63e3bf5149af58ac035984b4b7beb573cb5a461127"),
    (["measures", "--gen", "cube", "--theta", "1.1", "--phi", "0.3", "--format", "csv"],
     "fa76dbc05d0b213393bb1d62456de502a9a13412413af26eee3f964e76ba94cd"),
    (["scaling", "--max", "40"], "c04324dad721239d0fe3b7eb57ffbfa4f993b717faeeb2ca6fe7f689195be4d7"),
    (["scaling", "--max", "40", "--format", "csv"],
     "a8f996ff1c3f6adfcbcf5defe0e000d48f6fab475987cce53386590bc8c4cc2d"),
    (["measures", "--coeffs", SeededCoeffs(4, 2304), "--theta", "0.7", "--phi", "0.2"],
     "b0f8e2370154a4d3a054376d8d6f2f237464e9ca827fa076ea6e5071a57b6bf4"),
    (["measures", "--coeffs", SeededCoeffs(5, 2305), "--theta", "2.3", "--phi", "4.1"],
     "7578169f3bc6aed5d8271fcfbae5eaa958bcaf9202af617fae528377df40eee6"),
    (["measures", "--coeffs", SeededCoeffs(8, 2308, tiny=True), "--theta", "1.9", "--phi", "5.5"],
     "0f361744b58f3fdc165e1d0d3673b515748bfcdbf1909f5e8ecc0f627fdf5ca5"),
]


@pytest.mark.parametrize(
    "argv,digest",
    GOLDEN_REPORTS,
    ids=["claims-text", "claims-json", "claims-csv", "measures-json", "measures-csv", "scaling-json",
         "scaling-csv", "measures-coeffs4", "measures-coeffs5", "measures-coeffs8-tiny"],
)
def test_report_golden_output(capsys, tmp_path, argv, digest):
    argv = [arg.write(tmp_path) if isinstance(arg, SeededCoeffs) else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,budget",
    [(["measures", "--gen", "roots:8"], 0), (["measures", "--gen", "cube", "--theta", "1.1", "--phi", "0.3"], 4)],
    ids=["roots8", "cube"],
)
def test_measures_eigensolve_budget(capsys, monkeypatch, argv, budget):
    """No eigensolve for any single-qubit marginal of a report, the shared state's or, for the cube, both outputs'
    (`measures.marginal_spectrum` reads them off the slots); the cube's four are the PPT oracle, the positivity check
    of its one pair marginal and the concurrence oracle's two.  Nor a dense state for them: no `build_state` call,
    and the one output vector built is the reference-0 one that the CNOT recovery acts on."""
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(cli, "build_state", counted("build_state", cli.build_state))
    vector = protocol.CobwebState.vector.func
    monkeypatch.setattr(protocol.CobwebState, "vector",
                        property(lambda cw: counted(f"vector-{cw.reference_bit}", vector)(cw)))
    assert run_cli(capsys, *argv)[0] == 0
    eigensolves = [name for name in calls if name.startswith("eig")]
    assert len(eigensolves) == budget, calls
    assert [name for name in calls if not name.startswith("eig")] == (["vector-0"] if budget else []), calls


def test_claims_sign_rule_counts_disagreements(capsys, monkeypatch):
    """With the simulated recovery probability flipped around 1/2, the sign rule must be flagged."""
    real = cli.cnot_disentangle

    def flipped(c):
        result = real(c)
        return {**result, "simulated_probability": 1.0 - result["simulated_probability"]}

    monkeypatch.setattr(cli, "cnot_disentangle", flipped)
    code, out, _ = run_cli(capsys, "claims", "--format", "json")
    assert code == 0
    row = next(row for row in map(json.loads, out.splitlines()) if row["claim"] == "recovery-sign-rule")
    assert row["computed"] < 1.0
    assert row["status"] == "flag"


def test_run_messages_requires_session(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "run", "--gen", "cube", "--theta", "1.0", "--messages", str(tmp_path / "log.jsonl"),
    )
    assert code == 2
    assert "--session" in err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """After the first call, main reuses its parser and still runs the module's current command."""
    assert run_cli(capsys, "validate", "--gen", "cube")[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(cli, "cmd_scaling", lambda args: 7)
    for argv in (["validate", "--gen", "cube"], ["run", "--gen", "cube", "--theta", "1.0"],
                 ["measures", "--gen", "cube"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, "scaling", "--max", "3")[0] == 7
    assert built == []


_VALID_ARGVS = [
    ["validate", "--gen", "cube"],
    ["validate", "--coeffs", "c.json", "--format", "json", "--output", "out.json"],
    ["run", "--gen", "roots:5", "--theta", "1.1", "--phi", "-0.5", "--trials", "7", "--seed", "3",
     "--outcome", "PsiPlus", "--session", "--messages", "m.jsonl", "--format=csv"],
    ["run", "--theta-d", "30", "--gen", "cube"],
    ["measures", "--gen", "cube"],
    ["measures", "--coeffs", "c.json", "--theta-deg", "45", "--format", "csv"],
    ["scaling"],
    ["scaling", "--max", "10", "--format", "csv"],
    ["claims"],
    ["claims", "--format", "json", "--output", "c.txt"],
]


@pytest.mark.parametrize("argv", _VALID_ARGVS, ids=" ".join)
def test_main_parses_as_the_full_parser(monkeypatch, argv):
    """main parses with the subcommand's parser alone, into the namespace the full parser gives."""
    seen, progs = [], []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(args) or 0)
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert main(argv) == 0
    assert progs == [f"qcobweb {argv[0]}"]
    assert vars(seen[0]) == vars(cli.build_parser()[0].parse_args(argv))


def _exit(capsys, parse, argv) -> tuple:
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["run", "--gen", "cube", "--theta", "1.0", "--bogus"],
    ["run", "--gen", "cube"],
    ["measures", "--gen", "cube", "--format", "xml"],
    ["run", "--gen", "cube", "--theta", "1.0", "--theta-deg", "30"],
    ["run", "-h"],
    ["validate", "--gen", "cube", "stray", "--bogus=1", "-x"],
    ["scaling", "--max", "3", "--", "x"],
    ["run", "--gen", "cube", "--the", "1.0"],
    [],
    ["-h"],
    ["bogus", "--gen", "cube"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_fails_as_the_full_parser(capsys, argv):
    """A bad argv exits with the full parser's code and its stdout and stderr bytes."""
    expected = _exit(capsys, cli.build_parser()[0].parse_args, argv)
    assert _exit(capsys, main, argv) == expected


# --- package surface ----------------------------------------------------------------

REPO = Path(__file__).parents[1]


def test_readme_quick_start_runs(tmp_path):
    """README's Quick-start block runs as written against this checkout: it imports only names the package exports."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "from qcobweb import" in block
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# The callables bench/layertrace.py keys per-layer counters on, as "<module>.<function>" or "<module>.<class>.<method>".
TRACED_COUNTER_KEYS = {
    "linalg.project", "linalg.apply_gate", "linalg.PureState.__post_init__", "linalg.DensityMatrix.__post_init__",
    "protocol.Transcript.to_dict", "session.ClassicalMessage.__post_init__",
}


def test_traced_counter_callables_exist():
    """Each callable the layer tracer counts is still defined where the tracer looks for it.

    The tracer wraps, by name, the functions a module defines and the methods a class defines; a callable deleted
    or moved to another module would read as a zero count, not as an error.
    """
    source = (REPO / "bench" / "layertrace.py").read_text(encoding="utf-8")
    assert set(re.findall(r'(?:calls|inclusive_s)\["([\w.]+)"\]', source)) == TRACED_COUNTER_KEYS
    for key in TRACED_COUNTER_KEYS:
        module, name, *method = key.split(".")
        obj = vars(importlib.import_module(f"qcobweb.{module}"))[name]
        if method:
            obj = vars(obj)[method[0]]
        assert callable(obj) and obj.__module__ == f"qcobweb.{module}", key


def _identifiers(tree) -> set:
    """The names a syntax tree uses: each ``name`` and ``x.name`` but numpy's (``np.outer``, ``np.multiply.outer``),
    and each name a ``from`` import takes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id == "np"):
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_package_callable_is_run_by_the_package_or_bench():
    """Each public top-level function and class of the package is used by package code outside its own
    definition, or by `bench/`, or is a command entry point.  A dense oracle that only tests call belongs in
    tests/oracles.py.  A package import counts as no use: only the code that calls a name does."""
    defined, used = [], set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, ast.ImportFrom):
                continue
            own = set()
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{statement.name}")
                own = {statement.name}
            used |= _identifiers(statement) - own
    for path in sorted((REPO / "bench").glob("*.py")):
        used |= _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    unused = [key for key in defined
              if not (name := key.split(".")[1]).startswith("_") and name not in used
              and name not in {"main", "build_parser"} and not name.startswith("cmd_")]
    assert unused == []
