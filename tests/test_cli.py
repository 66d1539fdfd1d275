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

from qcobweb import cli
from qcobweb.cli import main
from qcobweb.protocol import BellOutcome, run_protocol
from qcobweb.session import run_session
from qcobweb.states import UnknownQubit, roots_of_unity_zsa

from oracles import is_product_state


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
    coeffs = z.coeffs.tolist()
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


def test_validate_unknown_generator(capsys):
    code, _, err = run_cli(capsys, "validate", "--gen", "bogus")
    assert code == 2
    assert "unknown generator" in err


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
GOLDEN_RUNS = [
    (
        ["--gen", "cube", "--theta", "1.2", "--phi", "0.4", "--trials", "40", "--seed", "9"],
        "6594cd5a47ab4f9c4a1cff7a560d7589053a3b455307b0b8dbc0d456b204c326",
        None,
    ),
    (
        ["--gen", "roots:4", "--theta", "0.9", "--phi", "1.1", "--trials", "30", "--seed", "3", "--format", "csv"],
        "53c4d54fa3347b46f5ca28fdc7b1cc0a1d280ec4938dd4826c4fb4e8e98fdef5",
        None,
    ),
    (
        ["--gen", "roots:5", "--theta", "1.0", "--phi", "0.2", "--trials", "25", "--seed", "5", "--session"],
        "9a7be6b845a555d448351bdf52a84e49f5c69c0da165ed43b339050f40edb352",
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
        "1a20bfbd29b3580fd4cb2628eee56bdfb05ca4e46477c104eb36b2df19a9752f",
        "102a908948c8af880454099eab91ab66ad2ee1305e23f63c93f4fe364ca7031d",
    ),
    # Wide rows, recorded from the renderer that ran every amplitude through json.dumps.  The three
    # signed-zero rows printed -0.0 cells left by the dense per-qubit corrections; they are re-pinned
    # with those cells as 0.0, the one byte change of writing each branch on its one-hot support.
    (
        ["--gen", "roots:14", "--theta", "1.1", "--phi", "0.3", "--session", "--format", "csv", "--trials", "5",
         "--seed", "2"],
        "e95994831459b33517c68becf1dcc0732fbeee72dccce1166a198f0754d8deb6",
        "e2ce8dacde67d403b72e7d79d00c8fd8cf3f9a919834715cb9230a4a83766e22",
    ),
    (
        ["--gen", "roots:11", "--theta", "0.6", "--phi", "2.2", "--trials", "6", "--seed", "4"],
        "0e3b7ad8cf92013bdb7c2dfdf46bc9d7060af2ec838faef4493b5af1bf79d7ca",
        None,
    ),
    (
        ["--gen", "roots:12", "--theta", "1.9", "--phi", "0.8", "--outcome", "PhiPlus"],
        "f6be8062366140318e66147d12f9663215e1b354d2da2c492fef07590396bbba",
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
        "5a4f3754dc6cb06f14d2c816ad22f6986ec55bd6ebbba90cc38c43dc3769923f",
        None,
    ),
    # Checked against Generator.choice drawing every trial in turn: calls that cross block draws, and
    # seeds of two, three and four 32-bit words.
    (
        ["--gen", "cube", "--theta", "1.3", "--phi", "0.5", "--trials", "5000", "--seed", "12"],
        "45cd7e0d0427fb94534796044eb5724d8de29541e367f684a207d05b712098d5",
        None,
    ),
    (
        ["--gen", "cube", "--theta", "0.9", "--trials", "40", "--seed", "4294967296"],
        "70e63d4c734bb9ba37bf299c7ca3ddd41f422e09164489021c5a8e79348b84e7",
        None,
    ),
    (
        ["--gen", "roots:4", "--theta", "2.1", "--phi", "1.0", "--trials", "40", "--seed", "18446744073709551616"],
        "62836f5ccbc2c2d7d19dbf264834b0a4ffb3b3467159bf4f53778b84cf62fef2",
        None,
    ),
    (
        ["--gen", "cube", "--theta", "1.7", "--phi", "3.0", "--trials", "40", "--seed",
         "1267650600228229401496703205376", "--format", "csv"],
        "19773fb46755888ae7c95c0b9ab382f928b705998de070e2d6ce8445e1f444dd",
        None,
    ),
    (
        ["--gen", "roots:5", "--theta", "1.4", "--phi", "0.6", "--trials", "300", "--seed", "31", "--session"],
        "6ada1c72e5a2ef034a363153c157d2a39c1f9df64eaf4e81731100802f046f1e",
        "a0795e0e7ac4d2649dcfd76839675e696f8f2ff162dc3de1736459f17c49d9c1",
    ),
    # Recorded from the implementation that drew 128-trial blocks and wrote one row, and one message-log
    # line, per write call: this call crosses two 1024-trial blocks and many write chunks of each file.
    (
        ["--gen", "roots:5", "--theta", "1.4", "--phi", "0.6", "--trials", "2100", "--seed", "31", "--session"],
        "126aa50b372cc034aaffead20245dae1c6526d8d6cf93e981401f04c3c79f806",
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
    *([run_protocol(UnknownQubit(0.8, 2.9), roots_of_unity_zsa(14), outcome=outcome).final.slots]
      for outcome in (BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS)),
], ids=["crafted", "signed-zeros", "all-zero", "sparse-random", "first-pair", "last-pair", "first-and-last",
        "adjacent-pairs", "one-amplitude", "one-imaginary", "one-zero", "protocol-14-reference-0",
        "protocol-14-reference-1"])
def test_amplitude_text_matches_json_dumps_per_cell(cases):
    for slots in cases:
        for reference_bit in (0, 1):
            dense = _dense(slots, reference_bit)
            oracle = [[float(a.real), float(a.imag)] for a in dense]  # as `Transcript.to_dict` writes them
            assert cli._amplitude_text(slots, reference_bit, True).split(",") == [
                json.dumps(float(x)) for x in dense.view(np.float64)
            ]
            text = cli._amplitude_text(slots, reference_bit, False)
            assert json.loads(text) == oracle
            assert text == json.dumps(oracle)  # also tells -0.0 from 0.0, which == does not


@pytest.mark.parametrize("name,extra", [("run_protocol", []), ("run_session", ["--session"])])
def test_run_builds_each_branch_once(capsys, monkeypatch, name, extra):
    calls = []
    real = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(kwargs.get("outcome"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    code, out, _ = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", "--trials", "1000", "--seed", "4", *extra)
    assert code == 0
    assert len(out.splitlines()) == 1001
    assert len(calls) <= 4
    assert len(set(calls)) == len(calls)



def _counted(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(cli, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("trials", [1500, 1, 129, cli.DRAW_BLOCK + 1, 2 * cli.DRAW_BLOCK + 2])
def test_run_draws_trial_zero_alone_then_blocks(capsys, monkeypatch, trials):
    """Trial 0 is a block of one; the rest come from blocks of up to `DRAW_BLOCK` on the same generator, and a
    one-trial call draws no other block."""
    block = _counted(monkeypatch, "draw_outcome_block")
    code, out, _ = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", "--trials", str(trials), "--seed", "8")
    assert code == 0
    assert len(out.splitlines()) == trials + 1
    rng = block[0][1]
    assert isinstance(rng, np.random.Generator)
    assert all(call[1] is rng for call in block)
    assert [call[2] for call in block] == [
        1, *(min(cli.DRAW_BLOCK, trials - start) for start in range(1, trials, cli.DRAW_BLOCK))
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
    assert list(tmp_path.iterdir()) == []


def _built_outcomes(capsys, monkeypatch, *argv) -> list:
    calls = []
    real = cli.run_protocol

    def counted(*args, **kwargs):
        calls.append(kwargs.get("outcome"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", counted)
    code, _, _ = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", *argv)
    assert code == 0
    return calls


def test_run_builds_every_branch_whatever_the_draws(capsys, monkeypatch):
    # seed 6 draws PhiMinus on all four trials; the call still builds all four branches
    calls = _built_outcomes(capsys, monkeypatch, "--trials", "4", "--seed", "6")
    assert calls[0] == BellOutcome.PHI_MINUS
    assert sorted(calls, key=lambda o: o.value) == list(BellOutcome)
    # below four trials a call builds only the branches it draws
    for trials in ("1", "3"):
        assert _built_outcomes(capsys, monkeypatch, "--trials", trials, "--seed", "6") == [BellOutcome.PHI_MINUS]


def test_run_never_builds_an_undrawable_branch(capsys, monkeypatch):
    real = cli.branch_probabilities

    def no_psi_minus(q, z):
        return {**real(q, z), BellOutcome.PSI_MINUS: 0.0}

    monkeypatch.setattr(cli, "branch_probabilities", no_psi_minus)
    calls = _built_outcomes(capsys, monkeypatch, "--trials", "40", "--seed", "3")
    assert sorted(calls, key=lambda o: o.value) == [BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS]


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


def test_run_rejects_zero_probability_forced_outcome(capsys, tmp_path):
    # a valid ZSA state with c_1 = 1e-8: at theta = 0 the Psi branches have probability |c_1|^2 / 2
    source = tmp_path / "tiny_c1.json"
    source.write_text(json.dumps({"coeffs": [[1e-8, 0.0], [2**-0.5 - 5e-9, 0.0], [-(2**-0.5 + 5e-9), 0.0]]}))
    rows = tmp_path / "rows.jsonl"
    argv = ["run", "--coeffs", str(source), "--theta", "0", "--output", str(rows)]
    code, out, err = run_cli(capsys, *argv, "--outcome", "PsiPlus")
    assert code == 2
    assert out == ""
    assert "forced outcome PsiPlus has probability 5.000e-17" in err
    assert not rows.exists()
    # a sampled call never lands there
    code, _, err = run_cli(capsys, *argv, "--trials", "40")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("extra", [[], ["--session", "--messages", "log.jsonl"]], ids=["protocol", "session"])
def test_run_rejects_parties_past_the_dense_cap(capsys, tmp_path, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "run", "--gen", "roots:21", "--theta", "1.0", "--output", "rows.jsonl", *extra)
    assert code == 2
    assert out == ""
    assert err == "invalid request: dense statevectors are limited to 20 qubits\n"
    assert list(tmp_path.iterdir()) == []


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


def test_run_session_rejects_two_parties_as_session(capsys):
    code, out, err = run_cli(capsys, "run", "--gen", "epr", "--theta", "1.0", "--session")
    assert code == 2
    assert out == ""
    assert "a session needs at least three parties" in err


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


def test_measures_many_parties(capsys):
    code, out, _ = run_cli(capsys, "measures", "--gen", "roots:5")
    assert code == 0
    doc = json.loads(out)
    assert "ppt" not in doc
    assert len(doc["splitting_entropy"]) == 5


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


# SHA-256 of stdout, recorded from the implementation that built the claims row
# by row and wrote each CSV through its own writer (numpy 2.4.6, x86-64).
GOLDEN_REPORTS = [
    (["claims"], "b6d5ea957e4bca64ed7fdd66d48c66dd630d4d39de53b054d96f8d48932103c0"),
    (["claims", "--format", "json"], "967778f0bde0d0aed1d03c4b7760ca521a7f492f674a8fdd08e3f7a5bfbc1ee5"),
    (["claims", "--format", "csv"], "b4a0168aedf8cbe6001942bb0d0d498680552a02dd533090ab3b1bb8160358b0"),
    (["measures", "--gen", "cube", "--theta", "1.1", "--phi", "0.3"],
     "73252d987ae5b2f0fa34852b6f5144c3b7db70b7f3e7d2a28fde81a91c4556b2"),
    (["measures", "--gen", "cube", "--theta", "1.1", "--phi", "0.3", "--format", "csv"],
     "c5c582f42cc0ed5f241c3235f3508d396b7c974d2bb0b1596fe9e865c5e97d18"),
    (["scaling", "--max", "40"], "a3b9808e77986abc69f686e2160312627c9c03cde57aeac2db057e098e71cf17"),
    (["scaling", "--max", "40", "--format", "csv"],
     "73755f0a747d115d7e406d70fefc8bf39a985977e8d6fdbb74df258265a0301d"),
]


@pytest.mark.parametrize(
    "argv,digest",
    GOLDEN_REPORTS,
    ids=["claims-text", "claims-json", "claims-csv", "measures-json", "measures-csv", "scaling-json",
         "scaling-csv"],
)
def test_report_golden_output(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,budget",
    [(["measures", "--gen", "roots:8"], 1), (["measures", "--gen", "cube", "--theta", "1.1", "--phi", "0.3"], 7)],
    ids=["roots8", "cube"],
)
def test_measures_eigensolve_budget(capsys, monkeypatch, argv, budget):
    """One stacked eigensolve per state's single-qubit marginals; the cube's other four are the PPT oracle, the
    positivity check of its one pair marginal and the concurrence oracle's two."""
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    assert run_cli(capsys, *argv)[0] == 0
    assert len(calls) == budget, calls


def test_claims_sign_rule_counts_disagreements(capsys, monkeypatch):
    """With the simulated recovery probability flipped around 1/2, the sign rule must be flagged."""
    real = cli.cnot_disentangle

    def flipped(c):
        result = real(c)
        return dataclasses.replace(result, success_probability=1.0 - result.success_probability)

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
