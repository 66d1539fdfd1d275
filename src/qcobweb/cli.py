"""Command-line harness.

Subcommands:

* ``validate``  check an amplitude source against the ZSA invariants
* ``run``       protocol / session trials with seeded outcome sampling
* ``measures``  full measure report for one state (closed forms and oracles)
* ``scaling``   splitting-entanglement curve of the Nth-roots family
* ``claims``    reference numeric claims vs computed values, pass/flag status

Exit codes: 0 success, 2 domain-invalid input, 3 unreadable or malformed
input.  Output is plain text or machine-readable JSON/CSV; no color is ever
emitted, so NO_COLOR is honored trivially.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .disentangle import cnot_disentangle, obstruction, success_probability_sign
from .linalg import (
    PureState,
    binary_entropy,
    entropy_of_eigenvalues,
    single_qubit_spectra,
    state_fidelity,
)
from .measures import (
    cobweb_spectrum,
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    ppt_report,
    scaling_curve,
    splitting_entropy,
)
from .protocol import (
    DEGENERATE_PROBABILITY,
    BellOutcome,
    Transcript,
    branch_probabilities,
    cobweb_state,
    draw_outcome_block,
    normalization_constants,
    run_protocol,
)
from .session import (
    ResourceLedger,
    classical_only_baseline,
    messages_to_jsonl,
    require_session,
    run_session,
)
from .states import (
    AmplitudeFileError,
    UnknownQubit,
    ZsaAmplitudes,
    ZsaValidationError,
    build_state,
    epr_zsa,
    load_amplitudes,
    random_zsa,
    reduced_pair,
    reduced_single,
    roots_of_unity_zsa,
    slot_positions,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3

def _resolve_source(args) -> ZsaAmplitudes:
    if args.coeffs is not None:
        return load_amplitudes(args.coeffs)
    name = args.gen
    if name == "epr":
        return epr_zsa()
    if name == "cube":
        return roots_of_unity_zsa(3)
    if name.startswith("roots:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad generator {name!r}; expected roots:N with integer N") from None
        return roots_of_unity_zsa(n)
    raise ValueError(f"unknown generator {name!r}; expected epr, cube, or roots:N")


def _qubit_from_args(args) -> UnknownQubit:
    theta = math.radians(args.theta_deg) if args.theta_deg is not None else args.theta
    return UnknownQubit(theta, args.phi)


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _render_cell(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _csv_line(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _flatten(value, prefix: str = ""):
    """Depth-first (key, scalar) pairs; lists get [i] suffixes."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _flatten(sub, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            yield from _flatten(sub, f"{prefix}[{i}]")
    else:
        yield prefix, value


def _csv_table(header, rows) -> str:
    """A header line, then one line per row with every cell rendered by `_render_cell`."""
    return _csv_line(header) + "".join(_csv_line(map(_render_cell, row)) for row in rows)


# --- validate -------------------------------------------------------------


def cmd_validate(args) -> int:
    """The four figures of a valid source: plain lines, one JSON object, or ``key,value`` rows."""
    z = _resolve_source(args)
    figures = {
        "parties": z.num_parties,
        "sum_residual": abs(complex(np.sum(z.coeffs))),
        "norm_deviation": abs(math.fsum((z.coeffs.view(np.float64) ** 2).tolist()) - 1.0),
        "min_abs_coefficient": float(np.min(np.abs(z.coeffs))),
    }
    if args.format == "json":
        _emit(json.dumps(figures) + "\n", args.output)
    elif args.format == "csv":
        _emit(_csv_table(["key", "value"], figures.items()), args.output)
    else:
        _emit(f"valid ZSA coefficients: {figures['parties']} parties\n"
              f"|sum residual|  = {figures['sum_residual']:.6e}\n"
              f"|norm - 1|      = {figures['norm_deviation']:.6e}\n"
              f"min |c_k|       = {figures['min_abs_coefficient']:.6e}\n", args.output)
    return EXIT_OK


# --- run ------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _zero_run(csv_cells: bool, count: int) -> str:
    """``count`` zero pairs, each followed by its separator; only the last format and count are kept."""
    return ("0.0,0.0," if csv_cells else "[0.0, 0.0], ") * count


def _amplitude_text(slots: np.ndarray, reference_bit: int, csv_cells: bool) -> str:
    """A `CobwebState`'s dense amplitudes as CSV cells ``re,im,...`` or JSON pairs ``[[re, im], ...]``.

    Each cell reads as ``json.dumps(float(x))``.  Only the N slots are formatted, in ascending basis position
    (``str.format`` writes a float as its ``repr``, as ``json.dumps`` does a finite one); the zero runs between
    them are slices of one cached string, so the cost is set by N, not by 2^(N-1).
    """
    n = slots.size - 1
    cell, sep = ("{},{}", ",") if csv_cells else ("[{}, {}]", ", ")
    zeros = _zero_run(csv_cells, 1 << n)
    width = len(zeros) >> n
    parts, done = [], 0
    for k, pair in sorted(zip(slot_positions(n, reference_bit), slots.view(np.float64).reshape(-1, 2).tolist())):
        parts += [zeros[: (k - done) * width], cell.format(*pair), sep]
        done = k + 1
    parts.append(zeros[: ((1 << n) - done) * width])
    text = "".join(parts)[: -len(sep)]
    return text if csv_cells else f"[{text}]"


@functools.lru_cache(maxsize=1)
def _amplitude_names(count: int) -> str:
    """``amp0_re,amp0_im,...`` for ``count`` amplitudes; only the last count is kept, so a wide call pins nothing."""
    return ",".join(f"amp{i}_re,amp{i}_im" for i in range(count))


def _csv_header(transcript: Transcript) -> str:
    """The header line; like the amplitude cells, the generated ``amp{i}_re`` names need no quoting."""
    amps = _amplitude_names(2 ** (transcript.final.zsa.num_parties - 1))
    return _csv_line(["trial", *transcript.scalar_fields(), "product_state"])[:-1] + "," + amps + "\n"


@dataclasses.dataclass(frozen=True)
class _Branch:
    """What every trial that lands on one Bell branch writes."""

    transcript: Transcript
    tail: str  # serialized row after the trial index, newline included
    messages: str  # the session's message log as JSON lines, newline-ended; empty without --session
    ledger: ResourceLedger | None


def _build_branch(args, z: ZsaAmplitudes, q: UnknownQubit, outcome: BellOutcome) -> _Branch:
    """Run one forced branch and serialize its row once for the whole call, from the output's N slots."""
    ledger, messages = None, ""
    if args.session:
        result = run_session(q, z, outcome=outcome)
        transcript, ledger, messages = result.transcript, result.ledger, messages_to_jsonl(result.messages) + "\n"
    else:
        transcript = run_protocol(q, z, outcome=outcome)
    scalars, final = transcript.scalar_fields(), transcript.final
    product = int(final.is_product())
    amps = _amplitude_text(final.slots, final.reference_bit, args.format == "csv")
    if args.format == "csv":
        tail = "," + _csv_line(map(_render_cell, [*scalars.values(), product]))[:-1] + "," + amps + "\n"
    else:
        tail = f", {json.dumps(scalars)[1:-1]}, \"final_state\": {amps}, \"product_state\": {product}}}\n"
    return _Branch(transcript, tail, messages, ledger)


# Trials per block draw.  A block costs about 16 us of fixed numpy work plus 0.04 us and, at its peak, 16 B per
# trial (2-vCPU x86-64, numpy 2.4.6): 0.055 us a trial for about 16 KB of buffers.  2048 would save 0.02 us a trial.
DRAW_BLOCK = 1024
# Characters per write: rows and message-log lines are joined at most this many at a time, whatever `--trials`
# or the row width.  A longer row is written on its own, as its prefix and then its branch's shared tail.
WRITE_CHUNK = 1 << 16


def _outcome_blocks(probs, seed: int, trials: int, forced: BellOutcome | None):
    """(first trial, outcome values) per block: trial 0 on its own, then up to `DRAW_BLOCK` trials at a time.

    A sampled call draws trial t from the t-th double of ``default_rng(seed)``.  Trial 0 is a block of one, so the
    first row waits for one draw only.
    """
    rng = np.random.default_rng(seed) if forced is None else None
    yield 0, [forced.value] if forced is not None else draw_outcome_block(probs, rng, 1).tolist()
    for start in range(1, trials, DRAW_BLOCK):
        stop = min(start + DRAW_BLOCK, trials)
        yield start, ([forced.value] * (stop - start) if forced is not None
                      else draw_outcome_block(probs, rng, stop - start).tolist())


def _chunks(count: int, longest: int):
    """(i, j) bounds that split ``count`` lines of at most ``longest`` characters into writes of at most
    `WRITE_CHUNK` characters; a line longer than the cap gets a write of its own."""
    step = max(1, WRITE_CHUNK // longest)
    return ((i, min(i + step, count)) for i in range(0, count, step))


def cmd_run(args) -> int:
    """Stream one row per trial; each Bell branch is run and serialized once per call, from its N slots.

    Every trial shares (q, z), so its row is one of four fixed by its Bell outcome.  Trials are drawn in
    `_outcome_blocks` and written in chunks of at most `WRITE_CHUNK` characters, each row copied at most
    once, so a call holds one block's draw buffers and one chunk of text, whatever `--trials`.  The first
    trial builds only the branch it lands on; a sampled call of at least four trials then builds every
    other branch that would not raise `DegenerateBranch`, so its cost does not depend on the draws.
    """
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError("expected non-negative integer")
    if args.messages and not args.session:
        raise ValueError("--messages requires --session")
    if args.messages and args.output and _same_file(args.messages, args.output):
        raise ValueError("--messages and --output name the same file")
    z = _resolve_source(args)
    q = _qubit_from_args(args)
    if args.session:
        require_session(z)
    probs = branch_probabilities(q, z)
    forced = BellOutcome.from_label(args.outcome) if args.outcome else None
    if forced is not None and probs[forced] < DEGENERATE_PROBABILITY:
        raise ValueError(f"forced outcome {forced.label} has probability {probs[forced]:.3e}")
    lead = '{"trial": ' if args.format != "csv" else ""
    branches: list[_Branch | None] = [None] * len(BellOutcome)  # by outcome value
    counts: Counter = Counter()
    with contextlib.ExitStack() as stack:
        log = stack.enter_context(open(args.messages, "w", encoding="utf-8")) if args.messages else None
        out = stack.enter_context(open(args.output, "w", encoding="utf-8")) if args.output else sys.stdout
        for start, values in _outcome_blocks(probs, args.seed, args.trials, forced):
            drawn = sorted(set(values))
            for value in drawn:
                if branches[value] is None:
                    branches[value] = _build_branch(args, z, q, BellOutcome(value))
            if start == 0 and args.format == "csv":
                out.write(_csv_header(branches[values[0]].transcript))
            tails = {value: branches[value].tail for value in drawn}
            longest = len(lead) + len(str(start + len(values) - 1)) + max(map(len, tails.values()))
            for i, j in _chunks(len(values), longest):
                parts = [lead] * (3 * (j - i))  # lead, trial, tail per row
                parts[1::3] = map(str, range(start + i, start + j))
                parts[2::3] = map(tails.__getitem__, values[i:j])
                out.write("".join(parts[:-1]))  # the last tail goes on its own, so a row wider than a chunk
                out.write(parts[-1])  # is written without a copy of its branch's tail
            if log is not None:
                lines = {value: branches[value].messages for value in drawn}
                for i, j in _chunks(len(values), max(map(len, lines.values()))):
                    log.write("".join([lines[value] for value in values[i:j]]))
            counts.update(values)
            if start == 0 and forced is None and args.trials >= len(BellOutcome):
                for other in BellOutcome:
                    if branches[other.value] is None and probs[other] >= DEGENERATE_PROBABILITY:
                        branches[other.value] = _build_branch(args, z, q, other)

        summary = {"trials": args.trials, "seed": args.seed}
        for outcome in BellOutcome:
            summary[f"empirical_{outcome.label}"] = counts[outcome.value] / args.trials
            summary[f"expected_{outcome.label}"] = probs[outcome]
        ledger = next(branch.ledger for branch in branches if branch is not None)
        if ledger is not None:  # a session's ledger is the same on every branch
            summary.update(dataclasses.asdict(ledger))
        if args.format == "csv":
            out.write(f"# summary: {json.dumps(summary)}\n")
        else:
            out.write(json.dumps({"summary": summary}) + "\n")
    return EXIT_OK


# --- measures ---------------------------------------------------------------


def _measures_report(z: ZsaAmplitudes, q: UnknownQubit) -> dict:
    spectra = single_qubit_spectra(build_state(z))
    report: dict = {
        "num_parties": z.num_parties,
        "coefficients": [[c.real, c.imag] for c in z.coeffs],
        "theta": q.theta,
        "phi": q.phi,
    }
    entries = {}
    for k in range(1, z.num_parties + 1):
        closed = splitting_entropy(z, k)
        oracle = entropy_of_eigenvalues(spectra[k - 1])
        entries[f"party_{k}"] = {
            "closed_form": closed,
            "oracle": oracle,
            "abs_difference": abs(closed - oracle),
        }
    report["splitting_entropy"] = entries
    if z.num_parties != 3:
        return report

    pair = reduced_pair(z)
    report["ppt"] = ppt_report(z, pair).to_dict()
    closed_eof = entanglement_of_formation(z)
    route_eof = eof_from_concurrence(concurrence(pair))
    report["entanglement_of_formation"] = {
        "closed_form": closed_eof,
        "concurrence_route": route_eof,
        "abs_difference": abs(closed_eof - route_eof),
    }

    outputs = [cobweb_state(q, z, ref) for ref in (0, 1)]
    cobwebs = {}
    for ref, cw in enumerate(outputs):
        spectrum = cobweb_spectrum(cw)
        oracle_eigs = single_qubit_spectra(cw.vector)  # rows: qubits 1 and 2
        closed_sorted = np.array([spectrum.eta_minus, spectrum.eta_plus])
        deviation = float(np.max(np.abs(closed_sorted - oracle_eigs)))
        det_oracle = float(np.prod(oracle_eigs[0]))
        cobwebs[f"reference_{ref}"] = {
            **spectrum.to_dict(),
            "oracle_eigenvalues": [float(v) for v in oracle_eigs[0]],
            "max_abs_difference": deviation,
            "determinant_oracle": det_oracle,
            "epsilon_4x_variant": 4.0 * spectrum.epsilon,
            "epsilon_4x_vs_determinant": abs(4.0 * spectrum.epsilon - det_oracle),
        }
    report["cobweb"] = cobwebs
    report["obstruction"] = obstruction(q, z).to_dict()
    recovery = cnot_disentangle(outputs[0]).to_dict()
    if 0.0 < q.theta < math.pi:
        recovery["odds"] = success_probability_sign(z, q).to_dict()
    report["recovery"] = recovery
    return report


def cmd_measures(args) -> int:
    z = _resolve_source(args)
    q = _qubit_from_args(args)
    report = _measures_report(z, q)
    if args.format == "csv":
        _emit(_csv_table(["key", "value"], _flatten(report)), args.output)
    else:
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    return EXIT_OK


# --- scaling ----------------------------------------------------------------


def cmd_scaling(args) -> int:
    curve = scaling_curve(args.max)
    if args.format == "csv":
        _emit(_csv_table(["parties", "ebits"], curve), args.output)
    else:
        lines = [json.dumps({"parties": n, "ebits": e}) for n, e in curve]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# --- claims -----------------------------------------------------------------


CLAIM_FIELDS = ["claim", "stated", "computed", "abs_diff", "status", "note"]


def _claims_rows() -> list[dict]:
    """Each claim as (claim, stated, computed, tol, note); a row passes when |computed - stated| <= tol."""
    s = 1.0 / math.sqrt(2.0)
    singlet = PureState(2, np.array([0.0, -s, s, 0.0], dtype=complex))
    cube = roots_of_unity_zsa(3)
    q_eq = UnknownQubit(math.pi / 2.0)
    report = _measures_report(cube, q_eq)
    eof, cobweb = report["entanglement_of_formation"], report["cobweb"]["reference_0"]
    # c2 = a, c3 = ia with a = 1/2: every amplitude nonzero, yet Re(c2 c3*) = 0
    zero_cross = ZsaAmplitudes([-0.5 * (1.0 + 1.0j), 0.5, 0.5j])
    nulled = obstruction(UnknownQubit(math.pi / 2.0, 0.7), zero_cross)
    curve = dict(scaling_curve(4))
    big_n = 1024
    e_big = binary_entropy(1.0 / big_n)
    baseline = classical_only_baseline(UnknownQubit(1.2, 0.4), seed=11)
    rng = np.random.default_rng(20260809)
    sign_draws, sign_agreements = 200, 0
    for _ in range(sign_draws):
        z = random_zsa(3, rng)
        q = UnknownQubit(math.acos(1.0 - 2.0 * rng.uniform(0.05, 0.95)), 2.0 * math.pi * rng.random())
        simulated = cnot_disentangle(cobweb_state(q, z, 0)).success_probability
        sign_agreements += (simulated > 0.5) == ((np.conj(z.coeffs[1]) * z.coeffs[2]).real > 0.0)
    table = [
        ("epr-reduction-singlet-fidelity", 1.0, state_fidelity(build_state(epr_zsa()), singlet), 1e-12,
         "the two-party coefficients build the singlet exactly"),
        ("cube-roots-marginal-population", 2.0 / 3.0, reduced_single(cube, 1).entries[0, 0].real, 1e-12,
         "every single-party marginal is diag(2/3, 1/3)"),
        ("cube-roots-splitting-entropy", 0.9, report["splitting_entropy"]["party_1"]["closed_form"], 0.05,
         "rounded reference value; exact closed form is 0.918296"),
        ("pair-transpose-min-eigenvalue", (1.0 - math.sqrt(5.0)) / 6.0, report["ppt"]["min_eigenvalue"], 1e-10,
         "negative eigenvalue certifies the inseparable pair marginal"),
        ("pair-eof-two-routes", eof["closed_form"], eof["concurrence_route"], 1e-10,
         "closed form vs concurrence route, about 0.550 bits"),
        ("norm-constant-pole-identity", abs(cube.coeffs[0]) ** 2,
         1.0 / normalization_constants(UnknownQubit(0.0), cube)[0] ** 2, 1e-12,
         "1/N(alpha)^2 = |c1|^2 at theta = 0"),
        ("norm-constant-cube-equator", 0.5, 1.0 / normalization_constants(q_eq, cube)[0] ** 2, 1e-12, ""),
        ("output-marginal-determinant", cobweb["epsilon"], cobweb["determinant_oracle"], 1e-10,
         "epsilon equals the determinant of either single-qubit marginal"),
        ("output-marginal-determinant-4x", cobweb["epsilon_4x_variant"], cobweb["determinant_oracle"], 1e-10,
         "variant with an extra factor of 4 fails the determinant oracle"),
        ("recovery-probability-cube-roots", 0.5, report["recovery"]["closed_form_probability"], 1e-12,
         "claimed better than chance; cube roots give P = 1/3 since Re(c2* c3) = -1/6 < 0"),
        ("recovery-sign-rule", 1.0, sign_agreements / sign_draws, 0.0,
         "P > 1/2 exactly when Re(c2* c3) > 0 (200 seeded random states)"),
        ("obstruction-always-nonzero", 1.0, 1.0 if nulled.value > 0.0 else 0.0, 0.0,
         f"claimed impossible to null with nonzero amplitudes; c2 = a, c3 = ia gives "
         f"value {nulled.value!r} (oracle {nulled.oracle_value:.3e})"),
        ("scaling-two-parties", 1.0, curve[2], 1e-12, ""),
        ("scaling-three-parties", 0.9183, curve[3], 1e-4, ""),
        ("scaling-four-parties", 0.8113, curve[4], 1e-4, ""),
        ("scaling-large-n-loose", 1.0 / big_n, e_big, 1e-4,
         "claimed ~1/N decay; the curve actually decays like (log2 N + log2 e)/N"),
        ("scaling-large-n-refined", 1.0, big_n * e_big / (math.log2(big_n) + math.log2(math.e)), 1e-3,
         "refined asymptotic ratio at N = 1024"),
        ("classical-control-entanglement", 0.0,
         max(baseline.max_coherence, baseline.entanglement_of_formation), 1e-12,
         "diagonal correlated shared state yields zero output entanglement"),
        ("classical-cost-per-recipient", 2.0,
         run_protocol(q_eq, cube, outcome=BellOutcome.PSI_MINUS).cbits_sent, 0.0,
         "two classical bits to each remote party"),
    ]
    return [
        {"claim": claim, "stated": float(stated), "computed": float(computed),
         "abs_diff": float(diff := abs(computed - stated)), "status": "pass" if diff <= tol else "flag",
         "note": note}
        for claim, stated, computed, tol, note in table
    ]


def _claims_text(rows) -> str:
    headers = ["claim", "stated", "computed", "abs_diff", "status"]
    table = [
        [
            row["claim"],
            f"{row['stated']:.6g}",
            f"{row['computed']:.6g}",
            f"{row['abs_diff']:.3g}",
            row["status"],
        ]
        for row in rows
    ]
    widths = [max(len(h), *(len(line[i]) for line in table)) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for line, row in zip(table, rows):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
        if row["note"]:
            out.append(f"    note: {row['note']}")
    flags = sum(row["status"] == "flag" for row in rows)
    out.append(f"{len(rows)} claims checked, {len(rows) - flags} pass, {flags} flagged")
    return "\n".join(out) + "\n"


def cmd_claims(args) -> int:
    rows = _claims_rows()
    if args.format == "json":
        _emit("\n".join(json.dumps(row) for row in rows) + "\n", args.output)
    elif args.format == "csv":
        _emit(_csv_table(CLAIM_FIELDS, (row.values() for row in rows)), args.output)
    else:
        _emit(_claims_text(rows), args.output)
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _add_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--gen", help="named generator: epr, cube, or roots:N")
    group.add_argument("--coeffs", help='path to a JSON document {"coeffs": [[re, im], ...]}')


def _add_qubit(parser: argparse.ArgumentParser, theta_required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=theta_required)
    group.add_argument("--theta", type=float, default=None if theta_required else math.pi / 2.0,
                       help="polar angle in radians")
    group.add_argument("--theta-deg", type=float, default=None, help="polar angle in degrees")
    parser.add_argument("--phi", type=float, default=0.0, help="azimuthal angle in radians")


def _add_output(parser: argparse.ArgumentParser, default_format: str = "json") -> None:
    formats = ["json", "csv"] if default_format == "json" else ["text", "json", "csv"]
    parser.add_argument("--format", choices=formats, default=default_format)
    parser.add_argument("--output", default=None, help="write to a file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` maps the subcommand to its ``cmd_*`` function per call."""
    parser = argparse.ArgumentParser(prog="qcobweb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check amplitudes against the ZSA invariants")
    _add_source(p)
    _add_output(p, default_format="text")

    p = sub.add_parser("run", help="run protocol or session trials")
    _add_source(p)
    _add_qubit(p, theta_required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="non-negative integer; trial t takes the t-th draw of default_rng(seed)")
    p.add_argument("--outcome", choices=[o.label for o in BellOutcome], default=None,
                   help="force a Bell branch")
    p.add_argument("--session", action="store_true", help="run the full message-passing session")
    p.add_argument("--messages", default=None, help="with --session, write message logs (JSON lines)")
    _add_output(p)

    p = sub.add_parser("measures", help="closed-form measures with their oracles")
    _add_source(p)
    _add_qubit(p, theta_required=False)
    _add_output(p)

    p = sub.add_parser("scaling", help="splitting entanglement of the Nth-roots family")
    p.add_argument("--max", type=int, default=64, help="largest party count")
    _add_output(p)

    p = sub.add_parser("claims", help="reference numeric claims vs computed values")
    _add_output(p, default_format="text")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up per call, so a replaced command is the one run
    except BrokenPipeError:
        # stdout's reader has gone (`| head`): stop quietly; with fd 1 on devnull the last flush is quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ZsaValidationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (AmplitudeFileError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
