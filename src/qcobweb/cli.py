"""Command-line harness.

Subcommands:

* ``validate``  check an amplitude source against the ZSA invariants
* ``run``       protocol / session trials with seeded outcome sampling
* ``measures``  full measure report for one state (closed forms and oracles)
* ``scaling``   splitting-entanglement curve of the Nth-roots family
* ``claims``    reference numeric claims vs computed values, pass/flag status

A call parses its arguments once, with its subcommand's own parser (`main`).
``validate`` prints the figures its source's check computed once, in plain
floats (`states.ZsaAmplitudes`): correctly rounded sums and libm moduli.
A `run` call renders a branch's row of one `protocol.bell_table` when it first
draws that branch (`_branch_row`): a head and an amplitude text filled once per
distinct row, so at most two fills at even N and three at odd N.  Forced and
sampled trials take one path: a forced ``--outcome`` is one-hot weights, and
trial 0 is drawn by a scalar `bisect`, the rest in blocks, from one
`protocol.outcome_cdf` and one generator.  Each trial is written as two parts:
its last index digits from digit tables (`_index_runs`), and its row (the
table's plain floats, which no BLAS kernel or SIMD target moves) followed by
the next trial's lead.  A three-party `measures` report reads both its outputs
from one `bell_table` and hands the reference-0 one to `obstruction`, which
builds only psi_perp's table: two tables per report.  It takes each
single-qubit oracle from slots (`measures.marginal_spectrum`), and is written by
`_indented_json`: the bytes of ``json.dumps(report, indent=2)`` without
`json`'s pure-Python indenting encoder.  Per-process caches, by key and bound:
`build_parser` (one entry), `_named_source` (the last ``--gen`` name),
`session.message_log` (party count and payload, four), and `_row_templates`
(the last register and format, with its CSV header).  Only a process that calls
`main` more than once gains from them; a ``--coeffs`` file is read on every
call.  Exit codes: 0 success, 2 domain-invalid input, 3 unreadable or malformed
input.  Each Bell branch rule is `protocol`'s alone: `bell_table` refuses fewer
than three parties, and `BellTable.probability` a degenerate branch a command
needs, each before any file opens.  Output is plain text or machine-readable
JSON/CSV; no color is ever emitted, so NO_COLOR is honored trivially.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import operator
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .disentangle import cnot_disentangle, obstruction, success_probability_sign
from .linalg import ENTROPY_CUTOFF, PureState, binary_entropy, state_fidelity
from .measures import (
    cobweb_spectrum,
    concurrence,
    eof_from_concurrence,
    marginal_spectrum,
    ppt_report,
    scaling_curve,
    splitting_entropy,
)
from .protocol import (
    CORRECTIONS,
    BellOutcome,
    BellTable,
    Transcript,
    bell_table,
    draw_outcome,
    draw_outcome_block,
    normalization_constants,
    outcome_cdf,
    run_protocol,
)
from .session import classical_only_baseline, message_log, resource_ledger
from .states import (
    MAX_DENSE_QUBITS,
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
    return load_amplitudes(args.coeffs) if args.coeffs is not None else _named_source(args.gen)


@functools.lru_cache(maxsize=1)  # the last name only; a name that fails is not kept
def _named_source(name: str) -> ZsaAmplitudes:
    if name == "epr":
        return epr_zsa()
    if name == "cube":
        return roots_of_unity_zsa(3)
    if name.startswith("roots:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad generator {name!r}; expected roots:N with integer N") from None
        try:
            return roots_of_unity_zsa(n)
        except MemoryError:  # numpy refuses an array larger than the machine can map, before touching memory
            raise ValueError(f"generator {name!r} needs more memory than can be allocated") from None
    raise ValueError(f"unknown generator {name!r}; expected epr, cube, or roots:N")


def _qubit_from_args(args) -> UnknownQubit:
    if args.theta_deg is None:
        return UnknownQubit(args.theta, args.phi)
    if not 0.0 <= args.theta_deg <= 180.0:  # checked in degrees, so the message quotes the value given
        raise ValueError(f"--theta-deg must lie in [0, 180], got {args.theta_deg!r}")
    return UnknownQubit(math.radians(args.theta_deg), args.phi)


# Characters per write: rows and message-log lines are joined at most this many at a time, whatever `--trials`,
# `--max` or the row width.  A longer row is written on its own.
WRITE_CHUNK = 1 << 16


def _emit(lines, path) -> None:
    """Write ``lines`` to ``path`` or stdout, joined at most `WRITE_CHUNK` characters at a time."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as out:
        chunk, size = [], 0
        for line in lines:
            if chunk and size + len(line) > WRITE_CHUNK:
                out.write("".join(chunk))
                chunk, size = [], 0
            chunk.append(line)
            size += len(line)
        out.write("".join(chunk))


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _refuse_overwriting_coeffs(args, *options: str) -> None:
    """Exit 2 before any file opens when one of these output options names the ``--coeffs`` file, which writing
    would overwrite before, or while, it is read."""
    for option in options:
        path = getattr(args, option)
        if path and args.coeffs is not None and _same_file(path, args.coeffs):
            raise ValueError(f"--{option} and --coeffs name the same file")


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


def _csv_lines(header, rows):
    """A header line, then one line per row: a string cell as it is, any other as ``json.dumps`` writes it."""
    yield _csv_line(header)
    for row in rows:
        yield _csv_line(cell if isinstance(cell, str) else json.dumps(cell) for cell in row)


# --- validate -------------------------------------------------------------


def cmd_validate(args) -> int:
    """The party count and the figures of its source's check: plain lines, one JSON object, or ``key,value`` rows."""
    _refuse_overwriting_coeffs(args, "output")
    z = _resolve_source(args)
    figures = {
        "parties": z.num_parties,
        "sum_residual": abs(z.amplitude_sum),
        "norm_deviation": abs(z.squared_norm - 1.0),
        "min_abs_coefficient": z.min_modulus,
    }
    if args.format == "json":
        _emit([json.dumps(figures) + "\n"], args.output)
    elif args.format == "csv":
        _emit(_csv_lines(["key", "value"], figures.items()), args.output)
    else:
        _emit([f"valid ZSA coefficients: {figures['parties']} parties\n"
               f"|sum residual|  = {figures['sum_residual']:.6e}\n"
               f"|norm - 1|      = {figures['norm_deviation']:.6e}\n"
               f"min |c_k|       = {figures['min_abs_coefficient']:.6e}\n"], args.output)
    return EXIT_OK


# --- run ------------------------------------------------------------------


_LABELS = tuple(outcome.label for outcome in BellOutcome)  # by outcome value
_FIELDS = (*Transcript.SCALAR_FIELDS, "product_state")  # the named fields of a row, in CSV order


def _amplitude_template(n: int, reference_bit: int, csv_cells: bool) -> str:
    """The format template of a `CobwebState`'s 2^n dense amplitudes, as CSV cells ``,re,im,...`` (after one comma,
    as after a row's scalar cells) or the inside of the JSON list ``[re, im], ...``.  In basis order, slot k of
    `slot_positions` takes fields 2k and 2k + 1 from the 2N floats of its `BellTable` row, and each gap of 2^j - 1
    zero cells takes field 2n + 2 + j, zero run j (`_row_templates`), so the template's length is set by N, not by
    2^(N-1)."""
    sep, cell = (",", "{%d},{%d}") if csv_cells else (", ", "[{%d}, {%d}]")
    parts, end = [], 0  # end: the basis position after the last part
    for position, k in [*sorted(zip(slot_positions(n, reference_bit), range(n + 1))), (1 << n, None)]:
        if position > end:
            parts.append("{%d}" % (2 * n + 2 + (position - end).bit_length()))
        if k is not None:
            parts.append(cell % (2 * k, 2 * k + 1))
        end = position + 1
    return ("," if csv_cells else "") + sep.join(parts)


@functools.lru_cache(maxsize=1)
def _row_templates(n: int, csv_cells: bool) -> tuple[str, tuple[str, str], tuple[str, ...], str]:
    """(head, amplitude template by reference bit, zero runs, header line) of a `run` call's rows for an n-qubit output.
    A row, written after its trial index, is its filled head and amplitude template, whose named fields take the
    scalar fields and the product flag.  Run j, for j < n, is 2^j - 1 zero cells joined by their separator: every gap
    between the slots of either reference bit, in fewer than 2^n cells.  The header is the CSV header line, empty in
    JSON; like the cells, its scalar field and ``amp{i}_re`` names need no quoting.  Only the last register and format
    are kept, so a wide call pins nothing past it."""
    sep, zero = (",", "0.0,0.0") if csv_cells else (", ", "[0.0, 0.0]")
    head, tail, header = "".join(f",{{{name}}}" for name in _FIELDS), "\n", ""
    if csv_cells:
        amplitudes = ",".join(f"amp{i}_re,amp{i}_im" for i in range(1 << n))
        header = ",".join(["trial", *_FIELDS, amplitudes]) + "\n"
    else:  # the label is the one string field, and the product flag follows the amplitudes
        head = "".join(f', "{name}": {{{name}}}' for name in _FIELDS[:-1]).replace("{outcome}", '"{outcome}"')
        head, tail = head + ', "final_state": [', '], "product_state": {product_state}}}\n'
    return (head, tuple(_amplitude_template(n, ref, csv_cells) + tail for ref in (0, 1)),
            tuple(sep.join([zero] * ((1 << j) - 1)) for j in range(n)), header)


def _branch_row(table: BellTable, outcome: BellOutcome, csv_cells: bool, texts: dict) -> tuple[str, str]:
    """What every trial that lands on ``outcome`` writes after its trial index, newline included, as two parts: its
    `_row_templates` head filled from the table, and its amplitude text, kept in ``texts`` by reference bit and row, so
    it is filled once per distinct row and a wide row is not copied per branch.  Each number reads as ``json.dumps``
    writes it (``{}`` writes a float as its ``repr``), and the label is quoted in JSON only; no cell holds a comma,
    quote or newline, so CSV quotes none.  Raises `DegenerateBranch` on a degenerate row."""
    value, reference_bit, n = outcome.value, CORRECTIONS[outcome][0], table.zsa.num_parties - 1
    head, templates, runs, _ = _row_templates(n, csv_cells)
    fields = dict(zip(_FIELDS, (_LABELS[value], value, table.probability(outcome), 2, n, reference_bit,
                                table.norm_constants[reference_bit], int(table.products[value]))))
    key = (reference_bit, table.rows[value])
    if key not in texts:
        texts[key] = templates[reference_bit].format(*key[1], *runs, **fields)
    return head.format(**fields), texts[key]


# Trials per block draw.  A block costs about 5 us of fixed numpy work plus 0.035 us and, at its peak, 16 B per trial,
# its `tolist` and `bincount` included (2-vCPU x86-64, numpy 2.4.6): 16 KB of buffers.  2048 would save 0.003 us.
DRAW_BLOCK = 1024


def _outcome_blocks(weights, seed: int, trials: int):
    """(first trial, outcome values, count by outcome value) per block, in Python ints: trial 0, then `DRAW_BLOCK`s.

    Trial t is drawn from the t-th double of ``default_rng(seed)``, on one `outcome_cdf` of ``weights``: trial 0 by a
    scalar `draw_outcome`, so the first row waits for no numpy array, and the rest by `draw_outcome_block`, its CDF an
    array built once.  One-hot weights force their outcome: both draws invert ``[0, ..., 1, 1]`` with side "right",
    which maps every double in [0, 1) to the index of the 1.
    """
    rng, cdf = np.random.default_rng(seed), outcome_cdf(weights)
    first, cdf = draw_outcome(cdf, rng), np.array(cdf)
    yield 0, [first], [int(value == first) for value in range(len(BellOutcome))]
    for start in range(1, trials, DRAW_BLOCK):
        block = draw_outcome_block(cdf, rng, min(DRAW_BLOCK, trials - start))
        yield start, block.tolist(), np.bincount(block, minlength=len(BellOutcome)).tolist()


# Trial t's last index digits at (t + 1) % 1000, the next trial's place in its thousand: `_DIGITS` up to trial 998
# as ``str`` writes them, `_DIGITS3` from trial 999 on in three digits.
_DIGITS = tuple(map(str, range(-1, 999)))
_DIGITS3 = tuple(f"{i % 1000:03}" for i in range(-1, 999))


def _index_runs(lead: str, first: int, stop: int):
    """(lo, hi, tails, after) per run of trials lo .. hi - 1 in first .. stop - 1 whose next trials share thousands:
    their last index digits, a slice of one table, and ``after``, ``lead`` and those thousands.  Written as tail, then
    row and after, a trial costs two parts: the write loop of a 1500-trial N = 3 call took 167 us against 233 us with
    three parts and a row fetch per trial, medians of 3000 interleaved reps (2-vCPU x86-64, Python 3.11.7)."""
    while first < stop:
        thousands, u = divmod(first + 1, 1000)
        hi = min(stop, first + 1000 - u)
        yield first, hi, (_DIGITS3 if thousands else _DIGITS)[u:u + hi - first], f"{lead}{thousands or ''}"
        first = hi


def _chunks(items, values, pad: int = 0):
    """(i, j, lines) per write of at most `WRITE_CHUNK` characters: ``lines`` are ``items[v]`` for v in ``values[i:j]``,
    each written beside up to ``pad`` more characters, fetched in one C-level call (`itemgetter` of one index returns
    the item bare).  A line longer than the cap gets a write of its own."""
    step = max(1, WRITE_CHUNK // (pad + max(len(item) for item in items if item)))
    for i in range(0, len(values), step):
        chunk = values[i:i + step]
        yield i, i + len(chunk), operator.itemgetter(*chunk)(items) if len(chunk) > 1 else (items[chunk[0]],)


def cmd_run(args) -> int:
    """Stream one row per trial; the four Bell branches come from one `bell_table` call, each rendered once.

    Every trial shares (q, z), so its row is one of four fixed by its Bell outcome: a head and an amplitude text, filled
    once per distinct row, and rendered when a block of `_outcome_blocks` first draws it.  A forced `--outcome` is drawn
    as one-hot weights.  After the header and trial 0's lead, a trial is two parts: its last index digits and its row
    followed by the next trial's lead, joined once per `_index_runs` run and branch, a chunk's rows fetched in one call
    by `_chunks`; the last row has nothing after it.  So a call holds one copy of each row, one block's draws and one
    chunk of text, whatever `--trials`.  With `--messages`, each payload's log is read once per call from
    `message_log`'s cache; with `--session`, the ledger is built once per call.
    """
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed: expected non-negative integer, got {args.seed}")
    if args.messages and not args.session:
        raise ValueError("--messages requires --session")
    if args.messages and args.output and _same_file(args.messages, args.output):
        raise ValueError("--messages and --output name the same file")
    _refuse_overwriting_coeffs(args, "output", "messages")
    z = _resolve_source(args)
    q = _qubit_from_args(args)
    table = bell_table(q, z)
    probs = table.probabilities
    forced = BellOutcome.from_label(args.outcome) if args.outcome else None
    if forced is not None:
        table.probability(forced)  # refuses a degenerate forced branch before any file opens
    weights = probs if forced is None else [float(outcome is forced) for outcome in BellOutcome]
    csv_cells = args.format == "csv"
    lead = "" if csv_cells else '{"trial": '
    branches: list = [None] * len(BellOutcome)  # by outcome value: `_branch_row`'s (head, amplitude text)
    follows = None  # the next trial's lead, which ends each row of `followed`, by outcome value, in this run
    texts: dict = {}  # the amplitude texts `_branch_row` fills, by reference bit and row
    logs = [message_log(z.num_parties, value) for value in range(len(BellOutcome))] if args.messages else None
    totals = [0] * len(BellOutcome)
    with contextlib.ExitStack() as stack:
        log = stack.enter_context(open(args.messages, "w", encoding="utf-8")) if args.messages else None
        out = stack.enter_context(open(args.output, "w", encoding="utf-8")) if args.output else sys.stdout
        for start, values, counts in _outcome_blocks(weights, args.seed, args.trials):
            totals = [total + count for total, count in zip(totals, counts)]
            drawn = [value for value, count in enumerate(counts) if count]
            for value in drawn:
                branches[value] = branches[value] or _branch_row(table, BellOutcome(value), csv_cells, texts)
            if start == 0:
                out.write(_row_templates(z.num_parties - 1, csv_cells)[3] + lead)
            for lo, hi, tails, after in _index_runs(lead, start, min(start + len(values), args.trials - 1)):
                if after != follows:  # a new run, whose rows are joined once the old run's are freed
                    parts, rows, followed, follows = None, None, [None] * len(BellOutcome), after
                for value in drawn:
                    followed[value] = followed[value] or "".join((*branches[value], after))
                for i, j, rows in _chunks(followed, values[lo - start:hi - start], len(tails[-1])):
                    parts = [None] * (2 * (j - i))  # tail, row, tail, row, ...
                    parts[0::2], parts[1::2] = tails[i:j], rows
                    out.write("".join(parts[:-1]))
                    out.write(parts[-1])  # on its own, so a row wider than a chunk is not copied
            if start + len(values) == args.trials:  # the last row, its head and text written apart so as not to copy it
                out.write(str(args.trials - 1)[-3:] + branches[values[-1]][0])
                out.write(branches[values[-1]][1])
            if log is not None:
                for _, _, lines in _chunks(logs, values):
                    log.write("".join(lines))

        summary = {"trials": args.trials, "seed": args.seed}
        for label, count, prob in zip(_LABELS, totals, probs):  # Python ints: an int division
            summary[f"empirical_{label}"] = count / args.trials
            summary[f"expected_{label}"] = prob
        if args.session:
            summary.update(vars(resource_ledger(z)))
        if args.format == "csv":
            out.write(f"# summary: {json.dumps(summary)}\n")
        else:
            out.write(json.dumps({"summary": summary}) + "\n")
    return EXIT_OK


# --- measures ---------------------------------------------------------------


def _measures_report(z: ZsaAmplitudes, q: UnknownQubit) -> dict:
    n = z.num_parties
    shared = [0.0, 0.0, *z.parts]  # slot 0, the all-zero string, holds nothing
    closed = [splitting_entropy(z, k) for k in range(1, n + 1)]
    oracle = [-math.fsum([x * math.log2(x) for x in marginal_spectrum(shared, k) if x > ENTROPY_CUTOFF])
              for k in range(1, n + 1)]
    report: dict = {
        "num_parties": n,
        "coefficients": [[c.real, c.imag] for c in z.coeffs],
        "theta": q.theta,
        "phi": q.phi,
        "splitting_entropy": {
            f"party_{k}": {"closed_form": c, "oracle": o, "abs_difference": abs(c - o)}
            for k, c, o in zip(range(1, n + 1), closed, oracle)
        },
    }
    if n != 3:
        return report

    table = bell_table(q, z)  # the outputs of reference bits 0 and 1; `BellTable.transcript` refuses a degenerate one
    outputs = [table.transcript(outcome).final for outcome in (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS)]
    pair = reduced_pair(z)
    report["ppt"] = ppt_report(z, pair)
    closed_eof = eof_from_concurrence(2.0 * abs(z.coeffs[1]) * abs(z.coeffs[2]))  # the pair marginal's concurrence
    route_eof = eof_from_concurrence(concurrence(pair))
    report["entanglement_of_formation"] = {
        "closed_form": closed_eof,
        "concurrence_route": route_eof,
        "abs_difference": abs(closed_eof - route_eof),
    }

    cobwebs = {}
    for ref, cw in enumerate(outputs):
        spectrum = cobweb_spectrum(cw)
        oracle_eigs = [marginal_spectrum(cw.slots, j) for j in (1, 2)]
        closed_sorted = (spectrum["eta_minus"], spectrum["eta_plus"])
        deviation = max(abs(c - o) for eigs in oracle_eigs for c, o in zip(closed_sorted, eigs))
        det_oracle = oracle_eigs[0][0] * oracle_eigs[0][1]
        cobwebs[f"reference_{ref}"] = {
            **spectrum,
            "oracle_eigenvalues": list(oracle_eigs[0]),
            "max_abs_difference": deviation,
            "determinant_oracle": det_oracle,
            "epsilon_4x_variant": 4.0 * spectrum["epsilon"],
            "epsilon_4x_vs_determinant": abs(4.0 * spectrum["epsilon"] - det_oracle),
        }
    report["cobweb"] = cobwebs
    report["obstruction"] = obstruction(outputs[0])
    recovery = cnot_disentangle(outputs[0])
    if 0.0 < q.theta < math.pi:
        recovery["odds"] = success_probability_sign(z, q)
    report["recovery"] = recovery
    return report


def _indented_json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value whose dict keys are all strings, without `json`'s pure-Python
    indenting encoder: a finite float as ``float.__repr__`` writes it (`json`'s own rule), a key as
    `encode_basestring_ascii` escapes it, and any other scalar, NaN and the infinities included, by `json.dumps`."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{encode_basestring_ascii(key)}: {_indented_json(sub, inner)}" for key, sub in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)) and value:
        items = [inner + _indented_json(sub, inner) for sub in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(value)


def cmd_measures(args) -> int:
    _refuse_overwriting_coeffs(args, "output")
    z = _resolve_source(args)
    if z.num_parties > MAX_DENSE_QUBITS:  # the report builds no dense state, but keeps the cap `run` has
        raise ValueError(f"dense statevectors are limited to {MAX_DENSE_QUBITS} qubits")
    q = _qubit_from_args(args)
    report = _measures_report(z, q)
    if args.format == "csv":
        _emit(_csv_lines(["key", "value"], _flatten(report)), args.output)
    else:
        _emit([_indented_json(report) + "\n"], args.output)
    return EXIT_OK


# --- scaling ----------------------------------------------------------------


def cmd_scaling(args) -> int:
    """One row per party count, written as the curve is computed, so memory does not grow with ``--max``."""
    curve = scaling_curve(args.max)
    if args.format == "csv":
        _emit(_csv_lines(["parties", "ebits"], curve), args.output)
    else:
        _emit((json.dumps({"parties": n, "ebits": e}) + "\n" for n, e in curve), args.output)
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
    nulled = obstruction(run_protocol(UnknownQubit(math.pi / 2.0, 0.7), zero_cross,
                                      outcome=BellOutcome.PSI_MINUS).final)
    curve = dict(scaling_curve(4))
    big_n = 1024
    e_big = binary_entropy(1.0 / big_n)
    baseline = classical_only_baseline(UnknownQubit(1.2, 0.4), seed=11)
    rng = np.random.default_rng(20260809)
    sign_draws, sign_agreements = 200, 0
    for _ in range(sign_draws):
        z = random_zsa(3, rng)
        q = UnknownQubit(math.acos(1.0 - 2.0 * rng.uniform(0.05, 0.95)), 2.0 * math.pi * rng.random())
        simulated = cnot_disentangle(run_protocol(q, z, outcome=BellOutcome.PSI_MINUS).final)["simulated_probability"]
        sign_agreements += (simulated > 0.5) == ((z.coeffs[1].conjugate() * z.coeffs[2]).real > 0.0)
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
        ("obstruction-always-nonzero", 1.0, 1.0 if nulled["closed_form"] > 0.0 else 0.0, 0.0,
         f"claimed impossible to null with nonzero amplitudes; c2 = a, c3 = ia gives "
         f"value {nulled['closed_form']!r} (oracle {nulled['simulated']:.3e})"),
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
        _emit([json.dumps(row) + "\n" for row in rows], args.output)
    elif args.format == "csv":
        _emit(_csv_lines(CLAIM_FIELDS, (row.values() for row in rows)), args.output)
    else:
        _emit([_claims_text(rows)], args.output)
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
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and each subcommand's own parser by name, built once per process."""
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

    return parser, sub.choices


def main(argv=None) -> int:
    """Run one command and return its exit code.  A call parses once: with its subcommand's parser alone, failing on
    leftover tokens through the full parser's ``error`` as that parser would; any other argv (none, ``-h``, an
    unknown command) goes to the full parser."""
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
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
