"""Command-line interface.

Subcommands::

    analyze      periodicity analysis of one harmony
    rank         enumerate and rank all one-octave harmonies
    correlate    correlate a measure against an embedded dataset
    tuning       print a tuning table
    approximate  rational approximation of a number with bounded deviation
    oracle       cross-check a predicted period against the autocorrelation
    reproduce    re-derive a published table and diff it (exit 1 on mismatch)

Harmonies are given with ``--chord`` either as semitone offsets ("0,4,7")
or as scientific pitch names ("C4 E4 G4", accidentals ``#``/``b``); names
are resolved by 12-tone equal-temperament note arithmetic (A4 = 440 Hz)
and also fix the reference frequency of the lowest tone.  The tuning flag
assigns frequency ratios afterwards — names never imply just intonation.

Exit status: 0 on success, 1 when a reproduction or oracle check
mismatches, 2 on usage errors (never a stack trace).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Callable

from .enumeration import rank_table
from .empirics import (
    DATASET_IDS,
    REPRODUCTION_TARGETS,
    CorrelationReport,
    correlate_measure,
    load_dataset,
    reproduce,
)
from .errors import HarmonicityError, ParseError, UsageError
from .measures import MEASURES
from .periodicity import (
    MAX_SPAN,
    Harmony,
    analyze,
    fundamental_frequency,
    ratios_for,
    raw_periodicity,
)
from .rationals import approximate
from .signal_oracle import _DEFAULT_HORIZON, ToneStack, _check_float_domain, detect_period
from .tuning import (
    BUILTIN_TUNING_NAMES,
    INTERVAL_NAMES,
    TuningTable,
    builtin_tuning,
    deviation,
    rational_tuning,
)

__all__ = ["PitchSpec", "main", "parse_pitch_spec"]

#: Reference frequency of the lowest tone when the chord is given as bare
#: semitone offsets: middle C in twelve-tone equal temperament at A4=440.
DEFAULT_F1_HZ = 440.0 * 2.0 ** (-9.0 / 12.0)

# Rival measures that ``analyze --measures all`` adds, with the digits each
# is rounded to; gradus and omega are integers.
_ANALYZE_EXTRAS = {"gradus": 0, "omega": 0, "brefeld": 6, "similarity": 2}

_NOTE_SEMITONES = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_ACCIDENTALS = {"": 0, "#": 1, "b": -1}


@dataclass(frozen=True)
class PitchSpec:
    """A parsed ``--chord`` argument: the harmony plus, when the chord was
    given as pitch names, the frequency of its lowest tone."""

    harmony: Harmony
    reference_frequency: float | None


def _reads_as_int(token: str) -> bool:
    """One optional sign, then decimal digits: a token int() reads."""
    return (token[1:] if token[:1] in "+-" else token).isdecimal()


def _parse_note_token(token: str, position: int) -> int:
    """MIDI note number of one scientific pitch name ("C4", "F#3", "Bb-1")."""
    letter, rest = token[0].upper(), token[1:]
    accidental = ""
    if rest[:1] in ("#", "b"):
        accidental, rest = rest[0], rest[1:]
    if not _reads_as_int(rest):
        raise ParseError(
            f"token {position}: {token!r} needs an integer octave after "
            f"{letter + accidental!r}"
        )
    try:
        octave = int(rest)
    except ValueError:  # past the digit limit of int()
        raise ParseError(
            f"token {position}: {token[:12]!r}... has an octave of more than "
            f"{sys.get_int_max_str_digits()} digits, the limit of int()"
        ) from None
    return 12 * (octave + 1) + _NOTE_SEMITONES[letter] + _ACCIDENTALS[accidental]


def parse_pitch_spec(text: str) -> PitchSpec:
    """Parse a chord given as semitone offsets or as pitch names.

    The chord may span at most 127 semitones from its lowest to its
    highest tone, the MIDI range, and pitch names must lie within MIDI
    notes 0..127 (C-1..G9); other chords raise :class:`ParseError`.

    >>> parse_pitch_spec("0,16,19").harmony.semitones
    (0, 16, 19)
    >>> spec = parse_pitch_spec("C3 E4 G4")
    >>> spec.harmony.semitones, round(spec.reference_frequency, 2)
    ((0, 16, 19), 130.81)
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty chord: give semitone offsets or pitch names")

    offsets = [_reads_as_int(token) for token in tokens]
    for position, (token, offset) in enumerate(zip(tokens, offsets), start=1):
        if not offset and token[:1].upper() not in _NOTE_SEMITONES:
            raise ParseError(
                f"token {position}: {token!r} is neither a semitone offset "
                "nor a pitch name"
            )

    names = not all(offsets)
    if not names:
        try:
            pitches = [int(token) for token in tokens]
        except ValueError:  # past the digit limit of int()
            raise ParseError("a semitone offset has more digits than int() converts") from None
    elif any(offsets):
        position = offsets.index(True)
        raise ParseError(
            f"token {position + 1}: {tokens[position]!r} mixes offsets with pitch names"
        )
    else:
        pitches, seen = [], set()
        for position, token in enumerate(tokens, start=1):
            note = _parse_note_token(token, position)
            if note in seen:
                raise ParseError(f"token {position}: duplicate pitch {token!r}")
            seen.add(note)
            pitches.append(note)

    lowest = min(pitches)
    span = max(pitches) - lowest
    if span > MAX_SPAN:
        raise ParseError(
            f"chord spans {span} semitones, more than the MIDI range of {MAX_SPAN}"
        )
    if names:
        for position, (token, note) in enumerate(zip(tokens, pitches), start=1):
            if not 0 <= note <= MAX_SPAN:
                raise ParseError(
                    f"token {position}: {token!r} lies outside MIDI notes 0..{MAX_SPAN} "
                    "(C-1..G9)"
                )
    f1 = 440.0 * 2.0 ** ((lowest - 69) / 12.0) if names else None
    return PitchSpec(Harmony.from_offsets(pitches), f1)


# --------------------------------------------------------------------------
# subcommands


def _resolve_tuning(name: str, precision: float | None = None) -> TuningTable:
    if precision is not None:
        if name != "rational":
            raise UsageError("--precision applies only to the rational tuning")
        return rational_tuning(precision)
    return builtin_tuning(name)


def _emit(fmt: str, text: Callable[[], list[str]], csv: Callable[[], list[str]],
          payload: Callable[[], object]) -> None:
    """Print one result in the chosen ``--format``.

    ``text`` and ``csv`` return the output lines, ``payload`` a JSON-ready
    object; all three take no arguments and only the chosen one is called.
    """
    if fmt == "json":
        print(json.dumps(payload(), indent=2))
    else:
        print("\n".join(text() if fmt == "text" else csv()))


def _lowest_frequency(args: argparse.Namespace, spec: PitchSpec) -> float:
    """``--f1`` if given, else the lowest pitch name's frequency, else
    :data:`DEFAULT_F1_HZ`."""
    if args.f1 is not None:
        return args.f1
    if spec.reference_frequency is not None:
        return spec.reference_frequency
    return DEFAULT_F1_HZ


def _hz(frequency: float) -> str:
    """``frequency`` with two decimals, or in ``.9g`` form from 1e15 Hz on,
    where two decimals would print digits past a float's precision (a
    303-digit number for 1e300 Hz)."""
    return f"{frequency:.2f}" if frequency < 1e15 else f"{frequency:.9g}"


def _semitones(h: Harmony) -> str:
    return ",".join(str(n) for n in h.semitones)


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = parse_pitch_spec(args.chord)
    t = _resolve_tuning(args.tuning)
    result = analyze(spec.harmony, t, average_inversions=not args.no_inversions)
    h = result.harmony
    f1 = _lowest_frequency(args, spec)
    extras = {
        name: round(MEASURES[name].compute(h.semitones, t), digits)
        for name, digits in _ANALYZE_EXTRAS.items()
    } if args.measures == "all" else {}
    _emit(
        args.format,
        text=lambda: [
            f"harmony: {h}",
            f"tuning: {result.tuning}",
            "ratios: " + " ".join(str(r) for r in ratios_for(h, t)),
            f"raw h: {result.raw_h}",
            "inversion h': " + " ".join(str(v) for v in result.inversion_h),
            f"mean h: {result.mean_h:.1f}",
            f"mean log2 h: {result.mean_log_h:.3f}",
            f"fundamental: {_hz(fundamental_frequency(h, t, f1))} Hz "
            f"(lowest tone {_hz(f1)} Hz)",
        ] + [f"{key}: {value}" for key, value in extras.items()],
        csv=lambda: [
            "semitones;tuning;raw_h;mean_h;mean_log_h",
            f"{_semitones(h)};{result.tuning};{result.raw_h};"
            f"{result.mean_h:.1f};{result.mean_log_h:.3f}",
        ],
        payload=lambda: {
            "harmony": {"semitones": list(h.semitones), "label": None},
            "tuning": result.tuning,
            "raw_h": result.raw_h,
            "inversion_h": [str(v) for v in result.inversion_h],
            "mean_h": result.mean_h,
            "mean_log_h": result.mean_log_h,
            **({"extras": extras} if extras else {}),
        },
    )
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    t = _resolve_tuning(args.tuning, args.precision)
    table = rank_table(t, args.measure, args.cardinality, args.top)
    _emit(
        args.format,
        text=lambda: [
            f"measure {table.measure}, tuning {table.tuning}, "
            f"cardinality {table.cardinality or 'all'}"
        ] + [f"{row.rank:5d}  {str(row.harmony):30s} {row.value:.6g}" for row in table.rows],
        csv=lambda: ["rank;semitones;cardinality;value"] + [
            f"{row.rank};{_semitones(row.harmony)};{len(row.harmony)};{row.value:.6g}"
            for row in table.rows
        ],
        payload=lambda: {
            "tuning": table.tuning,
            "measure": table.measure,
            "cardinality": table.cardinality,
            "rows": [
                {
                    "rank": row.rank,
                    "semitones": list(row.harmony.semitones),
                    "cardinality": len(row.harmony),
                    "value": row.value,
                }
                for row in table.rows
            ],
        },
    )
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    t = None if args.tuning == "none" else _resolve_tuning(args.tuning)
    reports = [
        correlate_measure(dataset, measure, t, args.mode)
        for measure in args.measure
    ]
    _emit(
        args.format,
        text=lambda: [
            f"{r.dataset}: {r.measure}{f' ({r.tuning})' if r.tuning else ''}, "
            f"{r.mode}: r = {r.r:.3f}, p = {r.p:.4f} (n = {r.n})"
            for r in reports
        ],
        csv=lambda: [";".join(f.name for f in fields(CorrelationReport))] + [
            f"{r.dataset};{r.measure};{r.tuning};{r.mode};{r.n};{r.r:.3f};{r.p:.4f}"
            for r in reports
        ],
        payload=lambda: [asdict(r) for r in reports],
    )
    return 0


def _cmd_tuning(args: argparse.Namespace) -> int:
    t = _resolve_tuning(args.name, args.precision)

    def text() -> list[str]:
        lines = [f"tuning: {t.name}"]
        for k, ratio in enumerate(t.ratios):
            shown = str(ratio) if t.is_rational else f"{float(ratio):.6f}"
            lines.append(f"{k:3d}  {shown:>8s}  {deviation(t, k):+.3f}%")
        return lines

    def csv() -> list[str]:
        lines = ["semitone,interval_name,numerator,denominator,deviation_percent"]
        for k, ratio in enumerate(t.ratios):
            # equal temperament is irrational: no integer pair to print
            pair = f"{ratio.numerator},{ratio.denominator}" if t.is_rational else ","
            lines.append(f"{k},{INTERVAL_NAMES[k]},{pair},{deviation(t, k):.2f}")
        return lines

    _emit(
        args.format,
        text=text,
        csv=csv,
        payload=lambda: {
            "name": t.name,
            "ratios": [str(r) if t.is_rational else float(r) for r in t.ratios],
            "deviation_bound": t.deviation_bound,
        },
    )
    return 0


def _cmd_approximate(args: argparse.Namespace) -> int:
    try:
        target = Fraction(args.value) if "/" in args.value else float(args.value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--value {args.value!r} is neither a number nor a fraction p/q") from None
    trace = approximate(target, args.precision)
    _emit(
        args.format,
        text=lambda: [f"{args.value} within {args.precision!r}: {trace.result}"] + (
            ["mediants: " + " ".join(str(m) for m in trace.mediants)] if trace.mediants else []
        ),
        csv=lambda: ["step;numerator;denominator"] + [
            f"{step};{m.numerator};{m.denominator}"
            for step, m in enumerate(trace.mediants, start=1)
        ] + [f"result;{trace.result.numerator};{trace.result.denominator}"],
        payload=lambda: {
            "target": str(trace.target),
            "precision": trace.precision,
            "mediants": [str(m) for m in trace.mediants],
            "result": str(trace.result),
        },
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = parse_pitch_spec(args.chord)
    t = _resolve_tuning(args.tuning)
    f1 = _lowest_frequency(args, spec)
    raw_h = raw_periodicity(spec.harmony, t)
    predicted = raw_h / f1
    # the stack checks its own frequencies; these two only the CLI knows
    _check_float_domain(f1, (predicted, args.horizon / f1))
    stack = ToneStack.from_harmony(spec.harmony, t, f1)
    detected = detect_period(stack, search_horizon=args.horizon)
    if detected is None:
        print(
            f"predicted period {predicted:.9g} s; no period detected within "
            f"{args.horizon:g} lowest-tone periods",
            file=sys.stderr,
        )
        return 1
    relative = abs(detected - predicted) / predicted
    agree = relative <= args.tolerance
    print(f"harmony: {spec.harmony}")
    print(f"predicted period: {predicted:.9g} s (h = {raw_h}, f1 = {_hz(f1)} Hz)")
    print(f"detected period:  {detected:.9g} s")
    print(f"relative difference: {relative:.3g} "
          f"({'agree' if agree else 'DISAGREE'} at tolerance {args.tolerance:g})")
    return 0 if agree else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    report = reproduce(args.target, args.tuning)

    def text() -> list[str]:
        lines = [f"reproduction target: {report.target}"]
        for c in report.checks:
            if c.kind == "external":
                note = f"published {c.expected:.4g} (external data; not recomputed)"
            elif c.kind == "info":
                note = (f"computed {c.computed:.4g}, published {c.expected:.4g} "
                        "(info only; known pipeline difference)")
            else:
                note = (f"computed {c.computed:.4g}, published {c.expected:.4g} "
                        f"(tolerance {c.tolerance:g}) {'ok' if c.ok else 'MISMATCH'}")
            lines.append(f"  {c.name}: {note}")
        summary = "PASS" if report.passed else f"FAIL ({len(report.failures)} mismatching checks)"
        return lines + [f"result: {summary}"]

    _emit(
        args.format,
        text=text,
        csv=lambda: ["name;kind;expected;computed;tolerance;ok"] + [
            f"{c.name};{c.kind};{c.expected:.6g};"
            f"{'' if c.computed is None else format(c.computed, '.6g')};"
            f"{c.tolerance:g};{str(c.ok).lower()}"
            for c in report.checks
        ],
        payload=lambda: {
            "target": report.target,
            "passed": report.passed,
            "checks": [{**asdict(c), "ok": c.ok} for c in report.checks],
        },
    )
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# parser


def positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (not nan, not inf)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def non_negative_float(text: str) -> float:
    """argparse type: a number >= 0 (not nan)."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (default: text)",
    )


def _add_chord_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chord",
        required=True,
        help='semitone offsets ("0,4,7") or pitch names ("C4 E4 G4"), '
        f"spanning at most {MAX_SPAN} semitones; pitch names lie within "
        f"MIDI notes 0..{MAX_SPAN} (C-1..G9)",
    )
    parser.add_argument(
        "--tuning",
        choices=BUILTIN_TUNING_NAMES,
        default="just",
        help="tuning assigning frequency ratios (default: just)",
    )
    parser.add_argument(
        "--f1",
        type=positive_float,
        default=None,
        metavar="HZ",
        help="frequency of the lowest tone (default: from pitch names, "
        f"else {DEFAULT_F1_HZ:.2f} Hz)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonicity",
        description="Periodicity-based consonance analysis of musical harmonies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="periodicity analysis of one harmony")
    _add_chord_flags(p)
    p.add_argument(
        "--no-inversions",
        action="store_true",
        help="report the raw periodicity only, without inversion averaging",
    )
    p.add_argument(
        "--measures",
        choices=("none", "all"),
        default="none",
        help="also compute gradus/omega/brefeld/similarity (default: none)",
    )
    _add_format_flag(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("rank", help="rank all one-octave harmonies by a measure")
    p.add_argument("--tuning", choices=BUILTIN_TUNING_NAMES, default="just")
    p.add_argument(
        "--precision",
        type=float,
        default=None,
        help="deviation bound when --tuning rational (default 0.01)",
    )
    p.add_argument("--measure", choices=tuple(MEASURES), default="log_periodicity")
    p.add_argument("--cardinality", type=int, default=None, help="tone count 1..12")
    p.add_argument("--top", type=int, default=None, help="truncate to the first rows")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("correlate", help="correlate a measure against a dataset")
    p.add_argument("--dataset", choices=DATASET_IDS, required=True)
    p.add_argument(
        "--measure",
        action="append",
        required=True,
        help="measure or dataset column name (repeatable)",
    )
    p.add_argument(
        "--tuning",
        choices=BUILTIN_TUNING_NAMES + ("none",),
        default="just",
        help="tuning for computed measures; 'none' selects the dataset's "
        "published column when the name is also a column (default: just)",
    )
    p.add_argument("--mode", choices=("ranks", "values"), default="ranks")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("tuning", help="print a tuning table")
    p.add_argument("name", choices=BUILTIN_TUNING_NAMES)
    p.add_argument(
        "--precision",
        type=float,
        default=None,
        help="deviation bound when printing the rational tuning (default 0.01)",
    )
    _add_format_flag(p)
    p.set_defaults(func=_cmd_tuning)

    p = sub.add_parser("approximate", help="rational approximation of a number")
    p.add_argument("--value", required=True, help='number to approximate ("1.414214" or "7/5")')
    p.add_argument(
        "--precision",
        type=float,
        required=True,
        help="maximum relative deviation, e.g. 0.01",
    )
    _add_format_flag(p)
    p.set_defaults(func=_cmd_approximate)

    p = sub.add_parser(
        "oracle",
        help="cross-check the predicted period against the autocorrelation",
    )
    _add_chord_flags(p)
    p.add_argument(
        "--horizon",
        type=positive_float,
        default=_DEFAULT_HORIZON,
        help=f"search horizon in lowest-tone periods (default {_DEFAULT_HORIZON:g})",
    )
    p.add_argument(
        "--tolerance",
        type=non_negative_float,
        default=1e-6,
        help="relative agreement tolerance (default 1e-6)",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "reproduce",
        help="re-derive a published table and diff against golden values",
    )
    p.add_argument("target", choices=REPRODUCTION_TARGETS)
    p.add_argument(
        "--tuning",
        choices=BUILTIN_TUNING_NAMES,
        default=None,
        help="restrict to golden cells computed under this tuning",
    )
    _add_format_flag(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HarmonicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
