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
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .enumeration import rank_table
from .empirics import (
    DATASET_IDS,
    REPRODUCTION_TARGETS,
    correlate_measure,
    correlation_csv_header,
    load_dataset,
    reproduce,
)
from .errors import HarmonicityError, ParseError, UsageError
from .measures import MEASURES
from .periodicity import (
    AnalysisResult,
    Harmony,
    analyze,
    csv_header,
    fundamental_frequency,
    ratios_for,
)
from .rationals import approximate
from .signal_oracle import ToneStack, detect_period
from .tuning import (
    BUILTIN_TUNING_NAMES,
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


def _parse_note_token(token: str, position: int) -> int:
    """MIDI note number of one scientific pitch name ("C4", "F#3", "Bb-1")."""
    letter = token[0].upper()
    if letter not in _NOTE_SEMITONES:
        raise ParseError(
            f"token {position}: {token!r} does not start with a note letter A-G"
        )
    rest = token[1:]
    accidental = ""
    if rest[:1] in ("#", "b"):
        accidental, rest = rest[0], rest[1:]
    try:
        octave = int(rest)
    except ValueError:
        raise ParseError(
            f"token {position}: {token!r} needs an integer octave after "
            f"{letter + accidental!r}"
        ) from None
    return 12 * (octave + 1) + _NOTE_SEMITONES[letter] + _ACCIDENTALS[accidental]


def parse_pitch_spec(text: str) -> PitchSpec:
    """Parse a chord given as semitone offsets or as pitch names.

    >>> parse_pitch_spec("0,16,19").harmony.semitones
    (0, 16, 19)
    >>> spec = parse_pitch_spec("C3 E4 G4")
    >>> spec.harmony.semitones, round(spec.reference_frequency, 2)
    ((0, 16, 19), 130.81)
    """
    tokens = [t for t in text.replace(",", " ").split() if t]
    if not tokens:
        raise ParseError("empty chord: give semitone offsets or pitch names")

    def is_offset(token: str) -> bool:
        return token.lstrip("+-").isdigit() and token.lstrip("+-") != ""

    def is_note(token: str) -> bool:
        return token[:1].upper() in _NOTE_SEMITONES

    for position, token in enumerate(tokens, start=1):
        if not is_offset(token) and not is_note(token):
            raise ParseError(
                f"token {position}: {token!r} is neither a semitone offset "
                "nor a pitch name"
            )

    if all(is_offset(token) for token in tokens):
        return PitchSpec(Harmony.from_offsets([int(t) for t in tokens]), None)
    for position, token in enumerate(tokens, start=1):
        if is_offset(token):
            raise ParseError(
                f"token {position}: {token!r} mixes offsets with pitch names"
            )

    midi: list[int] = []
    for position, token in enumerate(tokens, start=1):
        note = _parse_note_token(token, position)
        if note in midi:
            raise ParseError(f"token {position}: duplicate pitch {token!r}")
        midi.append(note)
    lowest = min(midi)
    f1 = 440.0 * 2.0 ** ((lowest - 69) / 12.0)
    return PitchSpec(Harmony.from_offsets([m - lowest for m in midi]), f1)


# --------------------------------------------------------------------------
# subcommands


def _resolve_tuning(name: str, precision: float | None = None) -> TuningTable:
    if precision is not None:
        if name != "rational":
            raise UsageError("--precision applies only to the rational tuning")
        return rational_tuning(precision)
    return builtin_tuning(name)


def _print_analysis_text(result: AnalysisResult, t: TuningTable, f1: float) -> None:
    ratios = ratios_for(result.harmony, t)
    print(f"harmony: {result.harmony}")
    print(f"tuning: {result.tuning}")
    print("ratios:", " ".join(str(r) for r in ratios))
    print(f"raw h: {result.raw_h}")
    print("inversion h':", " ".join(str(v) for v in result.inversion_h))
    print(f"mean h: {result.mean_h:.1f}")
    print(f"mean log2 h: {result.mean_log_h:.3f}")
    fundamental = fundamental_frequency(result.harmony, t, f1)
    print(f"fundamental: {fundamental:.2f} Hz (lowest tone {f1:.2f} Hz)")
    for key, value in result.extras.items():
        print(f"{key}: {value}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = parse_pitch_spec(args.chord)
    t = _resolve_tuning(args.tuning)
    result = analyze(spec.harmony, t, average_inversions=not args.no_inversions)
    f1 = args.f1 if args.f1 is not None else spec.reference_frequency
    if f1 is None:
        f1 = DEFAULT_F1_HZ
    if args.measures == "all":
        extras = {
            name: round(MEASURES[name].compute(spec.harmony.semitones, t), digits)
            for name, digits in _ANALYZE_EXTRAS.items()
        }
        result = dataclasses.replace(result, extras=extras)
    if args.format == "json":
        payload = result.to_json_dict()
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(csv_header())
        print(result.to_csv_row())
    else:
        _print_analysis_text(result, t, f1)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    t = _resolve_tuning(args.tuning, args.precision)
    table = rank_table(t, args.measure, args.cardinality, args.top)
    if args.format == "json":
        print(json.dumps(table.to_json_dict(), indent=2))
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        print(f"measure {table.measure}, tuning {table.tuning}, "
              f"cardinality {table.cardinality if table.cardinality else 'all'}")
        for row in table.rows:
            print(f"{row.rank:5d}  {str(row.harmony):30s} {row.value:.6g}")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    t = None if args.tuning == "none" else _resolve_tuning(args.tuning)
    reports = [
        correlate_measure(dataset, measure, t, args.mode)
        for measure in args.measure
    ]
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    elif args.format == "csv":
        print(correlation_csv_header())
        for report in reports:
            print(report.to_csv_row())
    else:
        for report in reports:
            tuning_note = f" ({report.tuning})" if report.tuning else ""
            print(
                f"{report.dataset}: {report.measure}{tuning_note}, {report.mode}: "
                f"r = {report.r:.3f}, p = {report.p:.4f} (n = {report.n})"
            )
    return 0


def _cmd_tuning(args: argparse.Namespace) -> int:
    t = _resolve_tuning(args.name, args.precision)
    if args.format == "json":
        print(json.dumps(t.to_json_dict(), indent=2))
    elif args.format == "csv":
        sys.stdout.write(t.to_csv())
    else:
        print(f"tuning: {t.name}")
        for k, ratio in enumerate(t.ratios):
            shown = str(ratio) if t.is_rational else f"{float(ratio):.6f}"
            print(f"{k:3d}  {shown:>8s}  {deviation(t, k):+.3f}%")
    return 0


def _cmd_approximate(args: argparse.Namespace) -> int:
    text = args.value
    try:
        target = Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--value {text!r} is neither a number nor a fraction p/q") from None
    trace = approximate(target, args.precision)
    if args.format == "json":
        payload = {
            "target": str(trace.target),
            "precision": trace.precision,
            "mediants": [str(m) for m in trace.mediants],
            "result": str(trace.result),
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("step;numerator;denominator")
        for step, mediant in enumerate(trace.mediants, start=1):
            print(f"{step};{mediant.numerator};{mediant.denominator}")
        print(f"result;{trace.result.numerator};{trace.result.denominator}")
    else:
        print(f"{text} within {args.precision:g}: {trace.result}")
        if trace.mediants:
            print("mediants:", " ".join(str(m) for m in trace.mediants))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = parse_pitch_spec(args.chord)
    t = _resolve_tuning(args.tuning)
    f1 = args.f1 if args.f1 is not None else spec.reference_frequency
    if f1 is None:
        f1 = DEFAULT_F1_HZ
    result = analyze(spec.harmony, t, average_inversions=False)
    predicted = result.raw_h / f1
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
    print(f"predicted period: {predicted:.9g} s (h = {result.raw_h}, f1 = {f1:.2f} Hz)")
    print(f"detected period:  {detected:.9g} s")
    print(f"relative difference: {relative:.3g} "
          f"({'agree' if agree else 'DISAGREE'} at tolerance {args.tolerance:g})")
    return 0 if agree else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    report = reproduce(args.target, args.tuning)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    elif args.format == "csv":
        print("name;kind;expected;computed;tolerance;ok")
        for check in report.checks:
            computed = "" if check.computed is None else f"{check.computed:.6g}"
            print(
                f"{check.name};{check.kind};{check.expected:.6g};{computed};"
                f"{check.tolerance:g};{str(check.ok).lower()}"
            )
    else:
        print(report.to_text())
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
        help='semitone offsets ("0,4,7") or pitch names ("C4 E4 G4")',
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
        default=130.0,
        help="search horizon in lowest-tone periods (default 130)",
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
