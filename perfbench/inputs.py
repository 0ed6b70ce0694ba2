"""Input domains of the three workloads and their seeded generators.

Everything here is data the benchmark owns: the program under test only
ever receives the argv lists and arguments produced below.  The same seed
always yields the same inputs.  Each generator repeats a fixed *multiset*
of operations per cycle and lets the seed choose the arguments and the
order, so the cost mix of a run does not depend on the seed.
"""

from __future__ import annotations

import math
import random
import shlex

FORMATS = ("text", "csv", "json")
MEASURES = ("rel_periodicity", "log_periodicity", "similarity", "gradus", "omega", "brefeld")
# Pairwise-interval measures reject the single-tone category {0} by design,
# so they are ranked per cardinality 2..12 and never over the whole octave.
PAIRWISE = ("similarity", "brefeld")
# Rank order of similarity is due to be reversed on purpose (it is the one
# larger-is-more-consonant measure), so its row order is never pinned and
# it is never truncated with a top-N.
ORDER_FREE = ("similarity",)
RATIONAL_TUNINGS = ("just", "rational", "pythagorean", "kirnberger3")
SCAN_TUNINGS = ("just", "rational")
TARGETS = ("table2", "table3", "table4", "table6", "cor2", "cor3")
DATASETS = ("dyads", "triads", "complete_triads", "church_modes")
CLI_SUBCOMMANDS = ("analyze", "rank", "correlate", "tuning", "approximate", "oracle", "reproduce")
CHROMATIC = tuple(range(12))
DEFAULT_F1 = 440.0 * 2.0 ** (-9.0 / 12.0)
ORACLE_HORIZON = 130.0
# Fixed detect_period cases: (name, semitones, tuning, horizon).  The
# Kirnberger III chromatic chord repeats after h = 1440 lowest-tone periods.
ORACLE_FIXED = (
    ("triad_just", (0, 4, 7), "just", ORACLE_HORIZON),
    ("chromatic_just", CHROMATIC, "just", ORACLE_HORIZON),
    ("chromatic_kirnberger3", CHROMATIC, "kirnberger3", 1450.0),
)


def argv_key(argv: list[str]) -> str:
    return shlex.join(argv)


# --------------------------------------------------------------------------
# cli_oneshot: python -m harmonicity.cli subprocess calls


_ANALYZE_CHORDS = (
    "0,4,7", "0,3,7", "0,3,9", "0,7", "0,6", "0,1", "0,4,7,10", "0,16,19",
    "0,2,4,5,7,9,11", "0,1,2,3,4,5,6,7,8,9,10,11", "C4 E4 G4", "A4 C#5 E5",
    "C3 E4 G4", "D4 F4 A4 C5", "Bb3 D4 F4",
    # clean usage errors (exit 2): duplicate tone, unknown token, mixed forms
    "0,0", "H4", "C4 0",
)
# published (static) columns correlated with --tuning none
_CORRELATE_COLUMNS = {
    "dyads": ("roughness", "sonance_factor"),
    "triads": ("roughness", "instability", "dual_process"),
    "complete_triads": ("roughness", "dual_process"),
    "church_modes": ("sonance_factor", "similarity"),
}
_APPROX_VALUES = ("1.414214", "7/5", "3.14159", "1.5", "2.718281828", "1.0594631")
_APPROX_PRECISIONS = ("0.01", "0.001", "1e-6")
# (chord, tuning, extra flags); every chord has h <= 130 under its tuning,
# so the default horizon finds the period.
_ORACLE_CASES = (
    ("0,4,7", "just", ()), ("0,3,7", "just", ()), ("C4 E4 G4", "just", ()),
    ("0,2,4,5,7,9,11", "just", ()), ("0,4,7", "rational", ()),
    ("0,7", "rational", ()), ("0,4,7", "kirnberger3", ()),
    ("0,4,7", "pythagorean", ()), ("0,7", "pythagorean", ()),
    ("0,3,7", "just", ("--f1", "220")),
)
# The call with the largest grid, an oracle on 12 tones (h = 120), runs
# twice in every cycle, so the peak memory of a run does not depend on the
# seed.
CLI_FIXED = ["oracle", "--chord", "0,1,2,3,4,5,6,7,8,9,10,11", "--tuning", "just"]


def cli_pool(subcommand: str, fmt: str) -> list[list[str]]:
    """Every argv the generator may draw for one (subcommand, format)."""
    f = ["--format", fmt]
    if subcommand == "analyze":
        return [
            ["analyze", "--chord", chord, "--tuning", tuning, *measures, *noinv, *f]
            for chord in _ANALYZE_CHORDS
            for tuning in RATIONAL_TUNINGS
            for measures in ((), ("--measures", "all"))
            for noinv in ((), ("--no-inversions",))
        ] + [["analyze", "--chord", "0,4,7", "--tuning", "equal", *f]]
    if subcommand == "rank":
        pool = []
        for tuning in RATIONAL_TUNINGS:
            for measure in MEASURES:
                # no cardinality: a clean usage error for pairwise measures;
                # for the others it would be a full scan, too big for one-shot
                if measure in PAIRWISE:
                    pool.append(["rank", "--tuning", tuning, "--measure", measure, *f])
                for card in (1, 2, 3):
                    tops = ((),) if measure in ORDER_FREE else ((), ("--top", "5"))
                    for top in tops:
                        pool.append(["rank", "--tuning", tuning, "--measure", measure,
                                     "--cardinality", str(card), *top, *f])
        return pool
    if subcommand == "correlate":
        pool = []
        for dataset, columns in _CORRELATE_COLUMNS.items():
            modes = ("ranks", "values") if dataset != "dyads" else ("ranks",)
            for mode in modes:
                pool += [["correlate", "--dataset", dataset, "--measure", measure,
                          "--tuning", tuning, "--mode", mode, *f]
                         for measure in MEASURES for tuning in ("just", "rational")]
                pool += [["correlate", "--dataset", dataset, "--measure", column,
                          "--tuning", "none", "--mode", mode, *f] for column in columns]
            pool.append(["correlate", "--dataset", dataset, "--measure", "rel_periodicity",
                         "--measure", "log_periodicity", *f])
        # clean usage errors (exit 2): no ratings to correlate values with;
        # a computed measure without a tuning
        pool.append(["correlate", "--dataset", "dyads", "--measure", "gradus", "--mode", "values", *f])
        pool.append(["correlate", "--dataset", "triads", "--measure", "omega", "--tuning", "none", *f])
        return pool
    if subcommand == "tuning":
        return [
            ["tuning", name, *precision, *f]
            for name in ("equal",) + RATIONAL_TUNINGS
            for precision in ((), ("--precision", "0.005"), ("--precision", "0.02"))
        ]
    if subcommand == "approximate":
        return [
            ["approximate", "--value", value, "--precision", precision, *f]
            for value in _APPROX_VALUES
            for precision in _APPROX_PRECISIONS
        ]
    if subcommand == "oracle":
        # oracle has no --format flag; it prints text only
        return [["oracle", "--chord", chord, "--tuning", tuning, *extra]
                for chord, tuning, extra in _ORACLE_CASES]
    if subcommand == "reproduce":
        return [
            ["reproduce", target, *tuning, *f]
            for target in TARGETS
            for tuning in ((),) + tuple(("--tuning", t) for t in RATIONAL_TUNINGS)
        ]
    raise ValueError(subcommand)


def cli_combos() -> list[tuple[str, str]]:
    """(subcommand, format) pairs: every subcommand x text|csv|json, except
    oracle, which has text output only."""
    return [(s, fmt) for s in CLI_SUBCOMMANDS for fmt in FORMATS
            if s != "oracle" or fmt == "text"]


def all_cli_argvs() -> list[list[str]]:
    seen: dict[str, list[str]] = {}
    for sub, fmt in cli_combos():
        for argv in cli_pool(sub, fmt):
            seen.setdefault(argv_key(argv), argv)
    seen.setdefault(argv_key(CLI_FIXED), CLI_FIXED)
    return list(seen.values())


def cli_tour(rng: random.Random) -> list[list[str]]:
    """The run's calls: one seeded draw per (subcommand, format) plus the
    fixed 12-tone oracle call twice.  Every cycle repeats the tour in a new
    seeded order, so each call is timed in every cycle."""
    return [rng.choice(cli_pool(sub, fmt)) for sub, fmt in cli_combos()] + [CLI_FIXED] * 2


# --------------------------------------------------------------------------
# scan: exhaustive rank tables, then warm re-rank queries


def table_key(measure: str, tuning: str, cardinality: int | None) -> str:
    return f"{measure}/{tuning}/{'all' if cardinality is None else cardinality}"


def cold_tables() -> list[tuple[str, str, int | None]]:
    """Phase A: every measure x {just, rational}; pairwise measures once per
    cardinality 2..12, the others once over all 2048 harmonies."""
    out = []
    for tuning in SCAN_TUNINGS:
        for measure in MEASURES:
            cards = range(2, 13) if measure in PAIRWISE else (None,)
            out.extend((measure, tuning, c) for c in cards)
    return out


def cold_plan(rng: random.Random) -> list[tuple[str, str, int | None]]:
    """Phase A tables in seeded order, grouped per (measure, tuning)."""
    groups: dict[tuple[str, str], list] = {}
    for m, t, c in cold_tables():
        groups.setdefault((m, t), []).append((m, t, c))
    keys = list(groups)
    rng.shuffle(keys)
    return [item for k in keys for item in groups[k]]


def query_cycle(rng: random.Random) -> list[tuple[str, str, int | None, int | None]]:
    """Phase B: for every (measure, tuning, cardinality) one warm rank_table
    query for all rows and, except for order-free measures, one for a
    seeded top-N (at most 50 rows, so its cost hardly depends on N), in
    seeded order."""
    queries = []
    for measure in MEASURES:
        cards = range(2, 13) if measure in PAIRWISE else (None,) + tuple(range(1, 13))
        for tuning in SCAN_TUNINGS:
            for card in cards:
                queries.append((measure, tuning, card, None))
                if measure not in ORDER_FREE:
                    queries.append((measure, tuning, card, rng.choice((1, 5, 10, 50))))
    rng.shuffle(queries)
    return queries


def query_kind(query: tuple[str, str, int | None, int | None]) -> str:
    measure, tuning, card, top = query
    return f"{table_key(measure, tuning, card)}/{'all' if top is None else 'top'}"


def harmony_count(cardinality: int | None) -> int:
    return 2048 if cardinality is None else math.comb(11, cardinality - 1)


# --------------------------------------------------------------------------
# verify: reproduce, correlate, detect_period


def oracle_candidates() -> list[tuple[tuple[int, ...], str]]:
    """Harmonies the verify workload may send to detect_period: six seeded
    subsets per cardinality 2..12 under three tunings.  The pins keep those
    whose h fits the default horizon."""
    out = []
    for k in range(2, 13):
        rng = random.Random(k)
        subsets = sorted({(0,) + tuple(sorted(rng.sample(range(1, 12), k - 1)))
                          for _ in range(6)})
        for tones in subsets:
            for tuning in ("just", "rational", "kirnberger3"):
                out.append((tones, tuning))
    return out


def oracle_key(tones: tuple[int, ...], tuning: str, horizon: float) -> str:
    return f"{','.join(map(str, tones))}/{tuning}/{horizon:g}"


def verify_pass(rng: random.Random, pinned_oracle: dict[str, list]) -> dict:
    """One verify pass: all reproduce targets, every dataset x measure
    correlation under the rational tuning, the fixed oracle cases and one
    seeded oracle case per cardinality 2..12 whose h fits the horizon."""
    by_k: dict[int, list[str]] = {}
    for key, (raw_h, _agree) in sorted(pinned_oracle.items()):
        tones = tuple(int(n) for n in key.split("/")[0].split(","))
        if key.endswith(f"/{ORACLE_HORIZON:g}") and raw_h <= ORACLE_HORIZON:
            by_k.setdefault(len(tones), []).append(key)
    detect = [(name, tones, tuning, horizon) for name, tones, tuning, horizon in ORACLE_FIXED]
    for k in range(2, 13):
        key = rng.choice(by_k[k])
        semis, tuning, horizon = key.split("/")
        detect.append((f"k{k}", tuple(int(n) for n in semis.split(",")), tuning, float(horizon)))
    targets = list(TARGETS)
    correlations = [(d, m) for d in DATASETS for m in MEASURES]
    for items in (targets, correlations, detect):
        rng.shuffle(items)
    return {"targets": targets, "correlations": correlations, "detect": detect}
