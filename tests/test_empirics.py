"""Embedded rating data, rank statistics, and the reproduction gates.

Statistical oracles: ``rank_with_ties`` and ``pearson`` are cross-checked
against scipy.stats (``rankdata``, ``pearsonr``) and ``significance``
against the one-sided Student-t tail ``scipy.stats.t.sf`` — independent
implementations of the same definitions.
"""

import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicity import (
    DataError,
    UsageError,
    builtin_tuning,
    correlate_measure,
    load_dataset,
    pearson,
    rank_with_ties,
    reproduce,
    significance,
)
from harmonicity import empirics
from harmonicity.cli import main
from harmonicity.empirics import (
    DATASET_IDS,
    REPRODUCTION_TARGETS,
    EmpiricalDataset,
    measure_values,
)

JUST = builtin_tuning("just")

EXPECTED_COUNTS = {"dyads": 13, "triads": 13, "complete_triads": 19, "church_modes": 7}

# spec'd worked example: rank positions of the averaged dyad periodicities
RANK_INPUT = [1, 1, 2, 3, 4, 3, 5, 5, 6, 7, 8.5, 8, 15]
RANK_OUTPUT = [1.5, 1.5, 3, 4.5, 6, 4.5, 7.5, 7.5, 9, 10, 12, 11, 13]

def _packaged_text(dataset_id):
    return (
        resources.files("harmonicity")
        .joinpath("data")
        .joinpath(f"{dataset_id}.csv")
        .read_text(encoding="utf-8")
    )


class TestLoadDataset:
    def test_counts(self):
        for dataset_id, count in EXPECTED_COUNTS.items():
            assert len(load_dataset(dataset_id).items) == count

    def test_spot_rows(self):
        dyads = load_dataset("dyads")
        assert dyads.items[0].label == "unison"
        assert dyads.items[0].semitones == (0, 0)
        assert dyads.items[0].empirical == 1.0
        triads = load_dataset("triads")
        assert triads.items[0].semitones == (0, 4, 7)
        complete = load_dataset("complete_triads")
        assert complete.items[0].label == "1a major"
        assert complete.items[0].semitones == (0, 16, 19)
        assert complete.items[18] == complete.items[-1]
        assert complete.items[-1].semitones == (0, 14, 25)
        assert complete.items[-1].empirical == 17.5

    def test_church_modes_rating_gap(self):
        church = load_dataset("church_modes")
        assert [item.label for item in church.items] == [
            "Ionian", "Mixolydian", "Lydian", "Dorian",
            "Aeolian", "Phrygian", "Locrian",
        ]
        assert church.static_columns["rating"] == (
            0.83, 0.64, 0.58, 0.4, 0.34, 0.21, None,
        )

    def test_unknown_dataset(self):
        with pytest.raises(UsageError, match="valid ids"):
            load_dataset("sonatas")

    def test_unknown_column(self):
        with pytest.raises(UsageError, match="available"):
            load_dataset("dyads").column("tension")

    def test_every_cell_matches_a_plain_split(self):
        # a second reading of each packaged file, by plain ";" and ","
        # splitting, must agree with load_dataset on every cell
        for dataset_id in DATASET_IDS:
            lines = _packaged_text(dataset_id).splitlines()
            header = lines[1].split(";")
            rows = [line.split(";") for line in lines[2:] if line.strip()]
            dataset = load_dataset(dataset_id)
            assert header[:3] == ["label", "semitones", "empirical"]
            assert list(dataset.static_columns) == header[3:]
            assert len(dataset.items) == len(rows)
            for row, (item, cells) in enumerate(zip(dataset.items, rows)):
                assert len(cells) == len(header)
                assert item.label == cells[0]
                assert item.semitones == tuple(int(n) for n in cells[1].split(","))
                assert item.empirical == float(cells[2])
                for name, cell in zip(header[3:], cells[3:]):
                    assert dataset.column(name)[row] == (float(cell) if cell else None)


class TestDataDirOverride:
    def _write(self, tmp_path, monkeypatch, text):
        (tmp_path / "dyads.csv").write_text(text, encoding="utf-8")
        monkeypatch.setenv("HARMONY_DATA_DIR", str(tmp_path))

    def test_override_is_used(self, tmp_path, monkeypatch):
        text = _packaged_text("dyads").replace("unison", "prime")
        self._write(tmp_path, monkeypatch, text)
        assert load_dataset("dyads").items[0].label == "prime"

    def test_blank_lines_are_skipped(self, tmp_path, monkeypatch):
        packaged = load_dataset("dyads")
        lines = _packaged_text("dyads").splitlines()
        self._write(tmp_path, monkeypatch, "\n".join(lines[:3] + ["", "  "] + lines[3:]))
        assert load_dataset("dyads") == packaged

    def test_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARMONY_DATA_DIR", str(tmp_path))
        with pytest.raises(DataError, match="cannot read"):
            load_dataset("dyads")

    def test_not_utf8(self, tmp_path, monkeypatch):
        text = _packaged_text("dyads").replace("unison", "prime")
        (tmp_path / "dyads.csv").write_bytes(text.encode("utf-16"))
        monkeypatch.setenv("HARMONY_DATA_DIR", str(tmp_path))
        with pytest.raises(DataError, match="cannot read"):
            load_dataset("dyads")

    # float() reads 'nan' and 'inf', which no statistic can rank
    @pytest.mark.parametrize("row, column, value", [("unison;0,0;-inf;0.0019;", "empirical", "-inf"),
                                                    ("unison;0,0;1;nan;", "roughness", "nan")])
    def test_non_finite_cell(self, tmp_path, monkeypatch, row, column, value):
        text = _packaged_text("dyads")
        assert text.count("unison;0,0;1;0.0019;") == 1
        self._write(tmp_path, monkeypatch, text.replace("unison;0,0;1;0.0019;", row))
        with pytest.raises(DataError, match=f"^dataset 'dyads' line 3: column '{column}' "
                                            f"must be a finite number, got {value}$"):
            load_dataset("dyads")

    def test_empty_golden_cell(self, tmp_path, monkeypatch):
        text = _packaged_text("dyads").replace(";66.67;2.0\n", ";66.67;\n")
        self._write(tmp_path, monkeypatch, text)
        assert load_dataset("dyads").column("rel_periodicity")[2] is None
        with pytest.raises(
            DataError, match="'dyads' column 'rel_periodicity' row 'perfect fifth'"
        ):
            reproduce("table2")

    def test_wrong_marker(self, tmp_path, monkeypatch):
        text = _packaged_text("dyads").replace("dyads v1", "dyads v2")
        self._write(tmp_path, monkeypatch, text)
        with pytest.raises(DataError, match="version marker"):
            load_dataset("dyads")

    def test_wrong_header(self, tmp_path, monkeypatch):
        text = _packaged_text("dyads").replace(";roughness;", ";rough;")
        self._write(tmp_path, monkeypatch, text)
        with pytest.raises(DataError, match="header"):
            load_dataset("dyads")

    def test_wrong_field_count(self, tmp_path, monkeypatch):
        text = _packaged_text("dyads").replace("unison;0,0;1;", "unison;0,0;1;9;")
        self._write(tmp_path, monkeypatch, text)
        with pytest.raises(DataError, match="fields"):
            load_dataset("dyads")

    def test_nonzero_first_offset(self, tmp_path, monkeypatch):
        text = _packaged_text("dyads").replace("unison;0,0;", "unison;1,1;")
        self._write(tmp_path, monkeypatch, text)
        with pytest.raises(DataError, match="start at 0"):
            load_dataset("dyads")

    @pytest.mark.parametrize("offsets", ["0,-5", "0,128", "0,100000000000"])
    def test_offset_outside_the_midi_range(self, tmp_path, monkeypatch, capsys, offsets):
        text = _packaged_text("dyads").replace("unison;0,0;", f"unison;{offsets};")
        self._write(tmp_path, monkeypatch, text)
        message = f"dataset 'dyads' line 3: offsets must lie within 0..127, got {offsets}"
        with pytest.raises(DataError) as excinfo:
            load_dataset("dyads")
        assert str(excinfo.value) == message
        assert main(["correlate", "--dataset", "dyads", "--measure", "rel_periodicity"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_offset_at_the_midi_bound_loads(self, tmp_path, monkeypatch):
        text = _packaged_text("dyads").replace("unison;0,0;", "unison;0,127;")
        self._write(tmp_path, monkeypatch, text)
        assert load_dataset("dyads").items[0].semitones == (0, 127)

    def test_non_numeric_cell(self, tmp_path, monkeypatch):
        text = _packaged_text("dyads").replace(";0.0019;", ";n/a;")
        self._write(tmp_path, monkeypatch, text)
        with pytest.raises(DataError, match="line 3"):
            load_dataset("dyads")

    def test_wrong_row_count(self, tmp_path, monkeypatch):
        lines = _packaged_text("dyads").splitlines()
        self._write(tmp_path, monkeypatch, "\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="expected 13 rows"):
            load_dataset("dyads")


class TestRankWithTies:
    def test_worked_example(self):
        assert rank_with_ties(RANK_INPUT) == RANK_OUTPUT

    def test_empty(self):
        with pytest.raises(UsageError):
            rank_with_ties([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value(self, bad):
        with pytest.raises(UsageError, match="^rank_with_ties\\(\\) needs finite values$"):
            rank_with_ties([1.0, bad, 0.5])

    @settings(deadline=None)  # first example pays the scipy import
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
    def test_matches_scipy_average_ranking(self, values):
        stats = pytest.importorskip("scipy.stats")
        expected = stats.rankdata(values, method="average")
        assert rank_with_ties(values) == pytest.approx(list(expected))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
    def test_rank_sum_is_fixed(self, values):
        n = len(values)
        assert math.fsum(rank_with_ties(values)) == pytest.approx(n * (n + 1) / 2)


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
        # unclamped, rounding gives 1.0000000000000002 here
        assert pearson([0.0, 2.0, 6.0], [-2.0, -1.0, 1.0]) == 1.0
        assert pearson([0.0, 2.0, 6.0], [2.0, 1.0, -1.0]) == -1.0

    def test_validation(self):
        with pytest.raises(UsageError, match="equal lengths"):
            pearson([1, 2, 3], [1, 2])
        with pytest.raises(UsageError, match="at least 3"):
            pearson([1, 2], [1, 2])
        with pytest.raises(UsageError, match="zero-variance"):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("x, y", [([1, math.nan, 3], [1, 2, 3]), ([1, 2, 3], [1, 2, math.inf]),
                                      ([-math.inf, 2, 3], [1, 2, 3])],
                             ids=["x-nan", "y-inf", "x-minus-inf"])
    def test_non_finite_value(self, x, y):
        with pytest.raises(UsageError, match="^pearson\\(\\) needs finite values$"):
            pearson(x, y)

    def test_underflowing_variance(self):
        # the values differ, but their squared deviations underflow to 0
        x = [0.0, 1e-200, 2e-200]
        assert min(x) != max(x)
        with pytest.raises(UsageError, match="zero-variance"):
            pearson(x, [1.0, 2.0, 3.0])

    @settings(deadline=None)  # first example pays the scipy import
    @given(st.lists(
        st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
        min_size=3, max_size=40,
    ))
    def test_matches_scipy(self, pairs):
        stats = pytest.importorskip("scipy.stats")
        x = [float(p[0]) for p in pairs]
        y = [float(p[1]) for p in pairs]
        if len(set(x)) < 2 or len(set(y)) < 2:
            with pytest.raises(UsageError):
                pearson(x, y)
            return
        expected = stats.pearsonr(x, y).statistic
        assert pearson(x, y) == pytest.approx(expected, abs=1e-9)


class TestSignificance:
    def test_published_pins(self):
        assert significance(0.607, 13) == pytest.approx(0.0139, abs=5e-5)
        assert significance(0.786, 7) == pytest.approx(0.0181, abs=5e-5)

    def test_zero_correlation_is_even_odds(self):
        for n in (3, 7, 13, 50):
            assert significance(0.0, n) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_correlations(self):
        assert significance(1.0, 10) == 0.0
        assert significance(-1.0, 10) == 1.0

    def test_validation(self):
        with pytest.raises(UsageError, match="n >= 3"):
            significance(0.5, 2)
        with pytest.raises(UsageError, match="in \\[-1, 1\\]"):
            significance(1.5, 10)

    @pytest.mark.parametrize("r", [True, False])
    def test_r_must_not_be_a_bool(self, r):
        # True would read as r = 1 and give p = 0
        with pytest.raises(UsageError, match=rf"^significance\(\) needs r in \[-1, 1\], got {r}$"):
            significance(r, 5)

    def test_n_must_be_a_plain_int(self):
        class Count(int):
            pass

        for n in (10.0, Count(10)):
            with pytest.raises(UsageError, match=f"^significance\\(\\) needs n >= 3, got {n!r}$"):
                significance(0.5, n)

    @settings(deadline=None)  # first example pays the scipy import
    @given(st.integers(-999, 999), st.integers(3, 60))
    def test_matches_student_t_tail(self, millis, n):
        stats = pytest.importorskip("scipy.stats")
        r = millis / 1000.0
        df = n - 2
        t = r * math.sqrt(df / (1.0 - r * r))
        assert significance(r, n) == pytest.approx(stats.t.sf(t, df), abs=1e-7)

    @given(st.integers(-1000, 1000), st.integers(3, 60))
    def test_sign_symmetry(self, millis, n):
        r = millis / 1000.0
        assert significance(-r, n) == pytest.approx(
            1.0 - significance(r, n), abs=1e-9
        )

    @given(st.integers(0, 998), st.integers(3, 60))
    def test_strictly_decreasing_in_r(self, millis, n):
        # tested on r >= 0 where p <= 1/2 keeps full relative precision;
        # the r < 0 side follows from the sign symmetry above
        lo = millis / 1000.0
        hi = (millis + 1) / 1000.0
        assert significance(hi, n) < significance(lo, n)


class TestMeasureValues:
    def test_computed_needs_tuning_when_not_a_column(self):
        with pytest.raises(UsageError, match="needs a tuning"):
            measure_values(load_dataset("dyads"), "log_periodicity")

    def test_tuning_recomputes_even_when_column_exists(self):
        triads = load_dataset("triads")
        static = measure_values(triads, "rel_periodicity")
        recomputed = measure_values(triads, "rel_periodicity", JUST)
        assert static == list(triads.static_columns["rel_periodicity"])
        # the published column is rounded to one decimal; {0,5,7} is 32/3
        assert static != recomputed
        assert recomputed == pytest.approx(static, abs=0.05)

    def test_church_similarity_column_differs_from_recomputation(self):
        church = load_dataset("church_modes")
        static = measure_values(church, "similarity")
        recomputed = measure_values(church, "similarity", JUST)
        assert static == list(church.static_columns["similarity"])
        assert static != pytest.approx(recomputed, abs=0.01)

    def test_column_with_gaps_is_rejected(self):
        with pytest.raises(UsageError, match="has gaps"):
            measure_values(load_dataset("church_modes"), "rating")

    def test_unknown_measure(self):
        with pytest.raises(UsageError, match="available"):
            measure_values(load_dataset("dyads"), "tension")


class TestCorrelateMeasure:
    def test_dyad_periodicity_ranks(self):
        report = correlate_measure(load_dataset("dyads"), "rel_periodicity", JUST)
        assert report.n == 13
        assert report.r == pytest.approx(0.982, abs=5e-4)
        assert report.p < 5e-5
        assert report.mode == "ranks"
        assert report.tuning == "just"

    def test_csv_row_and_header(self, cli_stdout):
        argv = ("correlate", "--dataset", "dyads", "--measure", "rel_periodicity")
        assert cli_stdout(*argv, "--format", "csv").splitlines() == [
            "dataset;measure;tuning;mode;n;r;p",
            "dyads;rel_periodicity;just;ranks;13;0.982;0.0000",
        ]
        [payload] = json.loads(cli_stdout(*argv, "--format", "json"))
        assert payload["dataset"] == "dyads"
        assert payload["n"] == 13
        assert payload["r"] == pytest.approx(0.982, abs=5e-4)

    def test_values_mode_needs_ratings(self, monkeypatch):
        # checked before any value is computed
        evaluated, evaluate = [], empirics.evaluate_measure

        def counting(*args):
            evaluated.append(args)
            return evaluate(*args)

        monkeypatch.setattr(empirics, "evaluate_measure", counting)
        with pytest.raises(UsageError, match="has no ordinal ratings"):
            correlate_measure(load_dataset("dyads"), "rel_periodicity", JUST, mode="values")
        assert evaluated == []

    def test_ranks_mode_reads_a_dataset_it_did_not_load(self):
        # ranks need no rating orientation, so an id outside the built-in
        # datasets ranks like its source
        dyads = load_dataset("dyads")
        mine = EmpiricalDataset("mine", dyads.items, dyads.static_columns)
        report = correlate_measure(mine, "rel_periodicity", JUST)
        own = correlate_measure(dyads, "rel_periodicity", JUST)
        assert (report.dataset, report.n, report.r, report.p) == ("mine", own.n, own.r, own.p)

    def test_values_mode_names_a_dataset_it_did_not_load(self):
        triads = load_dataset("triads")
        mine = EmpiricalDataset("mine", triads.items, triads.static_columns)
        with pytest.raises(UsageError, match="^dataset 'mine' is not built in: its rating "
                                             "orientation is unknown$"):
            correlate_measure(mine, "rel_periodicity", JUST, mode="values")

    def test_values_mode_names_a_built_in_dataset_without_ratings(self):
        # the id is built in, so its rating orientation is known, but the
        # dataset holds no rating column
        triads = load_dataset("triads")
        bare = EmpiricalDataset("triads", triads.items, {})
        with pytest.raises(UsageError, match="^dataset 'triads' has no column 'rating'"):
            correlate_measure(bare, "rel_periodicity", JUST, mode="values")

    def test_values_mode_skips_unrated_items(self):
        church = load_dataset("church_modes")
        report = correlate_measure(church, "log_periodicity", JUST, mode="values")
        assert report.n == 6  # one mode carries no rating
        assert report.r == pytest.approx(0.7137, abs=5e-4)

    def test_mode_validation(self):
        with pytest.raises(UsageError, match="mode must be"):
            correlate_measure(load_dataset("dyads"), "rel_periodicity", JUST,
                              mode="kendall")

    def test_static_column_correlation(self):
        # published third-party roughness column, no tuning involved
        report = correlate_measure(load_dataset("dyads"), "roughness")
        assert report.tuning == ""
        assert report.r == pytest.approx(0.967, abs=5e-4)


class TestGoldenRegistry:
    def test_kinds(self):
        checks = [check for target in REPRODUCTION_TARGETS for check in reproduce(target).checks]
        assert {check.kind for check in checks} == {"strict", "info", "external"}
        external = [check for check in checks if check.kind == "external"]
        assert all(check.computed is None for check in external)


class TestReproduce:
    @pytest.mark.parametrize(
        "target", ["table2", "table3", "table4", "table6", "cor3"]
    )
    def test_matching_targets_pass(self, target):
        report = reproduce(target)
        assert report.passed, report.failures

    def test_dyad_tuning_comparison_fails_on_one_tuning(self):
        report = reproduce("cor2")
        assert not report.passed
        assert {check.name for check in report.failures} == {
            "r[relative periodicity (pythagorean)]",
            "p[relative periodicity (pythagorean)]",
        }

    def test_info_checks_never_fail(self):
        report = reproduce("cor2")
        info = [check for check in report.checks if check.kind == "info"]
        assert info
        assert any(
            abs(check.computed - check.expected) > check.tolerance
            for check in info
        )
        assert all(check.ok for check in info)

    def test_tuning_filter(self):
        assert reproduce("cor2", tuning="just").passed
        assert not reproduce("cor2", tuning="pythagorean").passed
        with pytest.raises(UsageError):
            reproduce("cor2", tuning="equal")

    def test_unknown_target(self):
        with pytest.raises(UsageError, match="unknown reproduction target 'table9'; "
                           "valid targets: table2, table3, table4, table6, cor2, cor3"):
            reproduce("table9")

    def test_json_payload(self, cli_stdout):
        payload = json.loads(cli_stdout("reproduce", "table6", "--format", "json"))
        assert payload["target"] == "table6"
        assert payload["passed"] is True
        assert all(
            {"name", "kind", "expected", "computed", "tolerance", "ok"}
            <= set(check)
            for check in payload["checks"]
        )
