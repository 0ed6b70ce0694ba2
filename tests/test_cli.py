"""Command-line interface: chord parsing, subcommands, formats, exit codes."""

import json
import shutil
import subprocess
from importlib import resources

import pytest

from harmonicity import ParseError
from harmonicity.cli import DEFAULT_F1_HZ, main, parse_pitch_spec


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePitchSpec:
    def test_offsets(self):
        spec = parse_pitch_spec("0,16,19")
        assert spec.harmony.semitones == (0, 16, 19)
        assert spec.reference_frequency is None

    def test_offsets_with_spaces_and_negatives(self):
        spec = parse_pitch_spec("-12 0 7")
        assert spec.harmony.semitones == (0, 12, 19)
        assert spec.reference_frequency is None

    def test_pitch_names(self):
        spec = parse_pitch_spec("A4 C#5 E5")
        assert spec.harmony.semitones == (0, 4, 7)
        assert spec.reference_frequency == pytest.approx(440.0)

    def test_pitch_names_fix_lowest_frequency(self):
        spec = parse_pitch_spec("C3 E4 G4")
        assert spec.harmony.semitones == (0, 16, 19)
        assert spec.reference_frequency == pytest.approx(130.81, abs=0.005)

    def test_flats_and_order(self):
        spec = parse_pitch_spec("D4 Bb3 F4")
        assert spec.harmony.semitones == (0, 4, 7)
        assert spec.reference_frequency == pytest.approx(233.08, abs=0.005)

    def test_default_reference_is_equal_tempered_middle_c(self):
        assert DEFAULT_F1_HZ == pytest.approx(261.6256, abs=5e-5)

    def test_unparseable_token_is_named(self):
        with pytest.raises(ParseError, match="token 3: 'X' is neither"):
            parse_pitch_spec("0,4,X")

    def test_mixing_offsets_and_names(self):
        with pytest.raises(ParseError, match="token 1: '0' mixes"):
            parse_pitch_spec("0 C4")

    def test_duplicate_pitch(self):
        with pytest.raises(ParseError, match="token 2: duplicate pitch 'C4'"):
            parse_pitch_spec("C4 C4")
        # same pitch spelled two ways collides at the same frequency
        with pytest.raises(ParseError, match="duplicate"):
            parse_pitch_spec("C#4 Db4")

    def test_missing_octave(self):
        with pytest.raises(ParseError, match="integer octave"):
            parse_pitch_spec("C# E4")

    def test_empty(self):
        with pytest.raises(ParseError, match="empty chord"):
            parse_pitch_spec("  ")


class TestAnalyzeCommand:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, ["analyze", "--chord", "0,4,7"])
        assert code == 0 and err == ""
        assert "harmony: {0,4,7}" in out
        assert "ratios: 1 5/4 3/2" in out
        assert "raw h: 4" in out
        assert "inversion h': 4 4 4" in out
        assert "mean h: 4.0" in out
        assert "mean log2 h: 2.000" in out
        assert "fundamental: 65.41 Hz (lowest tone 261.63 Hz)" in out

    def test_csv_output(self, capsys):
        code, out, err = run(capsys, ["analyze", "--chord", "0,4,7",
                                      "--format", "csv"])
        assert code == 0
        assert out.splitlines() == [
            "semitones;tuning;raw_h;mean_h;mean_log_h",
            "0,4,7;just;4;4.0;2.000",
        ]

    def test_json_output_matches_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        code, out, err = run(capsys, ["analyze", "--chord", "0,4,7",
                                      "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        schema = json.loads(
            resources.files("harmonicity")
            .joinpath("data")
            .joinpath("analysis_result.schema.json")
            .read_text(encoding="utf-8")
        )
        jsonschema.validate(payload, schema)
        assert payload["harmony"]["semitones"] == [0, 4, 7]
        assert payload["raw_h"] == 4
        assert payload["inversion_h"] == ["4", "4", "4"]
        assert payload["mean_h"] == 4.0

    def test_json_with_all_measures(self, capsys):
        code, out, err = run(capsys, ["analyze", "--chord", "0,4,7",
                                      "--measures", "all", "--format", "json"])
        assert code == 0
        extras = json.loads(out)["extras"]
        assert extras["gradus"] == 9
        assert extras["omega"] == 4
        assert extras["brefeld"] == pytest.approx(3.914868)
        assert extras["similarity"] == pytest.approx(46.67)

    def test_pitch_names_set_reference(self, capsys):
        code, out, err = run(capsys, ["analyze", "--chord", "C3 E4 G4"])
        assert code == 0
        assert "lowest tone 130.81 Hz" in out

    def test_explicit_reference_wins(self, capsys):
        code, out, err = run(capsys, ["analyze", "--chord", "0,4,7",
                                      "--f1", "880"])
        assert code == 0
        assert "fundamental: 220.00 Hz (lowest tone 880.00 Hz)" in out

    def test_no_inversions(self, capsys):
        code, out, err = run(capsys, ["analyze", "--chord", "0,4,7",
                                      "--no-inversions", "--format", "json"])
        assert code == 0
        assert json.loads(out)["inversion_h"] == ["4"]

    def test_other_tuning(self, capsys):
        code, out, err = run(capsys, ["analyze", "--chord", "0,7",
                                      "--tuning", "pythagorean"])
        assert code == 0
        assert "tuning: pythagorean" in out


class TestRankCommand:
    def test_csv(self, capsys):
        code, out, err = run(capsys, ["rank", "--cardinality", "2", "--top",
                                      "3", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank;semitones;cardinality;value"
        assert lines[1] == "1;0,7;2;1"
        assert len(lines) == 4

    def test_text(self, capsys):
        code, out, err = run(capsys, ["rank", "--cardinality", "3", "--top", "1"])
        assert code == 0
        assert "measure log_periodicity, tuning just, cardinality 3" in out

    def test_bad_cardinality(self, capsys):
        code, out, err = run(capsys, ["rank", "--cardinality", "0"])
        assert code == 2
        assert err.startswith("error:")

    def test_precision_only_for_rational(self, capsys):
        code, out, err = run(capsys, ["rank", "--precision", "0.01"])
        assert code == 2
        assert "rational" in err

    def test_rational_with_precision(self, capsys):
        code, out, err = run(capsys, ["rank", "--tuning", "rational",
                                      "--precision", "0.011", "--cardinality",
                                      "2", "--top", "1", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1] == "1;0,7;2;1"


class TestCorrelateCommand:
    def test_csv(self, capsys):
        code, out, err = run(capsys, ["correlate", "--dataset", "dyads",
                                      "--measure", "rel_periodicity",
                                      "--format", "csv"])
        assert code == 0
        assert out.splitlines() == [
            "dataset;measure;tuning;mode;n;r;p",
            "dyads;rel_periodicity;just;ranks;13;0.982;0.0000",
        ]

    def test_repeatable_measure_flag(self, capsys):
        code, out, err = run(capsys, ["correlate", "--dataset", "dyads",
                                      "--measure", "rel_periodicity",
                                      "--measure", "similarity",
                                      "--format", "csv"])
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_static_column_without_tuning(self, capsys):
        code, out, err = run(capsys, ["correlate", "--dataset", "dyads",
                                      "--measure", "roughness",
                                      "--tuning", "none"])
        assert code == 0
        assert "r = 0.967" in out

    def test_computed_measure_needs_tuning(self, capsys):
        code, out, err = run(capsys, ["correlate", "--dataset", "dyads",
                                      "--measure", "log_periodicity",
                                      "--tuning", "none"])
        assert code == 2
        assert "needs a tuning" in err

    def test_json(self, capsys):
        code, out, err = run(capsys, ["correlate", "--dataset", "triads",
                                      "--measure", "rel_periodicity",
                                      "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["r"] == pytest.approx(0.846, abs=5e-4)


class TestTuningCommand:
    def test_csv(self, capsys):
        code, out, err = run(capsys, ["tuning", "just", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "semitone,interval_name,numerator,denominator,deviation_percent"
        )
        assert len(lines) == 14

    def test_text(self, capsys):
        code, out, err = run(capsys, ["tuning", "just"])
        assert code == 0
        assert "3/2" in out

    def test_equal_temperament_has_no_fractions(self, capsys):
        code, out, err = run(capsys, ["tuning", "equal", "--format", "csv"])
        assert code == 0
        fifth = out.splitlines()[8]
        assert fifth.startswith("7,") and ",,," in fifth

    def test_rational_precision(self, capsys):
        code, out, err = run(capsys, ["tuning", "rational", "--precision",
                                      "0.011", "--format", "json"])
        assert code == 0
        assert json.loads(out)["ratios"][7] == "3/2"

    def test_too_coarse_precision(self, capsys):
        code, out, err = run(capsys, ["tuning", "rational", "--precision",
                                      "0.0546875"])
        assert code == 2
        assert "too coarse" in err
        code, out, err = run(capsys, ["tuning", "rational", "--precision",
                                      "0.2"])
        assert code == 2
        assert "deviation bound" in err


class TestApproximateCommand:
    def test_text(self, capsys):
        code, out, err = run(capsys, ["approximate", "--value", "1.4142136",
                                      "--precision", "0.01"])
        assert code == 0
        assert "17/12" in out

    def test_csv_trace(self, capsys):
        code, out, err = run(capsys, ["approximate", "--value", "1.4142136",
                                      "--precision", "0.01", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step;numerator;denominator"
        assert lines[-1] == "result;17;12"

    def test_fraction_value(self, capsys):
        code, out, err = run(capsys, ["approximate", "--value", "3/2",
                                      "--precision", "0.001", "--format",
                                      "json"])
        assert code == 0
        assert json.loads(out)["result"] == "3/2"

    def test_domain_error(self, capsys):
        code, out, err = run(capsys, ["approximate", "--value", "-1",
                                      "--precision", "0.01"])
        assert code == 2
        assert err.startswith("error:")


class TestOracleCommand:
    def test_agreement(self, capsys):
        code, out, err = run(capsys, ["oracle", "--chord", "0,4,7"])
        assert code == 0
        assert "agree" in out and "DISAGREE" not in out

    def test_pitch_name_chord(self, capsys):
        code, out, err = run(capsys, ["oracle", "--chord", "A4 C#5 E5"])
        assert code == 0
        assert "f1 = 440.00 Hz" in out

    def test_short_horizon_fails(self, capsys):
        code, out, err = run(capsys, ["oracle", "--chord", "0,1",
                                      "--horizon", "10"])
        assert code == 1
        assert "no period detected" in err


class TestReproduceCommand:
    def test_pass_target(self, capsys):
        code, out, err = run(capsys, ["reproduce", "table6"])
        assert code == 0
        assert "result: PASS" in out

    def test_failing_target(self, capsys):
        code, out, err = run(capsys, ["reproduce", "cor2"])
        assert code == 1
        assert "result: FAIL" in out

    def test_tuning_filter(self, capsys):
        code, out, err = run(capsys, ["reproduce", "cor2", "--tuning", "just"])
        assert code == 0
        code, out, err = run(capsys, ["reproduce", "cor2", "--tuning",
                                      "pythagorean"])
        assert code == 1
        code, out, err = run(capsys, ["reproduce", "cor2", "--tuning", "equal"])
        assert code == 2
        assert "tunings present" in err

    def test_csv_marks_external_rows(self, capsys):
        code, out, err = run(capsys, ["reproduce", "cor2", "--format", "csv"])
        assert out.splitlines()[0] == "name;kind;expected;computed;tolerance;ok"
        assert "r[consonance raw value];external;0.978;;0.005;true" in out

    def test_json(self, capsys):
        code, out, err = run(capsys, ["reproduce", "table2", "--format",
                                      "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == "table2" and payload["passed"] is True


class TestErrorHandling:
    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--chord", "0,4,X"], "error: token 3:"),
        (["approximate", "--value", "1/0", "--precision", "0.01"], "error: --value '1/0'"),
        (["approximate", "--value", "abc", "--precision", "0.01"], "error: --value 'abc'"),
        (["approximate", "--value", "1/-2", "--precision", "0.01"], "error: --value '1/-2'"),
        # flag values rejected by the parser itself
        (["oracle", "--chord", "0,4,7", "--f1", "0"], "harmonicity oracle: error: argument --f1:"),
        (["oracle", "--chord", "0,4,7", "--f1", "nan"], "harmonicity oracle: error: argument --f1:"),
        (["analyze", "--chord", "0,4,7", "--f1", "0"], "harmonicity analyze: error: argument --f1:"),
        (["oracle", "--chord", "0,4,7", "--horizon", "nan"],
         "harmonicity oracle: error: argument --horizon:"),
        (["oracle", "--chord", "0,4,7", "--tolerance", "-1"],
         "harmonicity oracle: error: argument --tolerance:"),
    ], ids=["chord-token", "value-1/0", "value-abc", "value-1/-2", "oracle-f1-0",
            "oracle-f1-nan", "analyze-f1-0", "horizon-nan", "tolerance-negative"])
    def test_domain_errors_exit_2_without_traceback(self, capsys, argv, message):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(message)
        assert "Traceback" not in captured.err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transpose"])
        assert excinfo.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze"])
        assert excinfo.value.code == 2


class TestInstalledEntryPoint:
    def test_console_script(self):
        executable = shutil.which("harmonicity")
        if executable is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run(
            [executable, "analyze", "--chord", "0,4,7", "--format", "csv"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[1] == "0,4,7;just;4;4.0;2.000"
