"""Command-line interface: chord parsing, subcommands, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmonicity
from harmonicity import (
    BUILTIN_TUNING_NAMES,
    DATASET_IDS,
    MEASURES,
    REPRODUCTION_TARGETS,
    ParseError,
    load_dataset,
)
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
        # the widest chord accepted spans the MIDI range, 127 semitones
        assert parse_pitch_spec("-60,67").harmony.semitones == (0, 127)

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

    def test_many_distinct_names_reach_the_span_check_quickly(self):
        # duplicates are found in a set, not by a scan of the pitches so far
        chord = " ".join(f"C{octave}" for octave in range(40_000))
        start = time.perf_counter()
        with pytest.raises(ParseError, match="chord spans 479988 semitones"):
            parse_pitch_spec(chord)
        assert time.perf_counter() - start < 2.0


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

    def test_wide_chord_brefeld(self, capsys):
        # the exact Brefeld product of 24 tones does not fit a float
        chord = ",".join(str(n) for n in range(24))
        code, out, err = run(capsys, ["analyze", "--chord", chord, "--measures", "all",
                                      "--format", "json"])
        assert code == 0 and err == ""
        assert math.isfinite(json.loads(out)["extras"]["brefeld"])

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

    def test_fine_precision_finishes_within_a_cpu_cap(self, limited_cli):
        # terms near 10**9 make ratio products of hundreds of digits, whose
        # gradus and omega the lcm pass computes with the periodicity means;
        # trial division of such a product ran past 40 s
        proc = limited_cli("rank", "--tuning", "rational", "--precision", "1e-17",
                           "--cardinality", "3", "--top", "1", cpu_seconds=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "measure log_periodicity, tuning rational, cardinality 3",
            "    1  {0,8,9}                        54.1246",
        ]


# SHA-256 of every `rank --format csv` run's exit code and stdout per
# (tuning flags, measure), taken from the Fraction-per-harmony ranking that
# preceded the integer column kernel; pairwise measures are ranked once per
# cardinality 2..12, the others over the whole octave
RANK_DIGESTS = {
    ("just", "rel_periodicity"): "0c944793dcfc2fe48832f2207a0479edb2adea9c78bb0f0e22822cb15f3f9fc4",
    ("just", "log_periodicity"): "c186171de6bf079d91d10d604f6b54268e0b50ca8b4e6971de94c6c4b91f9194",
    ("just", "similarity"): "4ff99bd94d20993fa5719e7ddca24b251834eae5255d0210231357bd6b2f498f",
    ("just", "gradus"): "c7a5bf826d7ae2c2d6a2ddfd028c2cb2fbcac5dd85cfaeefbea5050880940494",
    ("just", "omega"): "08d6cd4d461bc2f04f64b16c40a564878df979903198c0dd1b2808fe59225f64",
    ("just", "brefeld"): "dc71afa4b44f7a1f43e42ef434f377a2a5d68af490cb3786dc04a944f7e9d992",
    ("rational", "rel_periodicity"): "51ea1f2421b816d3819213f03e9dc02807d3ac52227d461950e1692bc4fee620",
    ("rational", "log_periodicity"): "aa96116d3916d1af674c3b196f983275dfb0995539d4d57e07043057360df2a9",
    ("rational", "similarity"): "19516535827da36328126c7b17b2b7f6de2b4a44136a7e741ccbdedf0ce7ab6d",
    ("rational", "gradus"): "c6963c80342e5e46fbb6f32fb16c09898b76a0f3f1c92cad262e3e17d0d8a4eb",
    ("rational", "omega"): "4ee19cf4d771a83409edb564b4ffc5077e9b7037c283bf7aaa036083e64c9de4",
    ("rational", "brefeld"): "b1141c0e6798703c1e2766865fed97f0a9348d40b5868648105bff85a9e66a08",
    ("pythagorean", "rel_periodicity"): "932b955510908b2a511fc33bbeb0323686bddd3949deed03b4925a30333809f1",
    ("pythagorean", "log_periodicity"): "3f4ea89ef800f4301092b4732a43f77bc308701c3924c7224a798fad076640de",
    ("pythagorean", "similarity"): "a1964994fe722a2cccd09ab4ee81c806ebf1b079f5764cb26e815f1e14213539",
    ("pythagorean", "gradus"): "4cf58f48d1ea541a8363ce8ad85180c98bffef833692bcdf484e8e1436b07dd2",
    ("pythagorean", "omega"): "4fef4274bd25dec1f4d205610d979d33b3fb1dd95946dbdd50bd75f87520e241",
    ("pythagorean", "brefeld"): "fc85a7224e1239e87c66ee6389a0b90edf00bc7b9a46e295cdf1beb7940f5724",
    ("kirnberger3", "rel_periodicity"): "94ca7a30dd45f2d8df95555a36a3b2037cfe9121dc575b0e90fadc493b3d1efc",
    ("kirnberger3", "log_periodicity"): "d2c27bb8025bc491fbf85d96add7fff72556dacb930b3767270b2e7556769b69",
    ("kirnberger3", "similarity"): "6742f7e242b84b7b9843f8f05d984bf4d18320b14d986128ef28780ef7a9d0dc",
    ("kirnberger3", "gradus"): "a3234237acc2e4622385527817ec085a5322ad6973ab6deaf5b2fa6bca2f6526",
    ("kirnberger3", "omega"): "b929a2cde7f781b818a5347c6418a1ca25afec95b0758b82754e8e7ada744db7",
    ("kirnberger3", "brefeld"): "471be983afd02c5ca4cfa2fc7dc0f887a30e6d5cedc0ab934f4eb250ac813cc4",
    ("rational --precision 0.005", "log_periodicity"): "53d7bd8982528983c0bb4bab78debd5f1e278e12f68bfa995fa219db3ea579d5",
}


# the same runs with `--format json`, which prints every value in full
# precision where the CSV rounds to 6 significant digits; taken before the
# two periodicity means and gradus/omega shared one kernel pass
RANK_JSON_DIGESTS = {
    ("just", "rel_periodicity"): "6c117886b74dee0eca449ec88c944680dae468b37b31ce81bb512d34ab37a1fc",
    ("just", "log_periodicity"): "a07c4f311a4df417c47f6f67a0dbe7c6761dde51edf3ae72487f9b125fcc1327",
    ("just", "similarity"): "e4c0844475290813e29b25554b8dd3991410976dd36c64d60585b31871d0b395",
    ("just", "gradus"): "7d539aadc0b51ca0cdf2592ba00a7c5c22ad64d69abfb17f53cdb60f03b677a3",
    ("just", "omega"): "2640402aac6056748015ada7091cffbc57ea257bfa310ed5f796ece64d792d17",
    ("just", "brefeld"): "915b115756fd2e0231337a1aadb593a6af8b8a85d394cf3d3fac0a72ea23fdf6",
    ("rational", "rel_periodicity"): "48cc0fdf10313a07cda1ab5494e593385d5cb8158a4ee82b40a46b21a27db5a2",
    ("rational", "log_periodicity"): "ccefcfa026a55e797e8b63ffe62a9aa88eb7f9a9743e2b05bfc86de2624d34af",
    ("rational", "similarity"): "c556f42d5f1841a88b6e4aa9c501385e5dbb39a3454212ef3e9f812a29e8e57f",
    ("rational", "gradus"): "82ba48007556f03962c71071f4c9be11d9f3b885b740530d2d41054772aabb23",
    ("rational", "omega"): "ebe06431ba9172265dbfac488144c76da132f80bb20cfcd299473074f87844d8",
    ("rational", "brefeld"): "0321c37f405055194b93a6c2d626f44c7c3e6a17239accffaae820b79a2c7397",
    ("pythagorean", "rel_periodicity"): "716effb35599ffcd21b6553aabf94a67cea82662ca6d231279e1370e73a08317",
    ("pythagorean", "log_periodicity"): "5e4975a3d2797bc9302ec6b62157886d199398e613fee1a15803ea9cc8eb6cc2",
    ("pythagorean", "similarity"): "8dd477869dc263082bb3da9f82159bdd7eb06484a7bc5f54427af7199b2de450",
    ("pythagorean", "gradus"): "d267ebc02c7497998a6e72ecc57c57e2ebac895966eb9f9293cd2713b5a827ae",
    ("pythagorean", "omega"): "cd7ccc18dd12a4ec2743a21dfcffb2f6cbc83887330adc1f9da688de0e70ac3b",
    ("pythagorean", "brefeld"): "4eb91599fc61a87b2ff8ac3442dff9511a4e10798052d430830650c374eea8f5",
    ("kirnberger3", "rel_periodicity"): "18ac12a64481a16669c6ef3b12c47d55caa1e9853634d6d3037557ed474e1c38",
    ("kirnberger3", "log_periodicity"): "0b55629dff0327dd752864977c4d8c403aa523bf5350ad75212e44a849be277d",
    ("kirnberger3", "similarity"): "a8498f17d912db001264838167f9c9e2aad0d2be8667fb52bf57a3b086e2194e",
    ("kirnberger3", "gradus"): "f9381f513dbdec0b68f745cb625fd61cea4901bfcb2f4ec771f473793b9bbf58",
    ("kirnberger3", "omega"): "9b7a72d141d6f093f0d79c25926b8635754a91e7d74cacfe915e00f7a567f86c",
    ("kirnberger3", "brefeld"): "d3a774d2fecffb4a49d09f2785e3a16df50df6b70e0b44be7e2b016e0286a4d6",
    ("rational --precision 0.005", "log_periodicity"): "9322e4b030dd9dd784009b99b916bb501822ff0822aa69e99335ca7bd64a517b",
}


def _rank_digest(capsys, tuning, measure, fmt):
    digest = hashlib.sha256()
    pairwise = measure in ("similarity", "brefeld")
    for cardinality in range(2, 13) if pairwise else (None,):
        argv = ["rank", "--tuning", *tuning.split(), "--measure", measure, "--format", fmt]
        if cardinality is not None:
            argv += ["--cardinality", str(cardinality)]
        code, out, err = run(capsys, argv)
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("tuning, measure", RANK_DIGESTS,
                         ids=[" ".join(key) for key in RANK_DIGESTS])
def test_rank_csv_bytes_are_unchanged(capsys, tuning, measure):
    assert _rank_digest(capsys, tuning, measure, "csv") == RANK_DIGESTS[tuning, measure]


@pytest.mark.parametrize("tuning, measure", RANK_JSON_DIGESTS,
                         ids=[" ".join(key) for key in RANK_JSON_DIGESTS])
def test_rank_json_bytes_are_unchanged(capsys, tuning, measure):
    assert _rank_digest(capsys, tuning, measure, "json") == RANK_JSON_DIGESTS[tuning, measure]


# SHA-256 of the JSON list [exit code, stdout, stderr] of each command, taken
# while `TuningTable` still hashed its 13 ratios: every reproduction target in
# every format (cor2 exits 1, criterion 4's standing discrepancy), `analyze
# --measures all` on the README chords, and the README's approximate and
# oracle examples
OUTPUT_DIGESTS = {
    "reproduce table2 --format text": "3189fd631e5570c6f9b1fa6b5bd45f928c3c12b979b1c25f851bbd29f3487108",
    "reproduce table2 --format csv": "ec9d4871a1a2be473b7d1592203808bd2f1757b06024812d3b643bda0c498661",
    "reproduce table2 --format json": "e99b736ab5ed1fbfda5356672311a5f3fb828d065cdc0ae3db53460cf655ce6c",
    "reproduce table3 --format text": "43047a6616d6083c791eb6265a6b7f206a6bb8ed284d85aedc8b598209d5f713",
    "reproduce table3 --format csv": "c1c77bd6afad8fbe1cc8597f97805b5b4a3f8f18508774e4190f75510a3b8ffa",
    "reproduce table3 --format json": "4c290b205744128096804bd784af214e92a4004d45256bb66d933f31ec867fcf",
    "reproduce table4 --format text": "dfef94ebcc2e49194a047bb24e55239132cb7c4b22a7093b0fc9a3a237b91a06",
    "reproduce table4 --format csv": "fa98954d017c3512e62252b238638081f692d833bb0d34547ff9f5835f566958",
    "reproduce table4 --format json": "5bd1a6b3a7e76b91881501cd1ffbaa0f5ef9db0fe4174809b287346255b12a21",
    "reproduce table6 --format text": "c3429c82ef08497565c65391c7482bbcc8af6a76ac9a1db68c310f27765dc201",
    "reproduce table6 --format csv": "ee6b59d0de0b03f9acb81c12b5bb01fc5d42b6d2700e3d4b0ae0b2574e02f02e",
    "reproduce table6 --format json": "449122b8f1027b041e08116f00028fcf17296438968d10be9122ffe15b69b938",
    "reproduce cor2 --format text": "189153dcbcb38705ff220bbd589268285764572261695e6f25dffcdcee384e83",
    "reproduce cor2 --format csv": "18b69904532cf6087388955bfa05044816109aed890e6408fe6d20a3dd6e6974",
    "reproduce cor2 --format json": "5e32a0c7eabd6155d41e3ad24989420c1a1cf68b0c7866e7d5ead036049f9181",
    "reproduce cor3 --format text": "a1e226690123d99e8ac3c1443214ee28d487ce6d1a9831edf7576b976d22f7a4",
    "reproduce cor3 --format csv": "60d54e3e28b92c384a17d32a2c5e6ab5bd7688c322e17997cdf9814c5dd75135",
    "reproduce cor3 --format json": "20c693c7eda7b2a87c82edbd27b56cc980bc12057cae1fb9ff45c77ccc0d6a62",
    "analyze --chord 0,4,7 --measures all --format text": "f825381330d6766804152732210d4724d68617e62823f355df8b37034e08ddde",
    "analyze --chord 0,4,7 --measures all --format csv": "6f31703d7d7d89b8f94d9a4842faa52729e8d7d59713aa1131c36aa141bcb7a6",
    "analyze --chord 0,4,7 --measures all --format json": "ed3ddfc35cab16de16bb0ffa2d0661f6da0fb84c660f76392fd72ec4664c9d51",
    "analyze --chord 'A4 C#5 E5' --measures all --format text": "b84a2cef03303af5fd810b42552dff3a7de5ac967822411bb27babafa42afde4",
    "analyze --chord 'A4 C#5 E5' --measures all --format csv": "6f31703d7d7d89b8f94d9a4842faa52729e8d7d59713aa1131c36aa141bcb7a6",
    "analyze --chord 'A4 C#5 E5' --measures all --format json": "ed3ddfc35cab16de16bb0ffa2d0661f6da0fb84c660f76392fd72ec4664c9d51",
    "analyze --chord 0,3,9 --measures all --format text": "1d6b83d8fd14db4d540430b3688581957807f4d8169493a15ce08ac19a840e26",
    "analyze --chord 0,3,9 --measures all --format csv": "b4257142908fe5bb7f4a1a018f02aecbbe69543382a5e1172a583866050082a2",
    "analyze --chord 0,3,9 --measures all --format json": "902cfb855550cde7c2fe165934f6a61029ada17e2da6f517b82aeab5b16d7a89",
    "approximate --value 0.5849625 --precision 0.01": "d3f09def2e70e6326570514f1f75163293fe6a41021f55dfd14c741ed9cadb4d",
    "oracle --chord 0,3,9 --tuning just": "b2bd6800c477576d62f5e026b2f848f1da065858cc451e474a38b2dd06f9ffbc",
}


def _digest(capsys, argvs):
    """SHA-256 over the JSON list [exit code, stdout, stderr] of each argv."""
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(json.dumps(run(capsys, argv)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("command", OUTPUT_DIGESTS)
def test_outputs_are_unchanged(capsys, command):
    assert _digest(capsys, [shlex.split(command)]) == OUTPUT_DIGESTS[command]


# SHA-256 of the JSON list [exit code, stdout, stderr] of each command at 80
# columns under Python 3.11's argparse, taken while the parser still read its
# dataset and target choices from `empirics`: the help of the program and of
# every subcommand, and the invalid-choice errors of the two choices that
# come from the dataset and reproduction-target registries
HELP_DIGESTS = {
    "--help": "9df39f9c89fe7d171081d280ba31805296c0d04869247bd2a934cab565671d3e",
    "analyze --help": "9c8695cc38097e49ec8d361e2addc7380aa0297869da73db220e6529f69c9987",
    "rank --help": "69642ed94c89265d10273ba2a136cd910de335edf81fcdc13af0f5b61e1ed6fe",
    "correlate --help": "77592953c9280144b2ed079a5aa082786f976e760bb697afab68fbbb79d7be28",
    "tuning --help": "fe6065117ffa16dd504b80f57917286901e5ad0983d21d2f05a12c2d537085ba",
    "approximate --help": "029c5d579491ce657deabb0de2a114fa9971234edd23b14abe15c3f8dbe2c88c",
    "oracle --help": "c2532d6bb2c5e2788fb83ea2a3550b7ebf7d7935263b0766f0e8690e16e7afef",
    "reproduce --help": "802495d34765963ffab5f5f56b7810b18770748320a78f0c72eff7fc877d3b92",
    "correlate --dataset nope": "0b3afe1d49b433ea0cd9df39626d0204013182b635a6bef80393a055415c656e",
    "reproduce nope": "3a7d19c1672c404ca522f0f0ce525723da9af1b6ffa64708606f9d35dfcd4a5d",
}


@pytest.mark.parametrize("command", HELP_DIGESTS)
def test_help_and_choice_errors_are_unchanged(capsys, monkeypatch, command):
    # argparse wraps help at the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(shlex.split(command))
    captured = capsys.readouterr()
    result = [excinfo.value.code, captured.out, captured.err]
    assert hashlib.sha256(json.dumps(result).encode()).hexdigest() == HELP_DIGESTS[command]


def _correlate_argvs(dataset, tuning, mode):
    """`correlate` in each format naming all six measures and the dataset's
    columns (only the columns under `--tuning none`); a column with gaps
    exits 2 before the names after it, so it runs in an argv of its own."""
    columns = load_dataset(dataset).static_columns
    names = list(columns) if tuning == "none" else list(dict.fromkeys([*MEASURES, *columns]))
    gapped = [name for name in names if None in columns.get(name, ())]
    groups = [[name for name in names if name not in gapped]] + [[name] for name in gapped]
    for fmt in ("text", "csv", "json"):
        for group in groups:
            flags = [arg for name in group for arg in ("--measure", name)]
            yield ["correlate", "--dataset", dataset, "--tuning", tuning,
                   "--mode", mode, "--format", fmt, *flags]


# digests of `_correlate_argvs` per (dataset, tuning, mode), taken while
# `analyze` found each view's lowest ratio by `min` over Fractions and
# averaged through `Fraction(sum, k)`; JSON prints r and p in full
# precision, and the datasets hold tone sets beyond one octave and literal
# unisons (dyads have no ratings, so their `values` argvs exit 2)
CORRELATE_DIGESTS = {
    ("dyads", "none", "ranks"): "a3c9b289633673d8c5f2ac55390913165cea9d8d8f4ede81e0f19c84f3555e5f",
    ("dyads", "none", "values"): "0b5b51d553e6be9720c56ed44a8c72f3e617928a3c264e68d3d8dd5e1be0f930",
    ("dyads", "just", "ranks"): "fc68518ff41531a096ea63019da3764c7a0ac5227a127c5f539d7e04a47f0dcb",
    ("dyads", "just", "values"): "0b5b51d553e6be9720c56ed44a8c72f3e617928a3c264e68d3d8dd5e1be0f930",
    ("dyads", "rational", "ranks"): "d2da4f18be8db04cd17a242f7f2575946d3a5f977052c9b3d0724d00d131a4c6",
    ("dyads", "rational", "values"): "0b5b51d553e6be9720c56ed44a8c72f3e617928a3c264e68d3d8dd5e1be0f930",
    ("dyads", "pythagorean", "ranks"): "5a55c7a2b8ab5567f723e845a9790137a7578276a2233d066d30045a9fa9da42",
    ("dyads", "pythagorean", "values"): "0b5b51d553e6be9720c56ed44a8c72f3e617928a3c264e68d3d8dd5e1be0f930",
    ("dyads", "kirnberger3", "ranks"): "4a81cebdf47c8bc5aa01f732841e7548c57403773acb20505f2be37a5ad4396c",
    ("dyads", "kirnberger3", "values"): "0b5b51d553e6be9720c56ed44a8c72f3e617928a3c264e68d3d8dd5e1be0f930",
    ("triads", "none", "ranks"): "a0de21b64ad7c53facec502ce943d39ee9267081702e9b8b7d6ce6a6c5d9d083",
    ("triads", "none", "values"): "f1a4acf70a7fe1c67ce1742c173a7586db514410c8444f5917afd32e240575e9",
    ("triads", "just", "ranks"): "2b6726266cb26d22fa7a0655fe5b1e6278d0a99c24d8216be5c23eb81fb79606",
    ("triads", "just", "values"): "fcc7e9e143fedc98ad6b0585dc7db218b6ebf60ff4d2f6770d920a9d9d89f8ef",
    ("triads", "rational", "ranks"): "e19d3f1b65d659d119f0844832604dd75b6e12a7d52d33dbd1a0f10e10df9339",
    ("triads", "rational", "values"): "fd352ceaa68695859e19283437f4f8cf2aa4e3fb44b1ce5b38670397a6ce1b15",
    ("triads", "pythagorean", "ranks"): "3d682097fdeb14a96de187dbc4fb19e04d1a46279d365f1cf61f90509a7146fb",
    ("triads", "pythagorean", "values"): "88c31b1da80714515a5babc27d956e1a1984cf40dfdd33d720ac6d0d4fb828e2",
    ("triads", "kirnberger3", "ranks"): "309cfff15f31ccf64c931422e30904d62134ccd1dc2d41976fda5228574e35a0",
    ("triads", "kirnberger3", "values"): "8dfd4b7d63d7ccd0005bd0ca464540f733bae8b60f0e97d8b5511d109331583f",
    ("complete_triads", "none", "ranks"): "da4dfde5324dfe5f82d4932634147cff0c92f0278e71e9b53eb1946178f4e54f",
    ("complete_triads", "none", "values"): "79a3a3286e59de9a06fa9bf0b39b58a1031988c1ea8584cd2217d80fae3a3262",
    ("complete_triads", "just", "ranks"): "4359fa6e6d83b878e29262656ab99fc51bbfcd77551c6d9313b7f85945ac312c",
    ("complete_triads", "just", "values"): "09d82ed7c496ee3d3095dfde83b79d34e8fe7c19e3cf0f0e845eafc827267207",
    ("complete_triads", "rational", "ranks"): "701bc423459446acaa2a120598f601b2ac509dcd8988a892b87642bfc6e7da3d",
    ("complete_triads", "rational", "values"): "ee120fbf55d7df0f4f11ee3212f6cfaef18c07a23d5c606ab7a1d7ba9754bf6a",
    ("complete_triads", "pythagorean", "ranks"): "8dd360b51df6b55cb8d3102028392392392d1ffa2719a379fab18529b9835639",
    ("complete_triads", "pythagorean", "values"): "ed1d7f1ccc621e077a5030b249709f6345b5dbbc4e37d5d9ec283321c445d1a2",
    ("complete_triads", "kirnberger3", "ranks"): "0d4aa33ed4467361fd2cfee34ee4fbacc5e65b5ab16b9e51e5bce6b48bf3aedc",
    ("complete_triads", "kirnberger3", "values"): "f58e473eaf1d77ee92870e8dc68aa4c1f9722778f4d460b37619740658f65b51",
    ("church_modes", "none", "ranks"): "c1ee686f4ee0899b14d4ea4e434ef45e45cc81f0811dcc9938e3f0ae7286b956",
    ("church_modes", "none", "values"): "357fecd2e7104127cef829e38bb28e44d2b4ff48809d0c0cc2a989aa13e3ed12",
    ("church_modes", "just", "ranks"): "0b4a7449235ad73e4cbc927505c4d9a66c88b3f7ed90fc6767498fb7fbd20571",
    ("church_modes", "just", "values"): "72ef62ae0625d7da9accd610e6c4354631a6172e027288908bd19846181a9178",
    ("church_modes", "rational", "ranks"): "a7bc3e7458c13a06e7d2827cca75f6610da14a600ab27e0b12e4e57f1031c6dc",
    ("church_modes", "rational", "values"): "9ad9c2bdc872c783872c5e7547944e63acc2f5096d8e3d72f6fed9dbb3310d2b",
    ("church_modes", "pythagorean", "ranks"): "de4b187756af92e628d2a6ed5fdae01b31d3fd5b878d1ea8f40b22d161532a53",
    ("church_modes", "pythagorean", "values"): "afb5bc303c99797c72638923e39a2a7ccb033a7ce31f96626f3f61909c568f9d",
    ("church_modes", "kirnberger3", "ranks"): "a624813a100caf13af2fee3da905b1baa0f1957b89830f53dbd71f660debeffc",
    ("church_modes", "kirnberger3", "values"): "82b6bb4501ba9a64389675f9bb60eb1e604483668fe2e34202e5778dd2016b68",
}


@pytest.mark.parametrize("dataset, tuning, mode", CORRELATE_DIGESTS,
                         ids=[" ".join(key) for key in CORRELATE_DIGESTS])
def test_correlate_outputs_are_unchanged(capsys, dataset, tuning, mode):
    digest = _digest(capsys, _correlate_argvs(dataset, tuning, mode))
    assert digest == CORRELATE_DIGESTS[dataset, tuning, mode]


# digests of `tuning` in text, csv and json per name and flags, taken at the
# same time
TUNING_DIGESTS = {
    "equal": "4d7359d2bae23f6b4107857dc51906e890099e9662cd9cd41f8a09ff69fb65f3",
    "pythagorean": "5f142b94528c192a605749f2752443cde20f3cd256865c5e1893e0e60ee04abb",
    "kirnberger3": "4ec6cc074b7d9cd0f5a54086055ef5a06908fdb91fb02a582d297c2f36bcaa96",
    "rational": "e713a346653b62a6fcb51362085658cf5204e5beda4000478b261b47a7a6c364",
    "just": "b12ad018f2a80debec72437783e036d1e75143d409f555aaa39d1ca0b51d0a39",
    "rational --precision 0.005": "2c62b9646059e539dd6f4a3e4cc01f60e0310688f50d920263f2a5e4f0f80632",
    "rational --precision 0.001": "112474a074f5ab74e4bb187602556ffe5637697c70a5d4064dc2e4d07f6e3d87",
}


@pytest.mark.parametrize("tuning", TUNING_DIGESTS)
def test_tuning_outputs_are_unchanged(capsys, tuning):
    argvs = (["tuning", *tuning.split(), "--format", fmt] for fmt in ("text", "csv", "json"))
    assert _digest(capsys, argvs) == TUNING_DIGESTS[tuning]


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

    # float() reads 'nan' and 'inf'; the first triad's rating is 1.667
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_dataset_cell_exits_2(self, capsys, tmp_path, monkeypatch, cell):
        text = resources.files("harmonicity").joinpath("data", "triads.csv").read_text(encoding="utf-8")
        assert text.count(";1;1.667;") == 1
        (tmp_path / "triads.csv").write_text(text.replace(";1;1.667;", f";1;{cell};"), encoding="utf-8")
        monkeypatch.setenv("HARMONY_DATA_DIR", str(tmp_path))
        code, out, err = run(capsys, ["correlate", "--dataset", "triads",
                                      "--measure", "rel_periodicity", "--mode", "values"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: dataset 'triads' line 3: column 'rating' must be a finite number, got {cell}")
        assert "Traceback" not in err

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

    def test_pythagorean_chromatic_within_address_space_cap(self, limited_cli):
        # h = 124416 lowest-tone periods; the lattice holds 130000 x 12 cells
        proc = limited_cli("oracle", "--chord", "0,1,2,3,4,5,6,7,8,9,10,11",
                           "--tuning", "pythagorean", "--horizon", "130000")
        assert proc.returncode == 0, proc.stderr
        assert "h = 124416" in proc.stdout
        assert "(agree at" in proc.stdout

    def test_tolerance_flag(self, capsys):
        code, out, err = run(capsys, ["oracle", "--chord", "0,4,7", "--tolerance", "0.5"])
        assert code == 0
        assert out.splitlines()[-1] == "relative difference: 0 (agree at tolerance 0.5)"

    def test_short_horizon_fails(self, capsys):
        code, out, err = run(capsys, ["oracle", "--chord", "0,1",
                                      "--horizon", "10"])
        assert code == 1
        assert "no period detected" in err


class TestLargeLowestFrequency:
    """From 1e15 Hz on, frequencies print in ``.9g`` form instead of every
    integer digit of the float (303 digits for 1e300 Hz)."""

    @pytest.mark.parametrize("f1, oracle, analyze", [
        ("1e300", "f1 = 1e+300 Hz", "fundamental: 2.5e+299 Hz (lowest tone 1e+300 Hz)"),
        ("1e15", "f1 = 1e+15 Hz", "fundamental: 250000000000000.00 Hz (lowest tone 1e+15 Hz)"),
        # below 1e15 Hz the two decimals stay
        ("999999999999999.9", "f1 = 999999999999999.88 Hz",
         "fundamental: 249999999999999.97 Hz (lowest tone 999999999999999.88 Hz)"),
    ])
    def test_width_is_bounded(self, capsys, f1, oracle, analyze):
        code, out, _ = run(capsys, ["oracle", "--chord", "0,4,7", "--f1", f1])
        assert code == 0
        assert f"(h = 4, {oracle})" in out
        code, out, _ = run(capsys, ["analyze", "--chord", "0,4,7", "--f1", f1])
        assert code == 0
        assert out.splitlines()[-1] == analyze


class TestReproduceCommand:
    def test_pass_target(self, capsys):
        for target in ("table2", "table3", "table4", "table6", "cor3"):
            code, out, err = run(capsys, ["reproduce", target])
            assert code == 0
            assert out.splitlines()[-1] == "result: PASS", target

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
        # inputs whose work would grow without bound: ~10**7 mediants, and
        # Fraction(2) ** octaves for an offset of 10**11 semitones
        (["approximate", "--value", "1.0000001", "--precision", "1e-9"],
         "error: approximate() would record more than 1000000 mediants at precision 1e-09"),
        (["analyze", "--chord", "C4 E4 G99999999999999999999"], "error: chord spans"),
        (["analyze", "--chord", "0,100000000000"],
         "error: chord spans 100000000000 semitones, more than the MIDI range of 127"),
        # a lattice of 1e300 lags; pitch names whose float reference
        # frequency would overflow, or underflow to 0 Hz
        (["oracle", "--chord", "0,4,7", "--horizon", "1e300"],
         "error: a horizon of 1e+300 lowest-tone periods exceeds the oracle's budget "
         "of 2000000 lattice cells (horizon x tones); the largest horizon for 3 tones "
         "is 666666"),
        (["analyze", "--chord", "C99999999999999999999 D99999999999999999999"],
         "error: token 1: 'C99999999999999999999' lies outside MIDI notes 0..127"),
        (["oracle", "--chord", "C-99999999999999999999 D-99999999999999999999"],
         "error: token 1: 'C-99999999999999999999' lies outside MIDI notes 0..127"),
        # an infinite predicted period, an overflowing 2*pi*f, overflowing lags
        (["oracle", "--chord", "0,4,7", "--f1", "1e-308"], "error: a lowest tone of 1e-308 Hz"),
        (["oracle", "--chord", "0,4,7", "--f1", "1e308"], "error: a lowest tone of 1e+308 Hz"),
        (["oracle", "--chord", "0,4,7", "--f1", "1e-307"], "error: a lowest tone of 1e-307 Hz"),
        # tokens that int() cannot read: two signs, a digit that is not decimal;
        # and an offset past int()'s digit limit
        (["analyze", "--chord", "0,--4"],
         "error: token 2: '--4' is neither a semitone offset nor a pitch name"),
        (["analyze", "--chord", "0,+-4"],
         "error: token 2: '+-4' is neither a semitone offset nor a pitch name"),
        (["analyze", "--chord", "0,\u00b2"],
         "error: token 2: '\u00b2' is neither a semitone offset nor a pitch name"),
        (["oracle", "--chord", "0,--4"],
         "error: token 2: '--4' is neither a semitone offset nor a pitch name"),
        (["oracle", "--chord", "0,+-4"],
         "error: token 2: '+-4' is neither a semitone offset nor a pitch name"),
        (["oracle", "--chord", "0,\u00b2"],
         "error: token 2: '\u00b2' is neither a semitone offset nor a pitch name"),
        (["analyze", "--chord", "0," + "1" * 5000],
         "error: a semitone offset has more digits than int() converts"),
        # values so small that no precision fits the mediant budget, and
        # values that are not finite
        (["approximate", "--value", "1/10000000000", "--precision", "0.5"],
         "error: approximate() would record more than 1000000 mediants at precision 0.5; "
         "x = 1/10000000000 is too small for that budget at any precision"),
        (["approximate", "--value", "1e-300", "--precision", "0.99"],
         "error: approximate() would record more than 1000000 mediants at precision 0.99; "
         "x = 1e-300 is too small for that budget at any precision"),
        (["approximate", "--value", "4e-7", "--precision", "0.999"],
         "error: approximate() would record more than 1000000 mediants at precision 0.999; "
         "x = 4e-07 is too small for that budget at any precision"),
        (["approximate", "--value", "inf", "--precision", "0.01"],
         "error: approximate() needs a finite x, got inf"),
        (["approximate", "--value", "nan", "--precision", "0.01"],
         "error: approximate() needs a finite x, got nan"),
        # a pitch-name octave past int()'s digit limit, shown truncated
        (["analyze", "--chord", "C" + "1" * 5000 + " E4"],
         "error: token 1: 'C11111111111'... has an octave of more than 4300 digits, "
         "the limit of int()"),
        # a pitch-name octave with the digit grouping that offsets reject
        (["analyze", "--chord", "C0_4 E4"],
         "error: token 1: 'C0_4' needs an integer octave after 'C'"),
        # ranked columns that cannot be computed
        (["rank", "--tuning", "equal", "--measure", "gradus", "--cardinality", "3"],
         "error: tuning 'equal' has irrational ratios; period lengths need exact "
         "fractions (pick a rational-valued tuning such as 'just' or 'rational')"),
        (["rank", "--measure", "brefeld", "--cardinality", "1"],
         "error: pairwise-interval measures need at least two tones"),
        (["rank", "--measure", "similarity"],
         "error: pairwise-interval measures need at least two tones"),
        # the tuning is checked before the lone tone {0}
        (["rank", "--tuning", "equal", "--measure", "similarity"],
         "error: tuning 'equal' has irrational ratios; period lengths need exact "
         "fractions (pick a rational-valued tuning such as 'just' or 'rational')"),
    ], ids=["chord-token", "value-1/0", "value-abc", "value-1/-2", "oracle-f1-0",
            "oracle-f1-nan", "analyze-f1-0", "horizon-nan", "tolerance-negative",
            "approximate-budget", "chord-span-names", "chord-span-offsets",
            "horizon-budget", "note-above-midi", "note-below-midi",
            "f1-tiny", "f1-huge", "f1-lags", "chord-two-signs", "chord-sign-pair",
            "chord-superscript", "oracle-two-signs", "oracle-sign-pair",
            "oracle-superscript", "chord-offset-digits", "approximate-tiny-fraction",
            "approximate-tiny-float", "approximate-below-budget", "value-inf",
            "value-nan", "note-octave-digits", "note-octave-underscore", "rank-equal",
            "rank-pairwise-one-tone", "rank-pairwise-whole-octave", "rank-equal-pairwise"])
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


@st.composite
def chord_argvs(draw):
    """``analyze --measures all`` or ``oracle`` on up to 40 distinct tones
    within the 127-semitone span, any tuning, format and lowest frequency."""
    tones = draw(st.lists(st.integers(0, 127), min_size=1, max_size=40, unique=True))
    chord = ",".join(str(n) for n in tones)
    tuning = draw(st.sampled_from(BUILTIN_TUNING_NAMES))
    if draw(st.booleans()):
        argv = ["analyze", "--chord", chord, "--tuning", tuning, "--measures", "all",
                "--format", draw(st.sampled_from(["text", "csv", "json"]))]
    else:
        argv = ["oracle", "--chord", chord, "--tuning", tuning]
    f1 = draw(st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return argv if f1 is None else [*argv, "--f1", repr(f1)]


@st.composite
def chord_texts(draw):
    """``--chord`` text from offset-like and name-like tokens: runs of signs,
    ASCII and other Unicode digits (superscript two is not decimal), note
    letters with accidentals and signed octaves, joined by runs of commas,
    spaces and tabs."""
    signs = st.sampled_from(["", "+", "-", "--", "+-"])
    digits = st.text("0123456789\u00b2\u0663\uff14", min_size=1, max_size=3)
    offset = st.tuples(signs, digits).map("".join)
    name = st.tuples(st.sampled_from("ABCDEFGHcx"), st.sampled_from(["", "#", "b"]),
                     signs, digits).map("".join)
    tokens = draw(st.lists(offset | name, min_size=1, max_size=8))
    separators = st.text(", \t", min_size=1, max_size=2)
    return "".join(token + draw(separators) for token in tokens[:-1]) + tokens[-1]


@st.composite
def approximate_argvs(draw):
    """``approximate`` of any positive float (subnormals and the largest
    included) or fraction p/q, at a precision in [1e-3, 1), in any format."""
    if draw(st.booleans()):
        value = repr(draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
    else:
        value = f"{draw(st.integers(1, 10**9))}/{draw(st.integers(1, 1000))}"
    precision = draw(st.floats(min_value=1e-3, max_value=1.0, exclude_max=True))
    return ["approximate", "--value", value, "--precision", repr(precision),
            "--format", draw(st.sampled_from(["text", "csv", "json"]))]


# free text for a numeric flag: nan, inf, subnormals, 1e308, negatives,
# 20-digit ints, in-range values and arbitrary strings
FREE_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "5e-324", "1e-310", "1e308", "-1", "0", "-0.0",
                     "12345678901234567890", "-12345678901234567890"]),
    st.integers(-2, 14).map(str),
    st.floats(1e-6, 0.06).map(repr),
    st.floats().map(repr),
    st.text(max_size=4),
)


@st.composite
def table_argvs(draw):
    """``rank``, ``correlate``, ``tuning`` or ``reproduce`` with numeric
    flags from free text and names from the valid choices plus unknown ones;
    each optional flag is given or left out."""
    def name(*valid):  # valid half the time
        return draw(st.sampled_from(valid) | st.sampled_from(["unknown", ""]))

    def optional(**flags):
        return [part for flag, value in flags.items() if draw(st.booleans())
                for part in (f"--{flag}", value)]

    tunings, formats = BUILTIN_TUNING_NAMES, ("text", "csv", "json")
    command = draw(st.sampled_from(["rank", "correlate", "tuning", "reproduce"]))
    if command == "rank":
        return ["rank", *optional(
            tuning=name(*tunings), precision=draw(FREE_NUMBERS), measure=name(*MEASURES),
            cardinality=draw(FREE_NUMBERS), top=draw(FREE_NUMBERS), format=name(*formats))]
    if command == "correlate":
        measures = draw(st.lists(st.sampled_from([*MEASURES, "roughness", "unknown"]),
                                 max_size=3))
        return ["correlate", "--dataset", name(*DATASET_IDS),
                *(part for measure in measures for part in ("--measure", measure)),
                *optional(tuning=name(*tunings, "none"), mode=name("ranks", "values"),
                          format=name(*formats))]
    if command == "tuning":
        return ["tuning", name(*tunings),
                *optional(precision=draw(FREE_NUMBERS), format=name(*formats))]
    return ["reproduce", name(*REPRODUCTION_TARGETS),
            *optional(tuning=name(*tunings), format=name(*formats))]


def _printed_approximation(fmt, out):
    """The accepted fraction as ``approximate`` prints it in ``fmt``."""
    if fmt == "json":
        return Fraction(json.loads(out)["result"])
    if fmt == "csv":
        _, numerator, denominator = out.splitlines()[-1].split(";")
        return Fraction(int(numerator), int(denominator))
    return Fraction(out.splitlines()[0].rsplit(": ", 1)[1])


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argv=chord_argvs())
    @example(argv=["analyze", "--chord", ",".join(str(n) for n in range(15)),
                   "--tuning", "pythagorean", "--measures", "all"])
    @example(argv=["oracle", "--chord", "0,4,7", "--f1", "1e-308"])
    @example(argv=["oracle", "--chord", "0,4,7", "--f1", "1e308"])
    @example(argv=["oracle", "--chord", "0,4,7", "--f1", "1e-307"])
    def test_every_chord_argv_exits_0_1_or_2(self, argv):
        # a warning, such as numpy's overflow in the oracle's scan, fails too
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["analyze", "oracle"]), chord=chord_texts())
    @example(command="analyze", chord="0,--4")
    @example(command="oracle", chord="0,--4")
    @example(command="analyze", chord="0,\u00b2")
    @example(command="oracle", chord="0,\u00b2")
    @example(command="analyze", chord="0," + "1" * 5000)
    def test_every_chord_text_exits_0_1_or_2(self, command, chord):
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            code = main([command, f"--chord={chord}"])
        assert code in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(argv=approximate_argvs())
    @example(argv=["approximate", "--value", "1e-310", "--precision", "0.01", "--format", "text"])
    @example(argv=["approximate", "--value", "5e-324", "--precision", "0.5", "--format", "text"])
    @example(argv=["approximate", "--value", "1.7976931348623157e308", "--precision", "0.001",
                   "--format", "json"])
    @example(argv=["approximate", "--value", "1e308", "--precision", "0.9999999999",
                   "--format", "text"])
    def test_every_approximate_argv_exits_0_or_2_with_a_positive_result(self, argv):
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2)
        if code == 0:
            assert _printed_approximation(argv[-1], out.getvalue()) > 0
            if argv[-1] == "text":  # the value and the precision are echoed as given
                assert out.getvalue().startswith(f"{argv[2]} within {argv[4]}: ")

    @settings(max_examples=150, deadline=None)
    @given(argv=table_argvs())
    @example(argv=["rank", "--tuning", "rational", "--precision", "5e-324", "--cardinality", "2"])
    @example(argv=["rank", "--precision", "nan", "--top", "12345678901234567890"])
    @example(argv=["rank", "--cardinality", "-12345678901234567890", "--top", "-1"])
    @example(argv=["tuning", "rational", "--precision", "1e308", "--format", "json"])
    def test_every_table_argv_exits_0_1_or_2(self, argv):
        # argparse rejects an argv by raising SystemExit with its exit code
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)


# One argv per subcommand that has --format; cor2 has rows without a
# computed value (external data) and exits 1.
FORMATTED = {
    "analyze": ["analyze", "--chord", "C3 E4 G4", "--measures", "all"],
    "rank": ["rank", "--cardinality", "3"],
    "correlate": ["correlate", "--dataset", "triads", "--measure", "rel_periodicity",
                  "--measure", "roughness", "--tuning", "none", "--mode", "values"],
    "tuning": ["tuning", "equal"],
    "approximate": ["approximate", "--value", "1.4142136", "--precision", "0.001"],
    "reproduce": ["reproduce", "cor2"],
}


@pytest.mark.parametrize("argv", FORMATTED.values(), ids=FORMATTED.keys())
def test_json_parses_and_csv_rows_match_header(capsys, argv):
    code, out, err = run(capsys, [*argv, "--format", "json"])
    assert code in (0, 1) and err == ""
    json.loads(out)
    code, out, err = run(capsys, [*argv, "--format", "csv"])
    assert code in (0, 1) and err == ""
    header, *rows = out.splitlines()
    separator = ";" if ";" in header else ","
    assert rows
    assert all(row.count(separator) == header.count(separator) for row in rows)


def _readme_tour():
    """Each ``$ harmonicity ...`` command in README.md with the output lines
    shown under it, up to the next blank line or code fence."""
    examples = []
    shown = None
    for line in (Path(__file__).parents[1] / "README.md").read_text("utf-8").splitlines():
        if line.startswith("$ harmonicity "):
            shown = []
            examples.append(pytest.param(shlex.split(line)[2:], shown, id=line[2:]))
        elif not line.strip() or line.startswith("```"):
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


@pytest.mark.parametrize("argv, shown", _readme_tour())
def test_readme_cli_tour_matches_real_output(capsys, argv, shown):
    # a line holding only "..." stands for any run of skipped lines
    pattern = "".join(
        r"(?:.*\n)*" if line.strip() == "..." else re.escape(line) + r"\n" for line in shown
    )
    code, out, err = run(capsys, argv)
    assert re.fullmatch(pattern, out), out


class TestInstalledEntryPoint:
    @pytest.mark.parametrize("launcher", ["console-script", "python-m"])
    def test_console_script(self, launcher):
        env = None
        if launcher == "python-m":
            command = [sys.executable, "-m", "harmonicity.cli"]
            # the package's own source root, whatever the caller's environment
            env = {**os.environ, "PYTHONPATH": str(Path(harmonicity.__file__).parents[1])}
        else:
            executable = shutil.which("harmonicity")
            if executable is None:
                pytest.skip("console script not on PATH")
            command = [executable]

        def launch(*argv):
            return subprocess.run(
                [*command, *argv], capture_output=True, text=True, timeout=60, env=env
            )

        result = launch("analyze", "--chord", "0,4,7", "--format", "csv")
        assert result.returncode == 0
        assert result.stdout.splitlines()[1] == "0,4,7;just;4;4.0;2.000"
        result = launch("analyze", "--chord", "0,4,X")
        assert result.returncode == 2
        assert result.stderr.startswith("error: token 3:")
        assert "Traceback" not in result.stderr

    def test_reader_closing_the_pipe_exits_0_quietly(self):
        # the whole-octave JSON ranking outgrows the pipe buffer, so printing
        # it after the reader has gone raises BrokenPipeError inside main
        proc = subprocess.Popen(
            [sys.executable, "-m", "harmonicity.cli", "rank", "--measure", "log_periodicity",
             "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(harmonicity.__file__).parents[1])},
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()
