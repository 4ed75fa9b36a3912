import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hskolem
from hskolem import (BoundExceeded, ContradictionDetected, DomainError, NotGraceful, cli,
                     construct_nk2_21)
from hskolem.core import format_pairs, pair_system_from_json


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestConstruct:
    def test_n2_text(self):
        code, out, _ = run_cli("construct", "nk2", "--n", "2")
        assert code == 0
        assert out == "1-3 2-5\n"

    def test_n3_not_graceful(self):
        code, out, err = run_cli("construct", "nk2", "--n", "3")
        assert code == 2
        assert "not (2,1)-hooked Skolem graceful" in err

    def test_not_graceful_prints_the_exception_message(self):
        with pytest.raises(NotGraceful) as info:
            construct_nk2_21(7)
        assert run_cli("construct", "nk2", "--n", "7") == (2, "", f"{info.value}\n")

    def test_n9_json_round_trip(self):
        code, out, _ = run_cli("construct", "nk2", "--n", "9", "--format", "json")
        assert code == 0
        ps, k, d = pair_system_from_json(out)
        assert (k, d) == (2, 1)
        assert ps.pairs == ((1, 8), (2, 7), (3, 11), (4, 6), (5, 14),
                            (9, 19), (10, 16), (12, 15), (13, 17))

    def test_malformed_flags(self):
        code, _, _ = run_cli("construct", "nk2", "--n", "two")
        assert code == 64

    def test_failed_self_certificate_exits_70(self, monkeypatch):
        monkeypatch.setattr(hskolem.construct, "verify_pair_system",
                            lambda ps, k, d: hskolem.VerifyReport((("x", "y"),)))
        code, out, err = run_cli("construct", "nk2", "--n", "5")
        assert (code, out) == (70, "")
        assert err.startswith("error: constructed labeling for n=5 failed certification")


class TestVerify:
    def test_paper_hooked_sequence(self):
        code, out, _ = run_cli("verify", "sequence", "--kind", "hooked",
                               "--d", "3", "--seq", "4 8 5 7 4 3 6 5 3 8 7 * 6")
        assert code == 0
        assert out == "VALID\n"

    def test_distance_violation(self):
        code, out, _ = run_cli("verify", "sequence", "--kind", "skolem",
                               "--seq", "1 2 1 2")
        assert code == 1
        assert "VIOLATION distance" in out

    def test_labeling_file(self, tmp_path):
        record = {"n": 6, "k": 2, "d": 1,
                  "pairs": [[1, 8], [2, 7], [3, 6], [4, 10], [5, 9], [11, 13]]}
        path = tmp_path / "fig1_6k2.json"
        path.write_text(json.dumps(record))
        code, out, _ = run_cli("verify", "labeling", "--file", str(path))
        assert code == 0
        assert out == "VALID\n"

    def test_unreadable_file(self):
        code, _, err = run_cli("verify", "labeling", "--file", "/nonexistent.json")
        assert code == 65

    @pytest.mark.parametrize("pairs, k", [([[1.9, 3.2]], 2), ([[1, 3]], 0),
                                          ([[1, 3]], True)])
    def test_bad_labeling_record(self, tmp_path, pairs, k):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "k": k, "d": 1, "pairs": pairs}))
        code, out, err = run_cli("verify", "labeling", "--file", str(path))
        assert code == 65
        assert out == "" and "Traceback" not in err

    def test_hooked_d_below_one_is_usage_error(self):
        code, out, err = run_cli("verify", "sequence", "--kind", "hooked",
                                 "--d", "0", "--seq", "1 1 2 * 2")
        assert code == 64
        assert out == "" and err.startswith("error: ")

    def test_bad_sequence_text(self):
        code, _, _ = run_cli("verify", "sequence", "--kind", "skolem",
                             "--seq", "1 x 1")
        assert code == 65

    def test_non_ascii_digit(self):
        code, out, err = run_cli("verify", "sequence", "--kind", "skolem",
                                 "--seq", "1 \u00b2")
        assert code == 65
        assert out == "" and err.startswith("error: ")


class TestSearch:
    def test_nk2_exists_false(self):
        code, out, _ = run_cli("search", "nk2", "--n", "3", "--k", "2",
                               "--d", "1", "--mode", "exists")
        assert code == 0
        assert out == "false\n"

    def test_skolem_count_bare_integer(self):
        code, out, _ = run_cli("search", "sequence", "--kind", "skolem",
                               "--m", "2", "--mode", "count")
        assert code == 0
        assert out.splitlines()[-1] == "0"

    def test_nk2_first(self):
        code, out, _ = run_cli("search", "nk2", "--n", "2", "--k", "2",
                               "--d", "1", "--mode", "first")
        assert code == 0
        assert out == "1-3 2-5\n"

    def test_enumerate(self):
        code, out, _ = run_cli("search", "sequence", "--kind", "hooked-skolem",
                               "--m", "2", "--mode", "enumerate")
        assert code == 0
        assert out == "1 1 2 * 2\n"

    @pytest.mark.parametrize("argv, printed", [
        (["nk2", "--n", "3", "--k", str(10**20), "--d", "1"], "false\n"),
        (["nk2", "--n", "3", "--k", "1", "--d", str(10**20), "--mode", "count"], "0\n"),
        (["sequence", "--kind", "hooked", "--m", "4", "--d", str(10**20),
          "--mode", "count"], "0\n"),
    ])
    def test_difference_past_the_span(self, argv, printed):
        # No mask is built with bit 10**20 set: the root prunes at once.
        assert run_cli("search", *argv) == (0, printed, "")

    def test_bound_exceeded(self):
        code, _, err = run_cli("search", "nk2", "--n", "11", "--k", "2",
                               "--d", "1", "--mode", "exists")
        assert code == 3
        assert "--force" in err

    def test_force(self):
        code, out, _ = run_cli("search", "nk2", "--n", "11", "--k", "2",
                               "--d", "1", "--mode", "exists", "--force")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("nk2", "--n", "0", "--k", "2", "--d", "1"),
        ("sequence", "--kind", "skolem", "--m", "0"),
        ("sequence", "--kind", "hooked", "--m", "3", "--d", "0"),
        ("nk2", "--n", "5", "--k", "2", "--d", "1", "--mode", "enumerate",
         "--limit", "0"),
        ("nk2", "--n", "5", "--k", "2", "--d", "1", "--mode", "enumerate",
         "--limit", "-1"),
        ("nk2", "--n", "5", "--k", "2", "--d", "1", "--jobs", "0"),
        ("sequence", "--kind", "skolem", "--m", "9", "--mode", "count", "--jobs", "-1"),
        ("sequence", "--kind", "skolem", "--m", "10", "--mode", "exists", "--jobs", "-1"),
    ])
    def test_bad_search_values_are_usage_errors(self, argv):
        code, out, err = run_cli("search", *argv)
        assert code == 64
        assert out == "" and err.startswith("error: ")

    def test_sequence_output_identical_across_jobs(self):
        argv = ("search", "sequence", "--kind", "hooked", "--m", "6", "--d", "3",
                "--mode", "enumerate")
        serial = run_cli(*argv)
        assert serial[0] == 0 and "*" in serial[1]
        assert run_cli(*argv, "--jobs", "2") == serial

    def test_graph_search(self, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text("p 3\n1 2\n2 3\n")
        code, out, _ = run_cli("search", "graph", "--edges", str(path),
                               "--k", "1", "--d", "1", "--mode", "first")
        assert code == 0
        assert out == "1 2 4\n"

    # search graph has no --p flag: the edge-list file states p.
    def test_graph_p_mismatch(self, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text("p 3\n1 2\n2 3\n")
        for p in ("3", "5"):
            code, out, err = run_cli("search", "graph", "--edges", str(path), "--p", p,
                                     "--k", "1", "--d", "1", "--mode", "exists")
            assert code == 64
            assert out == "" and "unrecognized arguments: --p" in err

    def test_graph_with_one_vertex_is_bad_data(self, tmp_path):
        path = tmp_path / "p1.edges"
        path.write_text("p 1\n")
        code, out, err = run_cli("search", "graph", "--edges", str(path),
                                 "--k", "1", "--d", "1")
        assert code == 65
        assert out == "" and "p >= 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "p \u0664\n1 2\n",        # Arabic-Indic 4
        "p 4\n\u0661 2\n",        # Arabic-Indic 1
        "p 4\n1 2\n3 \uff14\n",  # fullwidth 4
        "p 1_0\n1 2\n",            # int() reads 10
    ], ids=["arabic-indic-p", "arabic-indic-edge", "fullwidth-edge", "underscore-p"])
    def test_graph_with_non_ascii_digits_is_bad_data(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli("search", "graph", "--edges", str(path),
                                 "--k", "1", "--d", "1")
        assert code == 65
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["p 4 junk\n1 2\n", "p 4 5\n1 2\n"])
    def test_graph_p_line_with_extra_tokens_is_bad_data(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text)
        code, out, err = run_cli("search", "graph", "--edges", str(path),
                                 "--k", "1", "--d", "1")
        assert code == 65
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    def test_graph_too_deep_to_recurse_is_usage_error(self, tmp_path):
        path = tmp_path / "p1500.edges"
        path.write_text("p 1500\n")
        code, out, err = run_cli("search", "graph", "--edges", str(path),
                                 "--k", "1", "--d", "1", "--mode", "first", "--force")
        assert code == 64
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
        assert err.count("\n") == 1

    def test_graph_near_the_recursion_limit_is_usage_error(self, tmp_path):
        # Below the limit the search starts, runs out of stack and raises
        # the same DomainError, which the CLI maps to the same exit.
        path = tmp_path / "deep.edges"
        path.write_text(f"p {sys.getrecursionlimit() - 1}\n")
        code, out, err = run_cli("search", "graph", "--edges", str(path),
                                 "--k", "1", "--d", "1", "--mode", "first", "--force")
        assert (code, out) == (64, "")
        assert err == "error: instance too large for the search's recursion depth\n"


class TestSurvey:
    def test_21_survey(self):
        code, out, _ = run_cli("survey", "nk2", "--n-max", "8", "--k", "2",
                               "--d", "1", "--search-up-to", "8")
        assert code == 0
        lines = out.splitlines()[1:]
        yes = [int(ln.split()[0]) for ln in lines if ln.split()[2] == "true"]
        assert yes == [1, 2, 5, 6]

    def test_parity_only(self):
        code, out, _ = run_cli("survey", "nk2", "--n-max", "12", "--k", "2",
                               "--d", "1")
        assert code == 0
        lines = out.splitlines()[1:]
        assert all(ln.split()[2] == "-" for ln in lines)
        feasible = [int(ln.split()[0]) for ln in lines if ln.split()[1] == "yes"]
        assert feasible == [n for n in range(1, 13) if n % 4 in (1, 2)]

    def test_difference_past_the_span(self):
        code, out, err = run_cli("survey", "nk2", "--n-max", "5", "--k", str(10**20),
                                 "--d", "1", "--search-up-to", "3")
        assert (code, err) == (0, "")
        assert [ln.split()[2] for ln in out.splitlines()[1:]] == ["false"] * 3 + ["-"] * 2

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_is_usage_error(self, n_max):
        code, out, err = run_cli("survey", "nk2", "--n-max", n_max, "--k", "2",
                                 "--d", "1")
        assert code == 64
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    def test_n_max_above_max_order_is_usage_error(self):
        code, out, err = run_cli("survey", "nk2", "--n-max", "1000001", "--k", "2",
                                 "--d", "1")
        assert code == 64
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    # survey has no --jobs flag: every value is an unknown argument.
    @pytest.mark.parametrize("search", [[], ["--search-up-to", "3"]])
    @pytest.mark.parametrize("jobs", ["0", "-2", "2"])
    def test_jobs_below_one_is_usage_error(self, jobs, search):
        code, out, err = run_cli("survey", "nk2", "--n-max", "5", "--k", "2",
                                 "--d", "1", "--jobs", jobs, *search)
        assert code == 64
        assert out == "" and "unrecognized arguments: --jobs" in err
        assert "Traceback" not in err

    def test_contradiction_exits_70_after_the_earlier_rows(self, monkeypatch):
        monkeypatch.setattr(hskolem.search, "nk2_parity_feasible", lambda n, k, d: n < 2)
        code, out, err = run_cli("survey", "nk2", "--n-max", "4", "--k", "2",
                                 "--d", "1", "--search-up-to", "4")
        assert code == 70
        assert out.splitlines()[1:] == ["   1  yes       true"]
        assert err.startswith("error: ") and "n=2" in err

    def test_bound_exits_3_before_any_row(self):
        code, out, err = run_cli("survey", "nk2", "--n-max", "12", "--k", "2",
                                 "--d", "1", "--search-up-to", "11")
        assert code == 3
        assert out == ""
        assert err.startswith("error: search_up_to=11 exceeds bound 10")

    @pytest.mark.parametrize("search_up_to", ["-1", "-3"])
    def test_negative_search_up_to_is_usage_error_before_any_row(self, search_up_to):
        code, out, err = run_cli("survey", "nk2", "--n-max", "5", "--k", "2",
                                 "--d", "1", "--search-up-to", search_up_to)
        assert code == 64
        assert out == ""
        assert err.startswith("error: search_up_to must be non-negative")

    def test_search_up_to_above_n_max_searches_every_row(self):
        code, out, _ = run_cli("survey", "nk2", "--n-max", "5", "--k", "2",
                               "--d", "1", "--search-up-to", "11")
        assert code == 0
        assert [ln.split()[2] for ln in out.splitlines()[1:]] == [
            "true", "true", "false", "false", "true"]

    def test_small_grid_no_contradiction(self):
        code, out, _ = run_cli("survey", "nk2", "--n-max", "4", "--k", "3",
                               "--d", "2", "--search-up-to", "4")
        assert code == 0


class TestConvert:
    def test_sequence_to_pairs(self):
        code, out, _ = run_cli("convert", "--from", "sequence", "--to", "pairs",
                               "--kind", "hooked-skolem", "--in", "1 1 2 0 2")
        assert code == 0
        assert out == "1-2 3-5\n"

    def test_pairs_to_sequence_paper_example(self):
        code, out, _ = run_cli("convert", "--from", "pairs", "--to", "sequence",
                               "--kind", "hooked", "--d", "3",
                               "--in", "1-5 2-10 3-8 4-11 6-9 7-13")
        assert code == 0
        assert out == "4 8 5 7 4 3 6 5 3 8 7 * 6\n"

    def test_round_trip(self):
        pairs_text = "1-5 2-10 3-8 4-11 6-9 7-13"
        _, seq_out, _ = run_cli("convert", "--from", "pairs", "--to", "sequence",
                                "--kind", "hooked", "--d", "3", "--in", pairs_text)
        _, pairs_out, _ = run_cli("convert", "--from", "sequence", "--to", "pairs",
                                  "--kind", "hooked", "--d", "3",
                                  "--in", seq_out.strip())
        assert set(pairs_out.split()) == set(pairs_text.split())

    def test_file_input(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1 1 2 0 2")
        code, out, _ = run_cli("convert", "--from", "sequence", "--to", "pairs",
                               "--kind", "hooked-skolem", "--in", str(path))
        assert code == 0
        assert out == "1-2 3-5\n"

    def test_parse_error(self):
        code, _, _ = run_cli("convert", "--from", "sequence", "--to", "pairs",
                             "--kind", "skolem", "--in", "1 ? 1")
        assert code == 65

    @pytest.mark.parametrize("from_form, to_form, source", [
        ("pairs", "sequence", "1-\u00b2 3-5"),
        ("sequence", "pairs", "1 1 2 * \u0662"),
    ])
    def test_non_ascii_digit(self, from_form, to_form, source):
        code, out, err = run_cli("convert", "--from", from_form, "--to", to_form,
                                 "--kind", "hooked", "--d", "2", "--in", source)
        assert code == 65
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("from_form, to_form, source", [
        ("pairs", "sequence", "1-3 2-5"),
        ("sequence", "pairs", "1 1 2 * 2"),
    ])
    def test_hooked_d_below_one_is_usage_error(self, from_form, to_form, source):
        code, out, err = run_cli("convert", "--from", from_form, "--to", to_form,
                                 "--kind", "hooked", "--d", "0", "--in", source)
        assert code == 64
        assert out == "" and err.startswith("error: ")


class TestConvertCertifiesSequences:
    # A sequence that convert reads or builds must pass verify_sequence.
    @pytest.mark.parametrize("argv", [
        ["--from", "pairs", "--kind", "hooked", "--d", "5", "--in", "1-3"],
        ["--from", "pairs", "--kind", "skolem", "--in", "1-3 2-4"],
        ["--from", "sequence", "--kind", "skolem", "--in", "2 2 2 2"],
    ], ids=["hooked-value-below-d", "skolem-repeated-difference", "sequence-to-sequence"])
    def test_invalid_sequence_is_bad_data(self, argv):
        code, out, err = run_cli("convert", "--to", "sequence", *argv)
        assert code == 65 and out == ""
        assert err.startswith("error: not a valid sequence: multiplicity: ")
        assert "Traceback" not in err

    def test_invalid_sequence_to_pairs_is_bad_data(self):
        # Each value appears twice, but 2 sits at distance 3.
        code, out, err = run_cli("convert", "--from", "sequence", "--to", "pairs",
                                 "--kind", "skolem", "--in", "2 1 1 2")
        assert code == 65 and out == ""
        assert err.startswith("error: not a valid sequence: distance: ")
        assert "Traceback" not in err

    def test_long_violation_is_cut_short(self):
        code, out, err = run_cli("convert", "--from", "sequence", "--to", "sequence",
                                 "--kind", "skolem", "--in", "* " * 50_000)
        assert code == 65 and out == ""
        assert len(err.encode()) < 300 and err.startswith("error: ")

    def test_valid_sequences_still_convert(self):
        code, out, _ = run_cli("convert", "--from", "sequence", "--to", "sequence",
                               "--kind", "hooked", "--d", "3", "--in", "48574365387*6")
        assert (code, out) == (0, "4 8 5 7 4 3 6 5 3 8 7 * 6\n")


class TestUsage:
    def test_unknown_command(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 64

    def test_missing_required_flag(self):
        code, _, _ = run_cli("search", "nk2", "--n", "2")
        assert code == 64

    def test_help_prints_user_text_only(self):
        code, out, _ = run_cli("--help")
        assert code == 0
        assert {"0", "1", "2", "3", "64", "65", "70"} <= set(re.findall(r"\b\d+\b", out))
        words = " ".join(out.split())  # as argparse wrapped it, on one line
        assert "main alone" not in words and "compiles" not in words

    def test_one_public_exception_per_exit_code(self, monkeypatch):
        public = {getattr(hskolem, name) for name in hskolem.__all__}
        errors = {obj for obj in public if isinstance(obj, type) and issubclass(obj, Exception)}
        codes = {DomainError: 64, NotGraceful: 2, BoundExceeded: 3, ContradictionDetected: 70}
        assert errors == set(codes)

        for error, want in codes.items():
            def command(args):
                raise error("the message")

            monkeypatch.setitem(cli._DISPATCH, "construct", command)
            code, out, err = run_cli("construct", "nk2", "--n", "1")
            assert (code, out) == (want, ""), error
            assert "the message" in err

        def read(text):  # a reader refusing its input
            raise DomainError(text)

        monkeypatch.setitem(cli._DISPATCH, "construct",
                            lambda args: cli._parse(read, "the message"))
        assert run_cli("construct", "nk2", "--n", "1") == (65, "", "error: the message\n")


_HUGE = "x" * 100_000


class TestOversizedToken:
    # The error line quotes a bounded prefix of the bad token.
    @pytest.mark.parametrize("argv, text", [
        (["convert", "--from", "pairs", "--to", "pairs", "--in"], "[" * 100_000),
        (["convert", "--from", "sequence", "--to", "pairs", "--in"], "1 " + _HUGE),
        (["search", "graph", "--k", "1", "--d", "1", "--edges"], f"p 3\n1 {_HUGE}\n"),
        (["verify", "labeling", "--file"],
         json.dumps({"n": 1, "k": 2, "d": 1, "pairs": [[1, _HUGE]]})),
        (["convert", "--from", "pairs", "--to", "pairs", "--in"], "1-" + "1" * 100_000),
        (["convert", "--from", "sequence", "--to", "pairs", "--in"], "1" * 100_000 + "0"),
        (["convert", "--from", "pairs", "--to", "sequence", "--kind", "skolem", "--in"],
         format_pairs(construct_nk2_21(12001))),
    ], ids=["pair-token", "sequence-token", "edge-token", "json-value",
            "too-many-digits", "compact-with-zero", "position-mismatch"])
    def test_short_error(self, tmp_path, argv, text):
        path = tmp_path / "input"
        path.write_text(text)
        code, out, err = run_cli(*argv, str(path))
        assert code == 65 and out == ""
        assert len(err.encode()) < 300 and err.startswith("error: ")
        assert "Traceback" not in err


class TestUnreadableInput:
    @pytest.mark.parametrize("argv", [
        ["verify", "labeling", "--file"],
        ["search", "graph", "--k", "1", "--d", "1", "--edges"],
        ["convert", "--from", "pairs", "--to", "sequence", "--in"],
    ], ids=["verify-file", "search-edges", "convert-in"])
    def test_non_utf8_file_is_bad_data(self, tmp_path, argv):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = run_cli(*argv, str(path))
        assert code == 65
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


_SMALL = st.integers(min_value=-1, max_value=7)


@st.composite
def _records(draw):
    # pairs in either order, possibly none; n often matches their count
    pairs = draw(st.lists(st.lists(_SMALL, min_size=2, max_size=2), max_size=4))
    n = draw(st.just(len(pairs)) | _SMALL)
    return {"n": n, "k": draw(_SMALL), "d": draw(_SMALL), "pairs": pairs}


_DEEP = "[" * 100000


class TestPairSystemInput:
    # Every reader hands PairSystem the pairs as written, so a reversed pair
    # or an empty system is bad data (65) in either format.
    def run_file(self, tmp_path, text, argv):
        path = tmp_path / "input"
        path.write_text(text)
        return run_cli(*argv, str(path))

    @settings(max_examples=80, deadline=None)
    @given(_records())
    def test_json_record_exits_0_1_or_65(self, record):
        with tempfile.TemporaryDirectory() as tmp:
            for argv in (["verify", "labeling", "--file"],
                         ["convert", "--from", "pairs", "--to", "pairs", "--in"]):
                code, _, err = self.run_file(Path(tmp), json.dumps(record), argv)
                assert code in (0, 1, 65) and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "labeling", "--file"],
        ["convert", "--from", "pairs", "--to", "pairs", "--in"],
    ], ids=["verify", "convert"])
    @pytest.mark.parametrize("text", [
        '{"n": 0, "k": 1, "d": 1, "pairs": []}',
        '{"n": 1, "k": 2, "d": 1, "pairs": [[3, 1]]}',
        _DEEP,
        '{"n": ' + _DEEP,
    ], ids=["empty", "reversed", "deep", "deep-record"])
    def test_bad_record_is_bad_data(self, tmp_path, text, argv):
        code, out, err = self.run_file(tmp_path, text, argv)
        assert (code, out) == (65, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("to_form", ["pairs", "sequence"])
    def test_reversed_text_pair_is_bad_data(self, to_form):
        code, out, err = run_cli("convert", "--from", "pairs", "--to", to_form,
                                 "--kind", "skolem", "--in", "2-1")
        assert (code, out) == (65, "") and err.startswith("error: ")

    def test_lone_hook_has_no_pairs(self):
        code, out, err = run_cli("convert", "--from", "sequence", "--to", "pairs",
                                 "--kind", "skolem", "--in", "0")
        assert (code, out) == (65, "") and err.startswith("error: ")


_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs two serial commands in one fresh interpreter, then fails if hskolem
# loaded any module that only a process pool or JSON I/O needs.
_HYGIENE = """
import sys
before = set(sys.modules)
from hskolem import NotGraceful, cli, construct_nk2_21
assert cli.main(["search", "nk2", "--n", "6", "--k", "2", "--d", "1",
                 "--mode", "count"]) == 0
assert cli.main(["construct", "nk2", "--n", "9"]) == 0
loaded = sorted(set(sys.modules) - before)
lazy = [m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing", "json")]
sys.exit(f"loaded {lazy}" if lazy else 0)
"""


# Peak RSS in KB, from VmHWM: ru_maxrss would count the forking parent's
# pages, which exec carries over.
_SURVEY_RSS = """
import sys
from hskolem import NotGraceful, cli, construct_nk2_21
code = cli.main(["survey", "nk2", "--n-max", "200000", "--k", "2", "--d", "1"])
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(next(ln.split()[1] for ln in status if ln.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


# The address-space cap makes a search that builds its masks fail fast:
# without the depth check, this command took about 100 s and 2.3 GB on a
# 2-core host before the engine's RecursionError.
_HUGE_ORDER = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from hskolem import cli
sys.exit(cli.main(["search", "nk2", "--n", "2000000", "--k", "2", "--d", "1", "--force"]))
"""


def run_fresh(*args, cwd=None, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=timeout)


class TestColdProcess:
    # Each call is a new interpreter, as from the shell: the pool and json
    # are imported on first use, so these cover both import paths.
    def test_serial_calls_import_no_pool_or_json(self):
        proc = run_fresh("-c", _HYGIENE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "18\n1-8 2-7 3-11 4-6 5-14 9-19 10-16 12-15 13-17\n"

    def test_sequence_output_identical_across_jobs(self):
        argv = ["-m", "hskolem.cli", "search", "sequence", "--kind", "hooked",
                "--m", "6", "--d", "3", "--mode", "enumerate", "--jobs"]
        serial, parallel = run_fresh(*argv, "1"), run_fresh(*argv, "2")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout and parallel.stdout == serial.stdout
        assert parallel.stderr == ""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmHWM from /proc/self/status")
    def test_survey_memory_stays_flat(self):
        # survey prints each row as it goes; holding 200000 rows took
        # about 46 MB against about 16 MB for the bare interpreter.
        proc = run_fresh("-c", _SURVEY_RSS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") == 200001
        assert int(proc.stderr) < 30 * 1024  # KB

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="caps the child's address space with setrlimit")
    def test_huge_forced_order_fails_before_building_masks(self):
        proc = run_fresh("-c", _HUGE_ORDER, timeout=20)
        assert (proc.returncode, proc.stdout) == (64, "")
        assert proc.stderr == "error: instance too large for the search's recursion depth\n"

    def test_json_construct_then_verify(self, tmp_path):
        made = run_fresh("-m", "hskolem.cli", "construct", "nk2", "--n", "9",
                         "--format", "json")
        assert made.returncode == 0, made.stderr
        (tmp_path / "9k2.json").write_text(made.stdout)
        checked = run_fresh("-m", "hskolem.cli", "verify", "labeling",
                            "--file", "9k2.json", cwd=tmp_path)
        assert (checked.returncode, checked.stdout) == (0, "VALID\n")


# Runs one command in a fresh interpreter; the last line of stdout lists
# every module loaded by then.
_MODULES_AFTER = """
import sys
from hskolem import cli
code = cli.main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""

_NO_CONSTRUCT_OR_VERIFY = {"hskolem.construct", "hskolem.verify"}
_NO_SEARCH_OR_CONSTRUCT = {"hskolem.search", "hskolem.construct"}


class TestModulesPerCommand:
    # The parser and main need only core; each command imports what it
    # runs, and no command at --jobs 1 loads the process pool.
    @pytest.mark.parametrize("argv, absent", [
        (["construct", "nk2", "--n", "9"], {"hskolem.search"}),
        (["verify", "labeling", "--file", "6k2.json"], _NO_SEARCH_OR_CONSTRUCT),
        (["verify", "sequence", "--kind", "skolem", "--seq", "1 1"], _NO_SEARCH_OR_CONSTRUCT),
        (["convert", "--from", "pairs", "--to", "sequence", "--kind", "hooked", "--d", "3",
          "--in", "1-5 2-10 3-8 4-11 6-9 7-13"], _NO_SEARCH_OR_CONSTRUCT),
        (["search", "nk2", "--n", "6", "--k", "2", "--d", "1", "--mode", "count"],
         _NO_CONSTRUCT_OR_VERIFY),
        (["search", "sequence", "--kind", "skolem", "--m", "5", "--mode", "enumerate",
          "--jobs", "1"], _NO_CONSTRUCT_OR_VERIFY),
        (["search", "graph", "--edges", "path.edges", "--k", "1", "--d", "1",
          "--mode", "first"], _NO_CONSTRUCT_OR_VERIFY),
        (["survey", "nk2", "--n-max", "8", "--k", "2", "--d", "1", "--search-up-to", "6"],
         _NO_CONSTRUCT_OR_VERIFY),
    ], ids=["construct", "verify-labeling", "verify-sequence", "convert", "search-nk2",
            "search-sequence", "search-graph", "survey"])
    def test_loads_only_what_it_runs(self, tmp_path, argv, absent):
        (tmp_path / "6k2.json").write_text(json.dumps(
            {"n": 6, "k": 2, "d": 1,
             "pairs": [[1, 8], [2, 7], [3, 6], [4, 10], [5, 9], [11, 13]]}))
        (tmp_path / "path.edges").write_text("p 4\n1 2\n2 3\n3 4\n")
        proc = run_fresh("-c", _MODULES_AFTER, *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert {"hskolem.cli", "hskolem.core"} <= loaded
        assert not loaded & absent
        assert not {m.split(".")[0] for m in loaded} & {"concurrent", "multiprocessing"}


_INT = (st.integers(min_value=-2, max_value=8) | st.sampled_from([10**9, 10**20])).map(str)
_KIND = st.sampled_from(["skolem", "hooked-skolem", "hooked"])
_FORM = st.sampled_from(["pairs", "sequence"])
_SEQ_TEXT = (st.lists(st.sampled_from(["*", "0", "1", "2", "3", "4", "10", "x"]),
                      min_size=1, max_size=7).map(" ".join)
             | st.text(alphabet="01234*x", min_size=1, max_size=7))
_PAIR_TEXT = st.lists(st.tuples(_INT, _INT).map("-".join),
                      min_size=1, max_size=5).map(" ".join)


@st.composite
def _search_flags(draw):
    flags = ["--mode", draw(st.sampled_from(["exists", "first", "count", "enumerate"]))]
    if draw(st.booleans()):
        flags += ["--limit", draw(_INT)]
    return flags + ["--jobs", "1"]


# A bytes token stands for a file holding those bytes; the test writes it.
_ARGV = st.one_of(
    st.tuples(st.just(["construct", "nk2", "--n"]), _INT,
              st.sampled_from([[], ["--format", "text"], ["--format", "json"]])),
    st.tuples(st.just(["search", "nk2", "--n"]), _INT, st.just("--k"), _INT,
              st.just("--d"), _INT, _search_flags()),
    st.tuples(st.just(["search", "sequence", "--kind"]), _KIND, st.just("--m"), _INT,
              st.just("--d"), _INT, _search_flags()),
    st.tuples(st.just(["survey", "nk2", "--n-max"]), _INT, st.just("--k"), _INT,
              st.just("--d"), _INT, st.just("--search-up-to"), _INT),
    st.tuples(st.just(["verify", "sequence", "--kind"]), _KIND, st.just("--d"), _INT,
              st.just("--seq"), _SEQ_TEXT),
    st.tuples(st.just(["convert", "--from"]), _FORM, st.just("--to"), _FORM,
              st.just("--kind"), _KIND, st.just("--d"), _INT, st.just("--in"),
              _SEQ_TEXT | _PAIR_TEXT | st.binary()),
    st.tuples(st.just(["verify", "labeling", "--file"]), st.binary()),
    st.tuples(st.just(["search", "graph", "--k", "1", "--d", "1", "--edges"]), st.binary()),
).map(lambda parts: [tok for part in parts
                     for tok in (part if isinstance(part, list) else [part])])


class TestArgvFuzz:
    @settings(max_examples=60, deadline=None)
    @given(_ARGV)
    def test_exit_code_is_documented(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input")
            for tok in argv:
                if isinstance(tok, bytes):
                    Path(path).write_bytes(tok)
            code, _, _ = run_cli(*(path if isinstance(tok, bytes) else tok for tok in argv))
        assert code in {0, 1, 2, 3, 64, 65, 70}
