import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from hskolem import cli
from hskolem.core import pair_system_from_json


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

    def test_graph_p_mismatch(self, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text("p 3\n1 2\n2 3\n")
        code, _, _ = run_cli("search", "graph", "--edges", str(path), "--p", "5",
                             "--k", "1", "--d", "1", "--mode", "exists")
        assert code == 65


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
        ("pairs", "sequence", "1-3 2-5"),
        ("sequence", "pairs", "1 1 2 * 2"),
    ])
    def test_hooked_d_below_one(self, from_form, to_form, source):
        code, out, err = run_cli("convert", "--from", from_form, "--to", to_form,
                                 "--kind", "hooked", "--d", "0", "--in", source)
        assert code == 65
        assert out == "" and err.startswith("error: ")


class TestUsage:
    def test_unknown_command(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 64

    def test_missing_required_flag(self):
        code, _, _ = run_cli("search", "nk2", "--n", "2")
        assert code == 64


_INT = st.integers(min_value=-2, max_value=8).map(str)
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


_ARGV = st.one_of(
    st.tuples(st.just(["construct", "nk2", "--n"]), _INT,
              st.sampled_from([[], ["--format", "text"], ["--format", "json"]])),
    st.tuples(st.just(["search", "nk2", "--n"]), _INT, st.just("--k"), _INT,
              st.just("--d"), _INT, _search_flags()),
    st.tuples(st.just(["search", "sequence", "--kind"]), _KIND, st.just("--m"), _INT,
              st.just("--d"), _INT, _search_flags()),
    st.tuples(st.just(["survey", "nk2", "--n-max"]), _INT, st.just("--k"), _INT,
              st.just("--d"), _INT, st.just("--search-up-to"), _INT,
              st.just(["--jobs", "1"])),
    st.tuples(st.just(["verify", "sequence", "--kind"]), _KIND, st.just("--d"), _INT,
              st.just("--seq"), _SEQ_TEXT),
    st.tuples(st.just(["convert", "--from"]), _FORM, st.just("--to"), _FORM,
              st.just("--kind"), _KIND, st.just("--d"), _INT, st.just("--in"),
              _SEQ_TEXT | _PAIR_TEXT),
).map(lambda parts: [tok for part in parts
                     for tok in (part if isinstance(part, list) else [part])])


class TestArgvFuzz:
    @settings(max_examples=60, deadline=None)
    @given(_ARGV)
    def test_exit_code_is_documented(self, argv):
        code, _, _ = run_cli(*argv)
        assert code in {0, 1, 2, 3, 64, 65, 70}
