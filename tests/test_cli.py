"""Vote-file grammar, result documents, subcommands, and exit codes."""

import io
import json
import pathlib
import random
import time

import pytest

from kemeny.cli import parse_votes, run, serialize_profile
from kemeny.errors import InputError
from kemeny.instances import (
    fifty_fifty_profile,
    five_type_profile,
    random_profile,
)
DATA = pathlib.Path(__file__).parent / "data"
FIVE = str(DATA / "five_type.votes")
FIFTY = str(DATA / "fifty_fifty.votes")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_single_pair_vote(self):
        profile = parse_votes("candidates: A,B\nA<B\n")
        assert profile.m == 1
        vote, mult = profile.votes[0]
        assert mult == 1 and vote.lt(0, 1)

    def test_bucket_vote_groups_and_orders(self):
        profile = parse_votes("candidates: A,B,C\nA=B<C\n")
        vote, _ = profile.votes[0]
        assert vote.incomparable(0, 1) and vote.lt(0, 2) and vote.lt(1, 2)

    def test_pairs_syntax_with_closure(self):
        profile = parse_votes("candidates: A,B,C\npairs: A<B, B<C\n")
        vote, _ = profile.votes[0]
        assert vote.lt(0, 2)

    def test_five_type_file(self):
        profile = parse_votes(pathlib.Path(FIVE).read_text())
        assert profile.m == 90  # the table's multiplicities sum to 90
        assert profile.votes == five_type_profile().votes

    def test_cycle_rejected_with_line_number(self):
        with pytest.raises(InputError, match="line 2"):
            parse_votes("candidates: A,B\npairs: A<B, B<A\n")

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError, match="line 2"):
            parse_votes("candidates: A,B\nA<Z\n")

    def test_empty_profile_rejected(self):
        with pytest.raises(InputError):
            parse_votes("candidates: A,B\n")
        with pytest.raises(InputError):
            parse_votes("")

    def test_missing_header_rejected(self):
        with pytest.raises(InputError, match="candidates"):
            parse_votes("A<B\n")

    def test_repeated_candidate_in_vote_rejected(self):
        with pytest.raises(InputError, match="line 2"):
            parse_votes("candidates: A,B\nA=A<B\n")

    def test_chained_pair_shorthand(self):
        profile = parse_votes("candidates: A,B,C\npairs: A<B<C\n")
        vote, _ = profile.votes[0]
        assert vote.lt(0, 1) and vote.lt(1, 2) and vote.lt(0, 2)


class TestRoundTrip:
    def test_fixture_files_round_trip(self):
        for profile in (five_type_profile(), fifty_fifty_profile()):
            text = serialize_profile(profile)
            again = parse_votes(text)
            assert again.votes == profile.votes
            assert serialize_profile(again) == text

    def test_random_profiles_round_trip(self):
        rng = random.Random(71)
        for _ in range(25):
            profile = random_profile(rng.randint(2, 6), rng.randint(1, 4), rng)
            text = serialize_profile(profile)
            assert parse_votes(text).votes == profile.votes


class TestSubcommands:
    def test_solve_five_type_golden(self):
        code, out, err = invoke(["solve", FIVE])
        assert code == 0 and err == ""
        assert out == (
            "result: solve\n"
            "n: 5\n"
            "m: 90\n"
            "unanimity-width: 3\n"
            "decision: yes\n"
            "optimum: 10\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 10\n"
        )

    def test_diverse_yes_and_no(self):
        code, out, _ = invoke(
            ["diverse", FIFTY, "--r", "2", "--delta", "0", "--d", "1", "--s", "1"]
        )
        assert code == 0
        assert out == (
            "result: diverse\n"
            "n: 5\n"
            "m: 100\n"
            "unanimity-width: 1\n"
            "r: 2\n"
            "delta: 0\n"
            "d: 1\n"
            "s: 1\n"
            "optimum: 50\n"
            "decision: yes\n"
            "diversity: 1\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 50\n"
            "witness-2: A<B<D<C<E\n"
            "score-2: 50\n"
            "distance-1-2: 1\n"
        )
        code, out, _ = invoke(
            ["diverse", FIFTY, "--r", "3", "--delta", "0", "--d", "1", "--s", "1"]
        )
        assert code == 1
        assert out == (
            "result: diverse\n"
            "n: 5\n"
            "m: 100\n"
            "unanimity-width: 1\n"
            "r: 3\n"
            "delta: 0\n"
            "d: 1\n"
            "s: 1\n"
            "optimum: 50\n"
            "decision: no\n"
            "failed-constraint: scatteredness\n"
            "detail: best achievable minimum pairwise distance within the cost "
            "window is 0, required 1\n"
        )

    def test_diverse_timeout_aborts_promptly(self, tmp_path):
        # 295 240 initial three-solution combinations, about 5 s to build
        votes = str(tmp_path / "wide.votes")
        invoke(["gen", "buckets", "--sizes", "5,5,5", "--m", "20", "--noise", "1",
                "--seed", "1", "--out", votes])
        start = time.monotonic()
        code, _, err = invoke(
            ["diverse", votes, "--r", "3", "--delta", "2", "--d", "3",
             "--timeout", "0.2"]
        )
        assert code == 3 and "timeout" in err
        assert time.monotonic() - start < 1.5

    def test_no_scatter_flag_fixes_s_to_one(self):
        code, out, _ = invoke(
            ["diverse", FIFTY, "--r", "2", "--d", "1", "--no-scatter", "--s", "2"]
        )
        assert code == 0
        assert "s: 1\n" in out

    def test_optima_counts(self):
        header = (
            "result: optima\n"
            "n: 5\n"
            "m: 100\n"
            "unanimity-width: 1\n"
        )
        assert invoke(["optima", FIFTY, "--r", "2"]) == (0, header + (
            "r: 2\n"
            "optimum: 50\n"
            "decision: yes\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 50\n"
            "witness-2: A<B<D<C<E\n"
            "score-2: 50\n"
        ), "")
        assert invoke(["optima", FIFTY, "--r", "3"]) == (1, header + (
            "r: 3\n"
            "optimum: 50\n"
            "decision: no\n"
            "detail: fewer than 3 distinct optimal rankings\n"
        ), "")

    def test_maxdiv_reports_exact_diversity(self):
        code, out, _ = invoke(["maxdiv", FIFTY, "--r", "2", "--delta", "0"])
        assert code == 0
        assert out == (
            "result: maxdiv\n"
            "n: 5\n"
            "m: 100\n"
            "unanimity-width: 1\n"
            "r: 2\n"
            "delta: 0\n"
            "optimum: 50\n"
            "decision: yes\n"
            "diversity: 1\n"
            "witness-1: A<B<C<D<E\n"
            "score-1: 50\n"
            "witness-2: A<B<D<C<E\n"
            "score-2: 50\n"
            "distance-1-2: 1\n"
        )

    def test_maxdiv_prints_each_witness_once(self, tmp_path):
        # a chain has one extension, so both selected rankings coincide
        votes = tmp_path / "chain.votes"
        votes.write_text("candidates: A,B,C\nA<B<C\n")
        code, out, _ = invoke(["maxdiv", str(votes), "--r", "2"])
        assert code == 0
        assert "diversity: 0\n" in out
        assert out.count("witness-") == 1 and "witness-1: A<B<C\n" in out
        assert "distance-" not in out

    def test_pco_decisions(self):
        header = (
            "result: pco\n"
            "n: 5\n"
            "m: 100\n"
        )
        assert invoke(["pco", FIFTY, "--k", "50"]) == (0, header + (
            "budget: 50\n"
            "incomparable-pairs: 1\n"
            "unanimity-width: 1\n"
            "optimum: 50\n"
            "decision: yes\n"
            "witness-1: A<B<D<C<E\n"
            "score-1: 50\n"
        ), "")
        assert invoke(["pco", FIFTY, "--k", "49"]) == (1, header + (
            "budget: 49\n"
            "incomparable-pairs: 1\n"
            "unanimity-width: 1\n"
            "optimum: 50\n"
            "decision: no\n"
        ), "")
        assert invoke(["pco", FIFTY, "--k", "0"]) == (1, header + (
            "budget: 0\n"
            "incomparable-pairs: 1\n"
            "decision: no\n"
            "detail: rejected by the edge-count bound\n"
        ), "")
        code, _, err = invoke(["pco", FIVE, "--k", "10"])
        assert code == 2 and "positive" in err

    def test_oracle_tasks(self):
        code, out, _ = invoke(["oracle", FIVE, "--task", "optimum"])
        assert code == 0
        assert "optimum: 10\n" in out and "minimizers: 2\n" in out
        code, out, _ = invoke(["oracle", FIFTY, "--task", "count"])
        assert "extensions: 2\n" in out

    def test_gen_round_trips_and_solves(self, tmp_path):
        target = tmp_path / "g.votes"
        code, _, _ = invoke(
            ["gen", "buckets", "--sizes", "2,2", "--m", "4", "--noise", "1",
             "--seed", "3", "--out", str(target)]
        )
        assert code == 0
        code, out, _ = invoke(["solve", str(target)])
        assert code == 0 and "decision: yes" in out

    def test_gen_fixture_matches_checked_in_file(self):
        code, out, _ = invoke(["gen", "fixture", "--name", "fifty-fifty"])
        assert code == 0
        assert parse_votes(out).votes == fifty_fifty_profile().votes

    def test_json_output_is_valid_and_complete(self):
        code, out, _ = invoke(["maxdiv", FIFTY, "--r", "2", "--json"])
        assert code == 0
        assert out == (
            "{\n"
            '  "decision": "yes",\n'
            '  "delta": 0,\n'
            '  "distance-1-2": 1,\n'
            '  "diversity": 1,\n'
            '  "m": 100,\n'
            '  "n": 5,\n'
            '  "optimum": 50,\n'
            '  "r": 2,\n'
            '  "result": "maxdiv",\n'
            '  "score-1": 50,\n'
            '  "score-2": 50,\n'
            '  "unanimity-width": 1,\n'
            '  "witness-1": "A<B<C<D<E",\n'
            '  "witness-2": "A<B<D<C<E"\n'
            "}\n"
        )
        payload = json.loads(out)
        assert payload["decision"] == "yes"

    def test_input_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.votes"
        bad.write_text("candidates: A,B\npairs: A<B, B<A\n")
        code, _, err = invoke(["solve", str(bad)])
        assert code == 2 and "line 2" in err

    def test_missing_file_exit_code(self):
        code, _, err = invoke(["solve", "/nonexistent/file.votes"])
        assert code == 2

    def test_timeout_exit_code(self):
        code, _, err = invoke(["solve", FIVE, "--timeout", "0"])
        assert code == 3 and "timeout" in err


# The witnesses depend on how ties between optima break (3,3,3 has 18 optima
# and prints A<C<B<F<E<D<H<I<G, not the lexicographically smallest one), so
# any change to the order in which states are built or kept shows up here.
TIE_GOLDENS = [
    ("3,3,3", "solve", 0, (
        "result: solve\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "decision: yes\n"
        "optimum: 24\n"
        "witness-1: A<C<B<F<E<D<H<I<G\n"
        "score-1: 24\n"
    )),
    ("3,3,3", "optima --r 3", 0, (
        "result: optima\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "r: 3\n"
        "optimum: 24\n"
        "decision: yes\n"
        "witness-1: A<B<C<F<E<D<H<I<G\n"
        "score-1: 24\n"
        "witness-2: A<C<B<F<E<D<H<I<G\n"
        "score-2: 24\n"
        "witness-3: B<A<C<F<E<D<H<I<G\n"
        "score-3: 24\n"
    )),
    ("3,3,3", "maxdiv --r 2 --delta 1", 0, (
        "result: maxdiv\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "r: 2\n"
        "delta: 1\n"
        "optimum: 24\n"
        "decision: yes\n"
        "diversity: 5\n"
        "witness-1: A<C<B<F<E<D<G<H<I\n"
        "score-1: 24\n"
        "witness-2: B<A<C<F<D<E<H<I<G\n"
        "score-2: 24\n"
        "distance-1-2: 5\n"
    )),
    ("3,3,3", "diverse --r 2 --delta 1 --d 4", 0, (
        "result: diverse\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 2\n"
        "r: 2\n"
        "delta: 1\n"
        "d: 4\n"
        "s: 1\n"
        "optimum: 24\n"
        "decision: yes\n"
        "diversity: 4\n"
        "witness-1: A<C<B<F<E<D<H<I<G\n"
        "score-1: 24\n"
        "witness-2: B<A<C<F<D<E<H<G<I\n"
        "score-2: 24\n"
        "distance-1-2: 4\n"
    )),
    ("4,3,2", "solve", 0, (
        "result: solve\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "decision: yes\n"
        "optimum: 26\n"
        "witness-1: C<B<D<A<G<E<F<I<H\n"
        "score-1: 26\n"
    )),
    ("4,3,2", "optima --r 3", 0, (
        "result: optima\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 3\n"
        "optimum: 26\n"
        "decision: yes\n"
        "witness-1: C<B<D<A<E<G<F<I<H\n"
        "score-1: 26\n"
        "witness-2: C<B<D<A<G<E<F<I<H\n"
        "score-2: 26\n"
        "witness-3: C<B<D<A<G<F<E<I<H\n"
        "score-3: 26\n"
    )),
    ("4,3,2", "maxdiv --r 2 --delta 1", 0, (
        "result: maxdiv\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 2\n"
        "delta: 1\n"
        "optimum: 26\n"
        "decision: yes\n"
        "diversity: 2\n"
        "witness-1: C<B<D<A<E<G<F<I<H\n"
        "score-1: 26\n"
        "witness-2: C<B<D<A<G<F<E<I<H\n"
        "score-2: 26\n"
        "distance-1-2: 2\n"
    )),
    ("4,3,2", "diverse --r 2 --delta 1 --d 4", 1, (
        "result: diverse\n"
        "n: 9\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 2\n"
        "delta: 1\n"
        "d: 4\n"
        "s: 1\n"
        "optimum: 26\n"
        "decision: no\n"
        "failed-constraint: diversity\n"
        "detail: best achievable diversity within the cost window is 2, required 4\n"
    )),
    ("4,4", "solve", 0, (
        "result: solve\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "decision: yes\n"
        "optimum: 27\n"
        "witness-1: A<B<C<D<E<H<G<F\n"
        "score-1: 27\n"
    )),
    ("4,4", "optima --r 3", 0, (
        "result: optima\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 3\n"
        "optimum: 27\n"
        "decision: yes\n"
        "witness-1: A<B<D<C<E<H<G<F\n"
        "score-1: 27\n"
        "witness-2: B<A<D<C<E<H<G<F\n"
        "score-2: 27\n"
        "witness-3: B<D<A<C<E<H<G<F\n"
        "score-3: 27\n"
    )),
    ("4,4", "maxdiv --r 2 --delta 1", 0, (
        "result: maxdiv\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 2\n"
        "delta: 1\n"
        "optimum: 27\n"
        "decision: yes\n"
        "diversity: 3\n"
        "witness-1: A<B<C<D<E<H<G<F\n"
        "score-1: 27\n"
        "witness-2: B<D<A<C<E<H<G<F\n"
        "score-2: 27\n"
        "distance-1-2: 3\n"
    )),
    ("4,4", "diverse --r 2 --delta 1 --d 4", 1, (
        "result: diverse\n"
        "n: 8\n"
        "m: 6\n"
        "unanimity-width: 3\n"
        "r: 2\n"
        "delta: 1\n"
        "d: 4\n"
        "s: 1\n"
        "optimum: 27\n"
        "decision: no\n"
        "failed-constraint: diversity\n"
        "detail: best achievable diversity within the cost window is 3, required 4\n"
    )),
]


class TestTieSensitiveGoldens:
    @pytest.mark.parametrize(
        "sizes,query,code,text", TIE_GOLDENS,
        ids=[f"{g[0]} {g[1]}" for g in TIE_GOLDENS],
    )
    def test_bucket_profile_output(self, tmp_path, sizes, query, code, text):
        votes = str(tmp_path / "b.votes")
        invoke(["gen", "buckets", "--sizes", sizes, "--m", "6", "--noise", "1",
                "--seed", "1", "--out", votes])
        command, *flags = query.split()
        assert invoke([command, votes, *flags]) == (code, text, "")


class TestValidateDecomposition:
    def test_dump_then_validate(self, tmp_path):
        dump = tmp_path / "five.dec"
        code, _, _ = invoke(["solve", FIVE, "--dump-decomposition", str(dump)])
        assert code == 0
        code, out, _ = invoke(
            ["validate-decomposition", FIVE, "--decomposition", str(dump)]
        )
        assert code == 0
        assert "valid: yes" in out

    def test_broken_dump_rejected(self, tmp_path):
        dump = tmp_path / "broken.dec"
        dump.write_text("A B\nD E\n")  # misses vertices and edges
        code, out, _ = invoke(
            ["validate-decomposition", FIVE, "--decomposition", str(dump)]
        )
        assert code == 1
        assert "valid: no" in out and "problem-1" in out


class TestDeterminism:
    COMMANDS = [
        ["solve", FIVE],
        ["solve", FIVE, "--json"],
        ["diverse", FIFTY, "--r", "2", "--d", "1", "--s", "1"],
        ["optima", FIFTY, "--r", "2"],
        ["maxdiv", FIFTY, "--r", "2", "--json"],
        ["pco", FIFTY, "--k", "50"],
        ["oracle", FIVE, "--task", "optimum"],
        ["gen", "random", "--n", "5", "--m", "4", "--seed", "12"],
        ["gen", "buckets", "--sizes", "3,2", "--m", "3", "--noise", "2", "--seed", "4"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
    def test_two_runs_byte_identical(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second
