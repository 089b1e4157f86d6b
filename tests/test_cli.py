"""End-to-end CLI tests: exit codes, JSON round-trips, atlas, SVG."""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hotelling
from hotelling import (
    Game,
    InvalidInput,
    InvalidStrategy,
    MixedStrategy,
    PureProfile,
    PureStrategy,
    masses,
    two_player_equilibrium,
)
from hotelling.cli import _emit, main
from hotelling.equilibrium import CONDITION_NAMES
from hotelling.serialize import (
    document_text,
    mass_report_to_json,
    mixed_strategy_from_json,
    mixed_strategy_to_json,
    parse_profile_document,
    profile_document,
)

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestConstruct:
    def test_pure_odd_game(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "--game", "1,2,2", "--kind", "pure")
        assert code == 0
        assert doc["strategies"] == [["1/2"], ["1/6", "5/6"], ["1/6", "5/6"]]

    def test_mixed_dominant_game(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        code, _, _ = run(
            capsys, "construct", "--game", "1,1,4", "--kind", "mixed", "--out", str(out)
        )
        assert code == 0
        code, payoffs, _ = run_json(capsys, "payoff", "--profile", str(out))
        assert code == 0 and payoffs == ["1/8", "1/8", "3/4"]
        code, report, err = run(capsys, "payoff", "--full", "--profile", str(out))
        assert (code, report) == (2, "")
        assert err == "input error: --full needs a pure profile; mixed profiles have no single mass report\n"

    def test_pure_unavailable(self, capsys):
        code, out, err = run(capsys, "construct", "--game", "1,2", "--kind", "pure")
        assert code == 3 and "construction unavailable" in err

    def test_two_player_kind(self, capsys):
        code, doc, _ = run_json(
            capsys, "construct", "--game", "2,4", "--kind", "two-player"
        )
        assert code == 0
        assert len(doc["mixed_strategies"][0]) == 6
        assert doc["mixed_strategies"][1] == [
            {"strategy": ["1/8", "3/8", "5/8", "7/8"], "prob": "1/1"}
        ]

    def test_monopoly_mixed_unavailable(self, capsys):
        code, out, err = run(capsys, "construct", "--game", "3", "--kind", "mixed")
        assert code == 3 and out == "" and "construction unavailable" in err

    def test_bad_game_string(self, capsys):
        code, _, err = run(capsys, "construct", "--game", "1,x", "--kind", "pure")
        assert code == 2 and "input error" in err

    @pytest.mark.parametrize("game", ["1_0,1_0", "1,2_0", "\u0663,4", "1,\uff12"])
    def test_game_counts_are_plain_ascii_digits(self, capsys, game):
        # int() alone reads "1_0" as 10 and the Arabic-Indic "٣" as 3
        code, out, err = run(capsys, "construct", "--game", game, "--kind", "pure")
        assert code == 2 and out == ""
        assert err == f"input error: --game: expected comma-separated integers, got {game!r}\n"


class TestVerify:
    def test_constructed_profile_passes(self, capsys, tmp_path):
        out = tmp_path / "even.json"
        run(capsys, "construct", "--game", "2,2", "--kind", "pure", "--out", str(out))
        code, doc, err = run_json(capsys, "verify", "--profile", str(out))
        assert code == 0 and doc["verdict"] is True
        assert "[pass]" in err

    def test_unequal_masses_detected(self, capsys, tmp_path):
        doc = {
            "game": {"counts": [1, 1, 2, 2]},
            "strategies": [["1/7"], ["4/7"], ["3/7", "6/7"], ["1/7", "6/7"]],
        }
        path = tmp_path / "s4.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, "verify", "--profile", str(path))
        assert code == 1 and report["verdict"] is False
        failing = {c["id"]: c for c in report["conditions"] if not c["passed"]}
        assert set(failing) == {"T4-2"}
        assert failing["T4-2"]["witness"]["player"] == 2
        # a failing pure profile also carries a concrete beneficial deviation
        deviation = report["deviation"]
        assert deviation["player"] == 2
        assert F(deviation["gain"]) > 0
        assert all(w["side"] in ("below", "exact", "above") for w in deviation["witness"])

    def test_thirty_candidate_search_attaches_deviation(self, capsys):
        # player 0 has 30 candidates, C(30, 5) subsets: every player is
        # searched, and player 1 gains most
        code, report, _ = run_json(
            capsys,
            "verify",
            "--profile", "12/17,13/17,14/17,15/17,16/17;1/17,2/17,3/17,4/17,5/17;"
            "6/17,7/17,8/17,9/17,10/17",
        )
        assert code == 1 and report["verdict"] is False
        assert report["deviation"]["player"] == 1 and report["deviation"]["gain"] == "4/17"

    def test_eight_facilities_over_twenty_candidates_attach_deviation(self, capsys):
        # player 2's C(20, 8) = 125,970 subsets are searched like every
        # other player's
        code, out, err = run(
            capsys, "verify", "--profile", "1/12,1/6,1/4,1/3,2/3,11/12;0;0,1/12,1/4,5/12,7/12,2/3,5/6,1"
        )
        report = json.loads(out)
        assert code == 1 and report["verdict"] is False
        assert report["deviation"]["player"] == 2 and report["deviation"]["gain"] == "5/24"
        assert err == (
            "[FAIL] T4-1: no lone facility neighbors a facility of its owner\n"
            "[FAIL] T4-2: each player's facilities attract equal mass\n"
            "[FAIL] T4-3: flattened profile is a single-unit equilibrium\n"
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"game": {"counts": [True, True]}, "strategies": [["1/2"], ["1/2"]]},
            {"game": {"counts": [1, 1]}, "strategies": [[True], ["1/2"]]},
        ],
    )
    def test_booleans_rejected(self, capsys, tmp_path, doc):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--profile", str(path))
        assert code == 2 and "input error" in err

    @pytest.mark.parametrize(
        "doc,message",
        [
            pytest.param([1, 2], "document: expected a JSON object", id="not-an-object"),
            pytest.param(
                {"game": {}, "strategies": [["1/2"]]},
                "game: expected an object with a 'counts' field",
                id="no-counts",
            ),
            pytest.param(
                {"game": {"counts": "1"}, "strategies": [["1/2"]]},
                "game.counts: expected a list of integers",
                id="counts-not-a-list",
            ),
            pytest.param(
                {"game": {"counts": [1]}},
                "needs either 'strategies' or 'mixed_strategies'",
                id="no-strategies",
            ),
            pytest.param(
                {"game": {"counts": [1]}, "strategies": "1/2"},
                "profile.strategies: expected a list",
                id="strategies-not-a-list",
            ),
            pytest.param(
                {"game": {"counts": [1]}, "strategies": ["1/2"]},
                "profile.strategies[0]: expected a list",
                id="entry-not-a-list",
            ),
            pytest.param(
                {"game": {"counts": [1]}, "strategies": [[0.5]]},
                "expected a rational string, got float",
                id="float-location",
            ),
            pytest.param(
                {"game": {"counts": [1]}, "mixed_strategies": []},
                "mixed_strategies: expected a non-empty list",
                id="empty-mixed",
            ),
            pytest.param(
                {"game": {"counts": [1]}, "mixed_strategies": [[]]},
                "mixed_strategies[0]: expected a non-empty list",
                id="empty-support",
            ),
            pytest.param(
                {"game": {"counts": [1]}, "mixed_strategies": [[{"strategy": ["1/2"]}]]},
                "mixed_strategies[0][0]: expected an object with 'strategy' and 'prob'",
                id="entry-without-prob",
            ),
            pytest.param(
                {"game": {"counts": [2]}, "mixed_strategies": [[{"strategy": "01", "prob": "1/1"}]]},
                "mixed_strategies[0][0].strategy: expected a list of rationals",
                id="support-strategy-not-a-list",
            ),
            pytest.param(
                {"game": {"counts": [1, 2]}, "strategies": [["1/2"], ["1/4"]]},
                "profile shape does not match game counts",
                id="shape-mismatch",
            ),
            pytest.param(
                # the mixed part would otherwise go unread
                {"game": {"counts": [1, 1]}, "strategies": [["1/2"], ["1/2"]], "mixed_strategies": []},
                "document: give either 'strategies' or 'mixed_strategies', not both",
                id="both-strategy-kinds",
            ),
            pytest.param(
                # well formed, but verify checks mixed profiles of two players only
                {"game": {"counts": [1, 1, 4]}, "mixed_strategies": [
                    [{"strategy": ["1/8"], "prob": "1/2"}, {"strategy": ["3/8"], "prob": "1/2"}],
                    [{"strategy": ["5/8"], "prob": "1/2"}, {"strategy": ["7/8"], "prob": "1/2"}],
                    [{"strategy": ["1/8", "3/8", "5/8", "7/8"], "prob": "1/1"}],
                ]},
                "mixed verification is supported for two-player games",
                id="three-player-mixed",
            ),
        ],
    )
    def test_malformed_documents_rejected(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--profile", str(path))
        assert code == 2 and out == "" and "input error" in err and message in err

    def test_library_errors_are_input_errors(self, capsys, tmp_path):
        # an InvalidStrategy from the document and a WrongGameKind from the
        # game both read as input errors, with the one exit-2 prefix
        path = tmp_path / "decreasing.json"
        path.write_text(json.dumps({"game": {"counts": [2]}, "strategies": [["3/4", "1/4"]]}))
        code, out, err = run(capsys, "verify", "--profile", str(path))
        assert (code, out) == (2, "")
        assert err == "input error: locations must strictly increase, got 3/4 then 1/4\n"
        code, out, err = run(capsys, "construct", "--kind", "two-player", "--game", "1,1,1")
        assert (code, out) == (2, "")
        assert err == "input error: two-player construction needs exactly two players\n"

    def test_failing_two_player_profile(self, capsys, tmp_path):
        # the strong player, listed first, misses the optimal point 7/8
        doc = {
            "game": {"counts": [4, 2]},
            "mixed_strategies": [
                [{"strategy": ["1/8", "3/8", "5/8", "3/4"], "prob": "1/1"}],
                [{"strategy": ["1/8", "3/8"], "prob": "1/2"}, {"strategy": ["5/8", "7/8"], "prob": "1/2"}],
            ],
        }
        path = tmp_path / "off.json"
        path.write_text(json.dumps(doc))
        code, report, err = run_json(capsys, "verify", "--profile", str(path))
        assert code == 1 and report["verdict"] is False
        conditions = {c["id"]: c for c in report["conditions"]}
        assert conditions["C1"]["passed"] is True
        assert conditions["C2"]["witness"] == {"expected": ["1/8", "3/8", "5/8", "7/8"]}
        assert "[FAIL] C2" in err and "deviation" not in report

    def test_malformed_rational(self, capsys, tmp_path):
        doc = {"game": {"counts": [1, 1]}, "strategies": [["1/0"], ["1/2"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--profile", str(path))
        assert code == 2
        assert "strategies[0][0]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--game", "2,1", "--kind", "mixed"),
            ("construct", "--game", "4,2", "--kind", "two-player"),
        ],
    )
    def test_two_player_document_in_descending_order(self, capsys, tmp_path, argv):
        out = tmp_path / "profile.json"
        assert run(capsys, *argv, "--out", str(out))[0] == 0
        code, report, _ = run_json(capsys, "verify", "--profile", str(out))
        assert code == 0 and report["verdict"] is True


def support_entry(strategy, prob):
    return {"strategy": strategy, "prob": prob}


class TestRationals:
    @pytest.mark.parametrize(
        "support,message",
        [
            pytest.param(
                [support_entry(["1/4"], "1/3"), support_entry(["x/y"], "1/3"), support_entry(["x/y"], "1/3")],
                "mixed_strategies[0][1].strategy[0]: invalid rational 'x/y'",
                id="repeated-location",
            ),
            pytest.param(
                [support_entry(["1/4"], "1/0"), support_entry(["1/0"], "1/0")],
                "mixed_strategies[0][0].prob: invalid rational '1/0'",
                id="probability-then-location",
            ),
            pytest.param(
                [support_entry(["1/4"], "1/2"), support_entry(["3/4"], "1e-3"), support_entry(["1e-3"], "1/2")],
                "mixed_strategies[0][1].prob: invalid rational '1e-3'",
                id="repeated-exponent",
            ),
            pytest.param(
                [support_entry([1], "1/2"), support_entry([True], "1/2")],
                "mixed_strategies[0][1].strategy[0]: expected a rational string, got bool",
                id="boolean-after-equal-integer",
            ),
            pytest.param(
                # the entry's probability is read before its strategy is checked
                [support_entry(["3/4", "1/4"], "1/0")],
                "mixed_strategies[0][0].prob: invalid rational '1/0'",
                id="probability-before-strategy-fault",
            ),
        ],
    )
    def test_invalid_rational_named_at_first_occurrence(self, support, message):
        doc = {"game": {"counts": [1]}, "mixed_strategies": [support]}
        with pytest.raises(InvalidInput) as exc:
            parse_profile_document(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "support,message",
        [
            ([support_entry([True], "1/1")], "mixed_strategies[0][0].strategy[0]: expected a rational string, got bool"),
            ([support_entry(["1/2"], False)], "mixed_strategies[0][0].prob: expected a rational string, got bool"),
            ([support_entry(["1/4"], "1/2"), support_entry([0.75], "1/2")],
             "mixed_strategies[0][1].strategy[0]: expected a rational string, got float"),
            ([support_entry(["1/4"], 0.5), support_entry(["3/4"], "1/2")],
             "mixed_strategies[0][0].prob: expected a rational string, got float"),
            ([support_entry([["1/2"]], "1/1")], "mixed_strategies[0][0].strategy[0]: expected a rational string, got list"),
        ],
        ids=["bool-location", "bool-prob", "float-location", "float-prob", "list-location"],
    )
    def test_values_that_are_not_rationals(self, support, message):
        doc = {"game": {"counts": [1]}, "mixed_strategies": [support]}
        with pytest.raises(InvalidInput) as exc:
            parse_profile_document(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "support,message",
        [
            pytest.param(
                [support_entry(["3/4", "1/4"], "1/2"), support_entry(["x/y", "1/2"], "1/2")],
                "locations must strictly increase, got 3/4 then 1/4",
                id="decreasing-then-bad-location",
            ),
            pytest.param(
                [support_entry(["1/4", "3/4"], "1/2"), support_entry(["1/2", "3/2"], "1/4"),
                 support_entry(["0", "1/2"], "1/0")],
                "location 3/2 outside [0,1]",
                id="outside-then-bad-probability",
            ),
            pytest.param(
                [support_entry([], "1/2"), support_entry(["1/2", "3/4"], True)],
                "a strategy must place at least one facility",
                id="empty-then-boolean",
            ),
            pytest.param(
                [support_entry(["0", "3/2"], "1/2"), "entry"],
                "location 3/2 outside [0,1]",
                id="outside-then-malformed-entry",
            ),
        ],
    )
    def test_strategy_fault_reported_before_later_bad_rational(self, support, message):
        # entries are read in bulk, but a strategy fault in an earlier entry
        # still comes before a bad rational or entry after it
        doc = {"game": {"counts": [2]}, "mixed_strategies": [support]}
        with pytest.raises(InvalidStrategy) as exc:
            parse_profile_document(doc)
        assert str(exc.value) == message

    def test_integer_values(self):
        doc = {"game": {"counts": [2]}, "mixed_strategies": [[support_entry([0, 1], 1)]]}
        _, profile = parse_profile_document(doc)
        assert profile.strategies[0].support == ((PureStrategy.of(0, 1), F(1)),)

    def test_repeated_strings_parse_to_equal_values(self):
        doc = {"game": {"counts": [2]}, "mixed_strategies": [[
            support_entry(["0", "1/2"], "1/3"), support_entry(["1/2", 1], "2/3"),
        ]]}
        _, profile = parse_profile_document(doc)
        assert profile.strategies[0].support == (
            (PureStrategy.of(0, "1/2"), F(1, 3)), (PureStrategy.of("1/2", 1), F(2, 3)),
        )

    def test_huge_exponent_refused_at_once(self, tmp_path):
        # Fraction("1e-1000000000") builds a billion-digit integer; the child
        # process bounds the wait should the exponent ever be parsed again
        doc = {"game": {"counts": [1]}, "mixed_strategies": [[support_entry(["1/2"], "1e-1000000000")]]}
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(doc))
        script = (
            "import sys, time\n"
            "from hotelling.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(time.perf_counter() - start)\n"
            "sys.exit(code)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(hotelling.__file__).parents[1])}
        child = subprocess.run(
            [sys.executable, "-c", script, "payoff", "--profile", str(path)],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert child.returncode == 2
        assert "mixed_strategies[0][0].prob: invalid rational '1e-1000000000'" in child.stderr
        assert float(child.stdout) < 1

    def test_exponent_location_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "social-cost", "--locations", "1e-3")
        assert code == 2 and out == ""
        assert err.startswith("input error: invalid rational '1e-3': exponents are not accepted")

    def test_decimal_location_accepted(self, capsys):
        code, value, _ = run_json(capsys, "social-cost", "--locations", "0.5")
        assert code == 0 and value == "1/4"

    @pytest.mark.parametrize(
        "text,reason",
        [("1/1_0", "underscores are not accepted"), ("\u0661/4", "only ASCII characters are accepted")],
    )
    def test_underscore_and_non_ascii_locations_are_input_errors(self, capsys, tmp_path, text, reason):
        code, out, err = run(capsys, "social-cost", "--locations", text)
        assert code == 2 and out == ""
        assert err == f"input error: invalid rational {text!r}: {reason}\n"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"game": {"counts": [1, 1]}, "strategies": [["1/2"], [text]]}))
        code, out, err = run(capsys, "payoff", "--profile", str(path))
        assert code == 2 and out == ""
        assert err == f"input error: profile.strategies[1][0]: invalid rational {text!r}\n"


class TestRepeatedCalls:
    """main builds its parser once per process; consecutive calls share no state."""

    def test_full_report_then_payoffs(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"game": {"counts": [1, 1]}, "strategies": [["1/4"], ["3/4"]]}))
        code, report, _ = run_json(capsys, "payoff", "--profile", str(path), "--full")
        assert code == 0 and report["payoffs"] == ["1/2", "1/2"] and "facilities" in report
        code, payoffs, _ = run_json(capsys, "payoff", "--profile", str(path))
        assert code == 0 and payoffs == ["1/2", "1/2"]

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["payoff", "--full"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err
        code, value, err = run_json(capsys, "social-cost", "--locations", "1/2")
        assert code == 0 and value == "1/4" and err == ""

    def test_out_then_stdout(self, capsys, tmp_path):
        target = tmp_path / "cost.json"
        code, out, _ = run(capsys, "social-cost", "--locations", "1/2", "--out", str(target))
        assert code == 0 and out == "" and json.loads(target.read_text()) == "1/4"
        target.unlink()
        code, value, _ = run_json(capsys, "social-cost", "--locations", "1/6,1/2,5/6")
        assert code == 0 and value == "1/12" and not target.exists()


class TestPaths:
    @pytest.mark.parametrize(
        "kind",
        [
            "directory",
            "invalid-utf8",
            # json.loads raises RecursionError, not JSONDecodeError
            "deep-nesting",
            # json.loads raises ValueError past Python's int-string digit limit
            pytest.param(
                "huge-integer",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit"
                ),
            ),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--profile"),
            ("payoff", "--profile"),
            ("best-response", "--m", "1", "--against"),
        ],
    )
    def test_unreadable_input_is_an_input_error(self, capsys, tmp_path, argv, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "invalid-utf8":
            path.write_bytes(b"\xff\xfe")
        elif kind == "deep-nesting":
            path.write_text('{"game": ' + "[" * 100_000 + "]" * 100_000 + "}")
        else:
            path.write_text('{"game": {"counts": [' + "9" * 5_000 + ']}, "strategies": [["1/2"]]}')
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == "" and err.startswith("input error:")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("verify", "--profile", "nofile.json"), "nofile.json: no such file"),
            (("best-response", "--m", "1", "--against", ""), "got an empty string"),
            # an empty field in a comma-separated list is not skipped
            (("construct", "--game", ",2,2"), "--game: empty field in ',2,2'"),
            (("construct", "--game", "1,2,"), "--game: empty field in '1,2,'"),
            (("construct", "--game", "1, ,2"), "--game: empty field in '1, ,2'"),
            (("social-cost", "--locations", "1/6,,1/2"), "--locations: empty field in '1/6,,1/2'"),
            (("payoff", "--profile", "1/4,;3/4"), "player 0: empty field in '1/4,'"),
            (("verify", "--profile", "1/4;,3/4"), "player 1: empty field in ',3/4'"),
            (("best-response", "--m", "1", "--against", ";1/2"), "player 0 has no locations in ';1/2'"),
            (("social-cost", "--locations", ""), "social_cost needs at least one location"),
        ],
    )
    def test_missing_input_is_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "input error" in err and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--game", "2,2", "--out", "missing/x.json"),
            ("atlas", "--max-n", "3", "--out", "missing/a.csv"),
            ("atlas", "--max-n", "3", "--svg", "file"),
        ],
    )
    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        *head, target = argv
        code, _, err = run(capsys, *head, str(tmp_path / target))
        assert code == 2 and "input error" in err

    # documents smaller and larger than stdout's 8 KiB buffer
    @pytest.mark.parametrize("game", ["1,1", "400,400,400"])
    def test_closed_stdout_exits_quietly(self, game):
        read_end, write_end = os.pipe()
        os.close(read_end)
        # stdout block-buffered, as by default on a pipe
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(hotelling.__file__).parents[1])
        try:
            child = subprocess.run(
                [sys.executable, "-m", "hotelling.cli", "construct", "--game", game],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30, env=env,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (141, "")


class TestScalarCommands:
    def test_midpoint_payoff(self, capsys, tmp_path):
        doc = {"game": {"counts": [1, 1]}, "strategies": [["1/2"], ["1/2"]]}
        path = tmp_path / "mid.json"
        path.write_text(json.dumps(doc))
        code, payoffs, _ = run_json(capsys, "payoff", "--profile", str(path))
        assert code == 0 and payoffs == ["1/2", "1/2"]

    def test_social_cost(self, capsys):
        code, value, _ = run_json(capsys, "social-cost", "--locations", "1/6,1/2,5/6")
        assert code == 0 and value == "1/12"

    def test_spaces_around_fields_accepted(self, capsys):
        assert run_json(capsys, "social-cost", "--locations", " 1/6 , 1/2 ,5/6 ")[:2] == (0, "1/12")
        assert run_json(capsys, "payoff", "--profile", " 1/4 ; 3/4")[:2] == (0, ["1/2", "1/2"])
        code, doc, _ = run_json(capsys, "construct", "--game", " 1 , 2 ,2 ", "--kind", "pure")
        assert code == 0 and doc["game"]["counts"] == [1, 2, 2]

    def test_full_mass_report(self, capsys, tmp_path):
        doc = {"game": {"counts": [1, 1]}, "strategies": [["1/4"], ["3/4"]]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, "payoff", "--profile", str(path), "--full")
        assert code == 0
        assert report["payoffs"] == ["1/2", "1/2"]
        assert report["facilities"][0] == {
            "player": 0,
            "slot": 0,
            "position": "1/4",
            "mass": "1/2",
            "left": "1/4",
            "right": "1/4",
        }

    def test_best_response_inline(self, capsys):
        code, doc, _ = run_json(capsys, "best-response", "--against", "1/4", "--m", "1")
        assert code == 0
        assert doc["sup"] == "3/4" and doc["attained"] is False
        assert doc["witness"] == [{"position": "1/4", "side": "above"}]

    @pytest.mark.parametrize(
        "knob",
        [
            ("best-response", "--against", "1/4", "--m", "0"),
            ("best-response", "--against", "1/4", "--m", "-1"),
            ("atlas", "--max-n", "0"),
            ("atlas", "--max-n", "1"),
            ("atlas", "--max-n", "-3"),
        ],
    )
    def test_best_response_bad_knobs(self, capsys, knob):
        code, out, err = run(capsys, *knob)
        assert code == 2 and out == "" and "input error" in err
        if knob[0] == "atlas":  # the floor is the smallest game of two players
            assert f"--max-n must be at least 2, got {knob[-1]}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--game", "1,2,2", "--seed", "1"),
            ("payoff", "--profile", "1/4;3/4", "--grid", "5"),
            ("social-cost", "--locations", "1/2", "--cap", "9"),
            ("atlas", "--max-n", "3", "--seed", "2"),
            ("verify", "--profile", "1/4;3/4", "--grid", "5"),
            ("best-response", "--against", "1/4", "--m", "1", "--seed", "0"),
            ("best-response", "--against", "1/4", "--m", "1", "--cap", "0"),
            ("verify", "--profile", "1/4;3/4", "--cap", "0"),
            ("best-response", "--against", "1/4", "--m", "1", "--grid", "100"),
            ("best-response", "--against", "1/4", "--m", "1", "--grid", "1"),
            ("best-response", "--against", "1/4", "--m", "5", "--grid", "2"),
            ("best-response", "--against", "1/4", "--m", "1", "--grid", "16"),
        ],
    )
    def test_flag_outside_its_command_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,value",
        [
            (("atlas", "--max-n"), "\u0663"),
            (("atlas", "--max-n"), "1_0"),
            (("best-response", "--against", "1/4", "--m"), "1_0"),
            (("best-response", "--against", "1/4", "--m"), "\u0661"),
            (("atlas", "--max-n"), "1_00"),
            (("best-response", "--against", "1/4", "--m"), "\uff15"),
            (("best-response", "--against", "1/4", "--m"), "x"),
        ],
    )
    def test_integer_options_are_plain_ascii_digits(self, capsys, argv, value):
        # argparse's type=int alone reads "1_0" as 10 and the Arabic-Indic "٣" as 3
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"invalid int value: {value!r}" in captured.err

    def test_oversized_support_is_refused(self, capsys, tmp_path):
        # each player paid directly meets 101**3 = 1,030,301 opponent draws,
        # over the support cap of 10**6
        uniform = [{"strategy": [f"{i}/100"], "prob": "1/101"} for i in range(101)]
        doc = {"game": {"counts": [1, 1, 1, 1]}, "mixed_strategies": [uniform] * 4}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "payoffs.json"
        code, out, err = run(capsys, "payoff", "--profile", str(path), "--out", str(out_path))
        assert code == 4 and out == "" and "search capped" in err
        assert not out_path.exists()

    def test_oversized_witness_is_refused(self, capsys, tmp_path):
        # three candidates, but a witness of 10**6 facilities: an input
        # error before any gap filler is built, and nothing is written
        out_path = tmp_path / "response.json"
        start = time.perf_counter()
        code, out, err = run(
            capsys, "best-response", "--against", "1/2", "--m", "1000000", "--out", str(out_path)
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "input error: a witness of 1000000 facilities exceeds the limit of 100000\n"
        assert not out_path.exists()

    def test_capped_search_exit_code(self, capsys, tmp_path):
        # the opponents' 101**3 = 1,030,301 joint draws exceed the support
        # cap of 10**6: the one search cap, before any draw is built
        uniform = [{"strategy": [f"{i}/100"], "prob": "1/101"} for i in range(101)]
        doc = {"game": {"counts": [1, 1, 1]}, "mixed_strategies": [uniform] * 3}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "best-response", "--against", str(path), "--m", "5")
        assert time.perf_counter() - start < 1
        assert code == 4 and out == "" and "search capped" in err

    def test_five_facilities_over_thirty_candidates(self, capsys):
        # C(30, 5) = 142,506 candidate subsets, answered exactly
        code, doc, _ = run_json(
            capsys,
            "best-response",
            "--against", "1/17,2/17,3/17,4/17,5/17,6/17,7/17,8/17,9/17,10/17",
            "--m", "5",
        )
        assert code == 0 and doc["sup"] == "19/34" and doc["attained"] is False
        assert len(doc["witness"]) == 5


def response(sup, attained, *witness, **fields):
    """A best-response document, each witness entry written "position side";
    ``fields`` override its keys, and with ``player`` and ``gain`` it is a
    verify deviation."""
    return {
        "sup": sup,
        "attained": attained,
        "witness": [dict(zip(("position", "side"), entry.split())) for entry in witness],
        "gain": None,
        "exhaustive": True,
        **fields,
    }


def verdict(*conditions, deviation=None):
    """A verify document from each condition's id and witness, None where
    the condition passes."""
    doc = {
        "verdict": all(witness is None for _, witness in conditions),
        "conditions": [
            {"id": c, "name": CONDITION_NAMES[c], "passed": witness is None, "witness": witness}
            for c, witness in conditions
        ],
    }
    if deviation is not None:
        doc["deviation"] = deviation
    return doc


class Length:
    """Equal to any list of ``size`` entries, for an output too long to spell out."""

    def __init__(self, size):
        self.size = size

    def __eq__(self, other):
        return isinstance(other, list) and len(other) == self.size

    def __repr__(self):
        return f"Length({self.size})"


# the documents the contract cases read, named in their argv as "@name": a
# JSON document, or the construct arguments that write one
DOCUMENTS = {
    "7,14": ("construct", "--game", "7,14", "--kind", "two-player"),
    "200,200": ("construct", "--game", "200,200", "--kind", "pure"),
    # a (1,2) mixer weighing its entries 1/3 and 2/3, against a fixed player
    "weighted": {"game": {"counts": [1, 2]}, "mixed_strategies": [
        [support_entry(["1/4"], "1/3"), support_entry(["3/4"], "2/3")],
        [support_entry(["1/3", "1/2"], "1/1")],
    ]},
    # 1/2 is held in both entries, so it lies between a far pair's ends
    "shared-half": {"game": {"counts": [2]}, "mixed_strategies": [
        [support_entry(["1/4", "1/2"], "1/2"), support_entry(["1/2", "3/4"], "1/2")],
    ]},
    # no position is held in both entries, so the band holds every pair
    "quarters": {"game": {"counts": [1]}, "mixed_strategies": [
        [support_entry(["1/4"], "1/2"), support_entry(["3/4"], "1/2")],
    ]},
    # JSON integers, which the entry-by-entry decoder reads
    "integers": {"game": {"counts": [1, 1]}, "mixed_strategies": [
        [support_entry([0], 1)], [support_entry(["1/2"], "1/1")],
    ]},
    "zero-denominator": {"game": {"counts": [1, 1]}, "mixed_strategies": [
        [support_entry(["1/4"], "1/2"), support_entry(["3/4"], "1/0")],
        [support_entry(["1/2"], "1/1")],
    ]},
    # regular supports summing to 1, so they take the decoder's table route,
    # each with an entry that is not positive
    "zero-prob": {"game": {"counts": [1, 1]}, "mixed_strategies": [
        [support_entry(["1/4"], "0"), support_entry(["3/4"], "1/1")],
        [support_entry(["1/2"], "1/1")],
    ]},
    "negative-prob": {"game": {"counts": [1, 1]}, "mixed_strategies": [
        [support_entry(["1/4"], "-1/2"), support_entry(["3/4"], "3/2")],
        [support_entry(["1/2"], "1/1")],
    ]},
}

CONTRACT_CASES = [
    pytest.param(("verify", "--profile", "@7,14"), 0, verdict(("C1", None), ("C2", None)), "", id="verify-7,14"),
    pytest.param(("payoff", "--profile", "@7,14"), 0, ["1/4", "3/4"], "", id="payoff-7,14"),
    pytest.param(("best-response", "--against", "@weighted", "--m", "2"), 0,
                 response("41/72", False, "1/4 below", "3/4 above"), "", id="weighted-mixer"),
    pytest.param(("best-response", "--against", "@shared-half", "--m", "3"), 0,
                 response("3/4", False, "1/4 below", "1/2 below", "1/2 above"), "", id="far-pair-in-a-mixture"),
    pytest.param(("best-response", "--against", "@quarters", "--m", "2"), 0,
                 response("3/4", True, "1/4 exact", "3/4 exact"), "", id="full-band-m2"),
    pytest.param(("best-response", "--against", "@quarters", "--m", "3"), 0,
                 response("7/8", False, "1/4 below", "1/4 above", "3/4 below"), "", id="full-band-m3"),
    # the family holds nothing below 0 or above 1
    pytest.param(("best-response", "--against", "0,1", "--m", "1"), 0,
                 response("1/2", False, "0/1 above"), "", id="ends-m1"),
    # more facilities than the family's four candidates: the exact gap filler 1/2 joins them
    pytest.param(("best-response", "--against", "0,1", "--m", "5"), 0,
                 response("1/1", False, "0/1 exact", "0/1 above", "1/2 exact", "1/1 below", "1/1 exact"), "",
                 id="ends-padded"),
    # most pairs of candidates are far: chain breaks scored by head and tail terms alone
    pytest.param(("best-response", "--against", "@200,200", "--m", "20"), 0,
                 response("1/20", False, *(f"{F(2 * i + 1, 400)} {side}" for i in range(10)
                                           for side in ("below", "above"))), "", id="200,200-m20"),
    # the witness limit: three candidates around 1/2 and 99,997 exact gap fillers
    pytest.param(("best-response", "--against", "1/2", "--m", "100000"), 0,
                 response("1/1", False, witness=Length(100_000)), "", id="witness-limit"),
    pytest.param(("verify", "--profile", "1/4;3/4"), 1,
                 verdict(("T4-1", None), ("T4-2", None), ("T4-3", {"condition": "T3-1", "position": "1/4"}),
                         deviation=response("3/4", False, "3/4 below", player=0, gain="1/4")),
                 "", id="verify-T4-3-fails"),
    pytest.param(("verify", "--profile", "1/6,1/2;1/6,5/6;5/6"), 1,
                 verdict(("T4-1", {"player": 0, "position": "1/2", "neighbor": "1/6"}),
                         ("T4-2", {"player": 0, "position_low": "1/6", "mass_low": "1/6",
                                   "position_high": "1/2", "mass_high": "1/3"}),
                         ("T4-3", None),
                         deviation=response("2/3", False, "1/6 above", "5/6 below", player=0, gain="1/6")),
                 "", id="verify-T4-1-and-T4-2-fail"),
    # four facilities against the three candidates around 1/2: the padded
    # path, its gain paid from the search's own draws
    pytest.param(("verify", "--profile", "1/2;0,1/4,3/4,1"), 1,
                 verdict(("T4-1", {"player": 1, "position": "0/1", "neighbor": "1/4"}),
                         ("T4-2", {"player": 1, "position_low": "0/1", "mass_low": "1/8",
                                   "position_high": "1/4", "mass_high": "1/4"}),
                         ("T4-3", {"condition": "T3-1", "position": "0/1"}),
                         deviation=response("1/1", False, "1/4 exact", "1/2 below", "1/2 exact", "1/2 above",
                                            player=1, gain="1/4")),
                 "", id="verify-padded-deviation"),
    # player 1's family keeps 1/2, which player 0 also holds, and leaves out
    # player 1's own lone 3/4
    pytest.param(("verify", "--profile", "1/2;1/2,3/4"), 1,
                 verdict(("T4-1", {"player": 1, "position": "3/4", "neighbor": "1/2"}),
                         ("T4-2", {"player": 1, "position_low": "1/2", "mass_low": "5/16",
                                   "position_high": "3/4", "mass_high": "3/8"}),
                         ("T4-3", {"condition": "T3-1", "position": "3/4"}),
                         deviation=response("1/1", False, "1/2 below", "1/2 above", player=1, gain="5/16")),
                 "", id="verify-shared-point-family"),
    pytest.param(("payoff", "--profile", "@integers"), 0, ["1/4", "3/4"], "", id="integer-values"),
    pytest.param(("payoff", "--profile", "@zero-denominator"), 2, None,
                 "input error: mixed_strategies[0][1].prob: invalid rational '1/0'", id="zero-denominator-prob"),
    pytest.param(("payoff", "--profile", "@zero-prob"), 2, None,
                 "input error: probability 0 is not positive", id="zero-prob"),
    pytest.param(("payoff", "--profile", "@negative-prob"), 2, None,
                 "input error: probability -1/2 is not positive", id="negative-prob"),
]


class TestContractCases:
    """Exit codes and parsed outputs of the CLI on fixed inputs, one row
    each: a new contract case is a new row here."""

    @pytest.mark.parametrize("argv,code,stdout,stderr", CONTRACT_CASES)
    def test_case(self, capsys, tmp_path, argv, code, stdout, stderr):
        args = []
        for arg in argv:
            if arg.startswith("@"):
                source, arg = DOCUMENTS[arg[1:]], str(tmp_path / "document.json")
                if isinstance(source, tuple):
                    assert run(capsys, *source, "--out", arg)[0] == 0
                else:
                    Path(arg).write_text(json.dumps(source))
            args.append(arg)
        got_code, got, err = run_json(capsys, *args)
        assert (got_code, got) == (code, stdout)
        assert stderr in err


class TestAtlas:
    def test_small_table(self, capsys):
        code, doc, _ = run_json(capsys, "atlas", "--max-n", "3")
        assert code == 0
        rows = {tuple(r["counts"]): r for r in doc["games"]}
        assert rows[(1, 1)]["pure_exists"] is True
        assert rows[(1, 2)]["pure_exists"] is False
        assert rows[(1, 1, 1)]["pure_exists"] is False

    def test_four_facility_classification(self, capsys):
        code, doc, _ = run_json(capsys, "atlas", "--max-n", "4")
        rows = {tuple(r["counts"]): r for r in doc["games"]}
        assert rows[(1, 3)]["pure_exists"] is False
        assert rows[(2, 2)]["pure_exists"] is True
        assert rows[(1, 1, 2)]["pure_exists"] is True
        assert rows[(1, 1, 1, 1)]["pure_exists"] is True
        assert rows[(2, 2)]["verified"] is True

    def test_dominant_game_has_partition_plan(self, capsys):
        code, doc, _ = run_json(capsys, "atlas", "--max-n", "6")
        rows = {tuple(r["counts"]): r for r in doc["games"]}
        row = rows[(1, 1, 4)]
        assert row["pure_exists"] is False
        assert row["partition_plan"] == {
            "b": [2, 2],
            "blocks": [["1/8", "3/8"], ["5/8", "7/8"]],
        }

    def test_svg_and_csv_outputs(self, capsys, tmp_path):
        svg_dir = tmp_path / "plots"
        csv_path = tmp_path / "atlas.csv"
        code, _, _ = run(
            capsys,
            "atlas", "--max-n", "4",
            "--svg", str(svg_dir),
            "--out", str(csv_path),
        )
        assert code == 0
        assert (svg_dir / "game_2_2.svg").read_text().startswith("<svg")
        header = csv_path.read_text().splitlines()[0]
        assert header == "counts,n,players,dominant_player,pure_exists,reason,construction,verified,partition_plan"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--game", "1,2,2", "--kind", "pure"),
            ("construct", "--game", "2,2,3", "--kind", "pure"),
            ("construct", "--game", "1,1,4", "--kind", "mixed"),
            ("construct", "--game", "3,4", "--kind", "two-player"),
            ("construct", "--game", "4,2", "--kind", "two-player"),
        ],
    )
    def test_emitted_documents_reparse(self, capsys, argv):
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        game, profile = parse_profile_document(doc)
        assert profile_document(game, profile) == doc

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=1, max_size=4).filter(lambda c: sum(c) <= 10))
    def test_constructions_reparse_and_verify(self, counts):
        # counts in any order; N-player mixed documents are not verifiable yet
        def quiet(*argv):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return main(list(argv))

        game = ",".join(str(c) for c in counts)
        with tempfile.TemporaryDirectory() as tmp:
            for kind in ("pure", "mixed", "two-player"):
                path = Path(tmp) / f"{kind}.json"
                if quiet("construct", "--game", game, "--kind", kind, "--out", str(path)) != 0:
                    assert not (kind == "two-player" and len(counts) == 2)
                    continue
                doc = json.loads(path.read_text())
                assert profile_document(*parse_profile_document(doc)) == doc
                if kind != "mixed" or len(counts) == 2:
                    assert quiet("verify", "--profile", str(path)) == 0


# values a mutation puts in place of a document's value: wrong types,
# faulty rationals and a few valid ones
MUTANT_VALUES = [None, True, -1, 0, 1, 1.5, "1/2", "1/0", "3/2", "1e5", "", [], {}]
# keys a mutation adds to an object: the document's own and an unknown one
MUTANT_KEYS = ["game", "counts", "strategies", "mixed_strategies", "strategy", "prob", "extra"]


def json_nodes(doc, path=()):
    """Every value of a JSON document with its path of keys and indices,
    the document itself first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_nodes(value, path + (key,))


def mutated(doc, rng: random.Random):
    """A copy of ``doc`` with one value replaced, one key or entry deleted,
    one list entry duplicated, or one key added to an object."""
    doc = copy.deepcopy(doc)
    nodes = dict(json_nodes(doc))
    kind = rng.choice(["replace", "delete", "duplicate", "add"])
    if kind == "add":
        node = rng.choice([node for node in nodes.values() if isinstance(node, dict)])
        node[rng.choice(MUTANT_KEYS)] = copy.deepcopy(rng.choice(MUTANT_VALUES))
        return doc
    paths = [path for path in nodes if path and (kind != "duplicate" or isinstance(nodes[path[:-1]], list))]
    path = rng.choice(paths)
    parent, key = nodes[path[:-1]], path[-1]
    if kind == "replace":
        parent[key] = copy.deepcopy(rng.choice(MUTANT_VALUES))
    elif kind == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc


class TestMutatedDocuments:
    def test_every_mutation_exits_with_a_verdict_or_an_input_error(self, capsys, tmp_path):
        # seeded mutations of four small documents: a two-player
        # equilibrium, a partition mixture, a pure construction and a
        # (1,2) document whose mixer weighs its entries 1/3 and 2/3; verify,
        # payoff and best-response each exit 0, 1 or 2 and never raise
        docs = [
            run_json(capsys, "construct", "--game", *argv)[1]
            for argv in [("2,4", "--kind", "two-player"), ("1,1,4", "--kind", "mixed"), ("2,2,3", "--kind", "pure")]
        ]
        docs.append({"game": {"counts": [1, 2]}, "mixed_strategies": [
            [{"strategy": ["1/4"], "prob": "1/3"}, {"strategy": ["3/4"], "prob": "2/3"}],
            [{"strategy": ["1/3", "1/2"], "prob": "1/1"}],
        ]})
        rng = random.Random(33)
        path = tmp_path / "mutated.json"
        codes = set()
        for i in range(400):
            path.write_text(json.dumps(mutated(docs[i % len(docs)], rng)))
            for argv in [("verify", "--profile"), ("payoff", "--profile"), ("best-response", "--m", "2", "--against")]:
                code, _, _ = run(capsys, *argv, str(path))
                assert code in (0, 1, 2), (argv, path.read_text())
                codes.add(code)
        assert codes == {0, 1, 2}


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.text(st.characters(exclude_categories=())),  # surrogates and controls too
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@st.composite
def written_strategies(draw):
    """Mixed strategies of 1-4 locations over 1-6 entries with uneven
    weights: grids whose ends 0 and 1 are often drawn, denominators up to
    2**61 - 1, and point masses."""
    size = draw(st.integers(1, 4))
    grid = draw(st.sampled_from([1, 3, 12, 10**9 + 7, 2**61 - 1]))
    point = st.one_of(st.sampled_from([0, grid]), st.integers(0, grid))
    rows = draw(st.lists(st.lists(point, min_size=size, max_size=size, unique=True).map(sorted),
                         min_size=1, max_size=6, unique_by=tuple))
    weights = draw(st.lists(st.integers(1, 10**12), min_size=len(rows), max_size=len(rows)))
    total = sum(weights)
    return MixedStrategy(tuple(
        (tuple(F(x, grid) for x in row), F(w, total)) for row, w in zip(rows, weights)
    ))


def seeded_pure_profiles(count: int):
    """Pure profiles of 1-4 players on small grids, so that players share
    points and sit at 0 and 1."""
    rng = random.Random(7)
    for _ in range(count):
        grid = rng.choice([1, 2, 4, 6, 10])
        players = rng.randint(1, 4)
        yield PureProfile(tuple(
            PureStrategy(tuple(F(x, grid) for x in sorted(rng.sample(range(grid + 1), rng.randint(1, grid + 1)))))
            for _ in range(players)
        ))


class TestWriterBytes:
    """Every document is written byte for byte as ``json.dumps(indent=2)`` writes it."""

    @settings(max_examples=200, deadline=None)
    @given(written_strategies())
    def test_mixed_strategy_is_written_as_its_encoding(self, strategy):
        encoded = mixed_strategy_to_json(strategy)
        assert document_text(strategy) == json.dumps(encoded, indent=2)
        # nested as in a profile document, and read back into a bare table
        read = mixed_strategy_from_json(encoded)
        assert document_text({"mixed_strategies": [read, strategy]}) == json.dumps(
            {"mixed_strategies": [encoded, encoded]}, indent=2
        )

    def test_mass_reports_are_written_as_their_encoding(self):
        profiles = list(seeded_pure_profiles(150))
        assert any(len(p.strategies) == 1 for p in profiles)
        assert any(len({x for s in p.strategies for x in s}) < sum(map(len, p.strategies)) for p in profiles)
        for profile in profiles:
            report = masses(profile)
            encoded = mass_report_to_json(report)
            assert document_text(report) == json.dumps(encoded, indent=2)
            assert document_text([{"report": report}]) == json.dumps([{"report": encoded}], indent=2)

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("construct", "--game", "6,12", "--kind", "two-player"),
             lambda: profile_document(Game((6, 12)), two_player_equilibrium(Game((6, 12))))),
            (("payoff", "--full", "--profile", "0,1/4,1/2;1/4,1/2,3/4;1/2,1"),
             lambda: mass_report_to_json(masses(PureProfile.of(["0", "1/4", "1/2"], ["1/4", "1/2", "3/4"],
                                                               ["1/2", "1"])))),
            # 3,432 support entries
            (("construct", "--game", "7,14", "--kind", "two-player"),
             lambda: profile_document(Game((7, 14)), two_player_equilibrium(Game((7, 14))))),
            (("payoff", "--full", "--profile", "1/4,1/2;1/2,3/4;1/4"),
             lambda: mass_report_to_json(masses(PureProfile.of(["1/4", "1/2"], ["1/2", "3/4"], ["1/4"])))),
        ],
        ids=["construct-two-player", "payoff-full-co-located", "construct-two-player-7,14", "payoff-full-three-players"],
    )
    def test_direct_paths_write_the_encoders_bytes(self, capsys, tmp_path, argv, expected, to_file):
        text = json.dumps(expected(), indent=2) + "\n"
        if to_file:
            path = tmp_path / "out.json"
            assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
            assert path.read_bytes() == text.encode()
        else:
            assert run(capsys, *argv) == (0, text, "")

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_emit_matches_indented_dumps(self, payload):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            _emit(payload, None)
        assert sink.getvalue() == json.dumps(payload, indent=2) + "\n"

    def test_edge_values(self, tmp_path):
        payload = {
            "empty": [[], {}, ""],
            "nested": [[[1, [2, {}]]], {"a": {"b": [None]}}],
            "text": ["caf\u00e9", "\u2603", "\U0001f600", "\x00\x1f\t\n\"\\/", "\ud800"],
            "ints": [0, -1, 2**100, -(2**100)],
            "flags": [True, False, None],
        }
        path = tmp_path / "out.json"
        _emit(payload, str(path))
        assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--game", "1,2,2", "--kind", "pure"),
            ("construct", "--game", "1,1,4", "--kind", "mixed"),
            ("construct", "--game", "3,5", "--kind", "two-player"),
            ("verify", "--profile", "1/7;4/7;3/7,6/7;1/7,6/7"),
            ("payoff", "--full", "--profile", "1/7;4/7;3/7,6/7;1/7,6/7"),
            ("payoff", "--profile", "1/4;1/2,3/4"),
            ("social-cost", "--locations", "1/6,1/2,5/6"),
            ("best-response", "--against", "1/4", "--m", "2"),
            ("atlas", "--max-n", "5"),
        ],
    )
    def test_command_stdout_is_indented_dumps(self, capsys, argv):
        _, out, _ = run(capsys, *argv)
        document = json.loads(out)
        assert out == json.dumps(document, indent=2) + "\n"
        if argv[0] == "verify":
            assert document["verdict"] is False and "deviation" in document
            assert any(c["witness"] for c in document["conditions"])
        if argv[0] == "best-response":
            assert document["gain"] is None
