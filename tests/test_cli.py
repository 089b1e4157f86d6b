"""End-to-end CLI tests: exit codes, JSON round-trips, atlas, SVG."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hotelling
from hotelling import InvalidInput, PureStrategy
from hotelling.cli import main
from hotelling.serialize import parse_profile_document, profile_document

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

    def test_refused_search_leaves_out_deviation(self, capsys):
        # player 0 has 30 candidates, C(30, 5) subsets: the refutation
        # search is refused, and the structural verdict stands alone
        code, report, _ = run_json(
            capsys,
            "verify",
            "--profile", "12/17,13/17,14/17,15/17,16/17;1/17,2/17,3/17,4/17,5/17;"
            "6/17,7/17,8/17,9/17,10/17",
        )
        assert code == 1 and report["verdict"] is False
        assert "deviation" not in report

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
        ],
    )
    def test_malformed_documents_rejected(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--profile", str(path))
        assert code == 2 and out == "" and "input error" in err and message in err

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
        ],
    )
    def test_invalid_rational_named_at_first_occurrence(self, support, message):
        doc = {"game": {"counts": [1]}, "mixed_strategies": [support]}
        with pytest.raises(InvalidInput) as exc:
            parse_profile_document(doc)
        assert str(exc.value) == message

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
    @pytest.mark.parametrize("kind", ["directory", "invalid-utf8"])
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
        else:
            path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, *argv, str(path))
        assert code == 2 and "input error" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("verify", "--profile", "nofile.json"), "nofile.json: no such file"),
            (("best-response", "--m", "1", "--against", ""), "got an empty string"),
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

    def test_best_response_grid_cross_check(self, capsys):
        code, doc, _ = run_json(
            capsys, "best-response", "--against", "1/4", "--m", "1", "--grid", "100"
        )
        assert code == 0
        assert F(doc["grid_max"]) <= F(doc["sup"])

    @pytest.mark.parametrize(
        "knob",
        [
            ("best-response", "--against", "1/4", "--m", "0"),
            ("best-response", "--against", "1/4", "--m", "1", "--grid", "1"),
            ("best-response", "--against", "1/4", "--m", "5", "--grid", "2"),
        ],
    )
    def test_best_response_bad_knobs(self, capsys, knob):
        code, _, err = run(capsys, *knob)
        assert code == 2 and "input error" in err

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
        ],
    )
    def test_flag_outside_its_command_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_oversized_support_is_refused(self, capsys, tmp_path):
        # 101**3 = 1,030,301 joint draws exceed the support cap of 10**6
        uniform = [{"strategy": [f"{i}/100"], "prob": "1/101"} for i in range(101)]
        doc = {"game": {"counts": [1, 1, 1]}, "mixed_strategies": [uniform] * 3}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "payoffs.json"
        code, out, err = run(capsys, "payoff", "--profile", str(path), "--out", str(out_path))
        assert code == 4 and out == "" and "search capped" in err
        assert not out_path.exists()

    def test_capped_search_exit_code(self, capsys):
        # C(30, 5) = 142,506 candidate subsets exceed the search cap
        code, out, err = run(
            capsys,
            "best-response",
            "--against", "1/17,2/17,3/17,4/17,5/17,6/17,7/17,8/17,9/17,10/17",
            "--m", "5",
        )
        assert code == 4 and out == "" and "search capped" in err


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
        assert header.startswith("counts,")


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
