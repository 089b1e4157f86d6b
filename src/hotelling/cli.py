"""Command-line front end.

Exit codes are a stable contract: 0 success / verdict true, 1 verdict
false, 2 input error (among them a best response of fewer than one or
more than 10^5 facilities), 3 construction unavailable, 4 search capped
(an expectation or a search that would enumerate more than 10^6 opponent
draws is refused and nothing is written), 141 stdout closed by its reader
(128 + SIGPIPE, as a shell reports a writer SIGPIPE killed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path

from . import equilibrium as eq
from . import serialize as ser
from .core import Game, PureProfile, PureStrategy, _plain, as_fraction, has_dominant_player
from .errors import (
    ConstructionUnavailable,
    HotellingError,
    InvalidInput,
    InvalidStrategy,
    SupportTooLarge,
)
from .mixed import MixedProfile, mixed_payoff
from .oracle import best_response, certify_no_deviation
from .payoff import masses, social_cost
from .svg import render_profile

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_UNAVAILABLE = 3
EXIT_CAPPED = 4
EXIT_BROKEN_PIPE = 141


def _fields(text: str, name: str) -> list[str]:
    """The comma-separated fields of ``text``, spaces around each stripped.

    A blank text has no fields. An empty field is an input error rather
    than skipped: ",2,2" is not the game "2,2", nor "1,2," the game "1,2".
    """
    if not text.strip():
        return []
    fields = [part.strip() for part in text.split(",")]
    if "" in fields:
        raise InvalidInput(f"{name}: empty field in {text!r}")
    return fields


def _parse_game(text: str) -> Game:
    try:
        counts = [int(part) for part in _fields(_plain(text), "--game")]
    except ValueError as exc:
        raise InvalidInput(f"--game: expected comma-separated integers, got {text!r}") from exc
    return Game(tuple(counts))


def _count(text: str) -> int:
    """argparse type of ``--m`` and ``--max-n``: ``--game``'s integers.

    Refuses what ``int`` alone would read, "1_0" and "٣", as argparse refuses
    a non-integer: a usage error, exit 2.
    """
    try:
        return int(_plain(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_inline_profile(text: str) -> PureProfile:
    strategies = []
    for i, chunk in enumerate(text.split(";")):
        locs = _fields(chunk, f"player {i}")
        if not locs:
            raise InvalidInput(f"player {i} has no locations in {text!r}")
        strategies.append(PureStrategy(tuple(as_fraction(x) for x in locs)))
    return PureProfile(tuple(strategies))


def _load_document(path_or_inline: str):
    if not path_or_inline:  # Path("") is the current directory
        raise InvalidInput("expected a profile document path or an inline profile, got an empty string")
    path = Path(path_or_inline)
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits or too deep
            raise InvalidInput(f"{path}: not valid JSON ({exc})") from exc
        return ser.parse_profile_document(data)
    try:
        profile = _parse_inline_profile(path_or_inline)
    except (InvalidInput, InvalidStrategy) as exc:
        raise InvalidInput(f"{path_or_inline}: no such file, and not an inline profile ({exc})") from exc
    game = Game(tuple(len(s) for s in profile.strategies))
    return game, profile


def _emit(payload, out: str | None) -> None:
    text = ser.document_text(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text, flush=True)  # a closed reader then fails inside main, not at exit


def cmd_construct(args: argparse.Namespace) -> int:
    game = _parse_game(args.game)
    if args.kind == "pure":
        profile = eq.construct_pure(game)
    elif args.kind == "mixed":
        if has_dominant_player(game) is None:
            raise ConstructionUnavailable(
                "mixed construction targets games with a dominant player; "
                "use --kind pure instead"
            )
        plan = eq.find_partition(game)
        if plan is None:
            raise ConstructionUnavailable(
                "no integral block partition exists for this game"
            )
        profile = eq.construct_mixed(game, plan)
    else:  # two-player
        profile = eq.two_player_equilibrium(game)
    _emit(ser._profile_tree(game, profile), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    game, profile = _load_document(args.profile)
    if isinstance(profile, PureProfile):
        report = eq.verify_multi_unit(game, profile)
    else:
        if game.num_players != 2:
            raise InvalidInput("mixed verification is supported for two-player games")
        report = eq.verify_two_player(game, *profile.strategies)
    payload = ser.report_to_json(report)
    if not report.verdict and isinstance(profile, PureProfile):
        # attach the strongest refutation: a concrete beneficial deviation
        results = certify_no_deviation(game, profile)
        player = max(range(game.num_players), key=lambda i: results[i].gain)
        payload["deviation"] = {"player": player, **ser.deviation_to_json(results[player])}
    _emit(payload, args.out)
    for cond in report.conditions:
        status = "pass" if cond.passed else "FAIL"
        print(f"[{status}] {cond.condition}: {eq.CONDITION_NAMES[cond.condition]}", file=sys.stderr)
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


def cmd_payoff(args: argparse.Namespace) -> int:
    game, profile = _load_document(args.profile)
    if isinstance(profile, PureProfile):
        report = masses(profile)
        if args.full:
            _emit(report, args.out)
            return EXIT_OK
        payoffs = report.payoffs
    else:
        if args.full:
            raise InvalidInput("--full needs a pure profile; mixed profiles have no single mass report")
        payoffs = mixed_payoff(game, profile)
    _emit([ser.format_fraction(u) for u in payoffs], args.out)
    return EXIT_OK


def cmd_social_cost(args: argparse.Namespace) -> int:
    locations = [as_fraction(part) for part in _fields(args.locations, "--locations")]
    _emit(ser.format_fraction(social_cost(locations)), args.out)
    return EXIT_OK


def cmd_best_response(args: argparse.Namespace) -> int:
    game, profile = _load_document(args.against)
    if isinstance(profile, PureProfile):
        profile = MixedProfile.from_pure(profile)
    _emit(ser.deviation_to_json(best_response(list(profile.strategies), args.m)), args.out)
    return EXIT_OK


def _atlas_multisets(max_n: int):
    def partitions(total: int, cap: int):
        if total == 0:
            yield ()
            return
        for first in range(1, min(total, cap) + 1):
            for rest in partitions(total - first, first):
                yield rest + (first,)

    for n in range(2, max_n + 1):
        for counts in sorted(partitions(n, n)):
            if len(counts) >= 2:
                yield counts


def _atlas_row(counts: tuple[int, ...]) -> dict:
    game = Game(counts)
    existence = eq.exists_pure(game)
    row: dict = {
        "counts": list(counts),
        "n": game.n,
        "players": game.num_players,
        "dominant_player": has_dominant_player(game),
        "pure_exists": existence.exists,
        "reason": existence.reason,
    }
    try:
        profile = eq.construct_pure(game)
        row["construction"] = ser.pure_profile_to_json(profile)["strategies"]
        row["verified"] = eq.verify_multi_unit(game, profile).verdict
    except ConstructionUnavailable:
        row["construction"] = None
        row["verified"] = None
    if row["dominant_player"] is not None:
        plan = eq.find_partition(game)
        row["partition_plan"] = None if plan is None else ser.partition_to_json(plan)
    else:
        row["partition_plan"] = None
    return row


def cmd_atlas(args: argparse.Namespace) -> int:
    if args.max_n < 2:  # the smallest game of two or more players
        raise InvalidInput(f"--max-n must be at least 2, got {args.max_n}")
    rows = [_atlas_row(counts) for counts in _atlas_multisets(args.max_n)]
    if args.svg:
        svg_dir = Path(args.svg)
        svg_dir.mkdir(parents=True, exist_ok=True)
        for row in rows:
            if row["construction"] is None:
                continue
            counts = tuple(row["counts"])
            game = Game(counts)
            profile = PureProfile.of(*row["construction"])
            name = "game_" + "_".join(str(c) for c in counts)
            (svg_dir / f"{name}.svg").write_text(
                render_profile(game, profile, title=f"counts={counts}")
            )
    if args.out and args.out.endswith(".csv"):
        with open(args.out, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            for row in rows:
                flat = dict(row)
                for key in ("counts", "construction", "partition_plan"):
                    flat[key] = json.dumps(flat[key])
                writer.writerow(flat)
        return EXIT_OK
    _emit({"max_n": args.max_n, "games": rows}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotelling",
        description="Exact multi-unit location games on [0,1]: construct, "
        "evaluate and verify equilibria.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write JSON output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="construct an equilibrium profile", parents=[common])
    p.add_argument("--game", required=True, help="facility counts, e.g. 1,2,2")
    p.add_argument("--kind", choices=("pure", "mixed", "two-player"), default="pure")

    p = sub.add_parser("verify", help="verify a profile document", parents=[common])
    p.add_argument("--profile", required=True, help="path to a profile JSON document")

    p = sub.add_parser("payoff", help="exact payoffs of a profile document", parents=[common])
    p.add_argument("--profile", required=True)
    p.add_argument("--full", action="store_true",
                   help="emit the full per-facility mass report (pure profiles)")

    p = sub.add_parser("social-cost", help="social cost of a location set", parents=[common])
    p.add_argument("--locations", required=True, help="comma-separated rationals")

    p = sub.add_parser("best-response", help="exact best response against a profile",
                       parents=[common])
    p.add_argument("--against", required=True,
                   help="profile document path, or inline like '1/4' or '1/8,3/8;1/2'")
    p.add_argument("--m", type=_count, required=True, help="number of facilities to place")

    p = sub.add_parser("atlas", help="existence/construction table over all games", parents=[common])
    p.add_argument("--max-n", type=_count, required=True, dest="max_n")
    p.add_argument("--svg", help="directory for per-game SVG plots")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so the cached parser pins no cmd_* function that
    # may be rebound in this module later (as perfbench's tracer does)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ConstructionUnavailable as exc:
        print(f"construction unavailable: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except SupportTooLarge as exc:
        print(f"search capped: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except (HotellingError, OSError) as exc:  # OSError: unreadable or unwritable path
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
