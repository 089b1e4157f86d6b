"""The golden corpus: what the CLI prints for a fixed set of cases.

    python tests/golden/make_golden.py

writes ``corpus.json.gz`` beside this file; ``tests/test_golden.py``
recomputes it and names the first case that differs. A case's key names the
command and its input, and its value is the exit code, stdout and stderr of
the in-process CLI. The cases are:

- ``construct``, ``payoff`` and ``verify`` for every two-player game with
  ``k <= 12`` (``--kind two-player``) and every game of ``n <= 16`` with an
  integral partition mixture (``--kind mixed``);
- ``best-response`` with ``--m 1``, ``--m 2`` and ``--m 3`` against those
  documents with ``k <= 5`` or ``n <= 8``;
- ``payoff`` of one malformed mixed document per decoding fault;
- ``atlas --max-n 14``;
- ``construct --kind pure`` for every game of ``n <= 12``, and ``payoff``,
  ``payoff --full`` and ``verify`` of each pure equilibrium it writes;
- ``payoff``, ``payoff --full`` and ``verify`` of ``RANDOM_PROFILES`` seeded
  inline pure profiles of up to 16 facilities on small grids, so that
  players share points and sit at 0 and 1;
- the ``repr`` of every strategy in ``helpers.TABLE_ROUTES``;
- the ``repr`` of every player's ``certify_no_deviation`` result (supremum,
  ``attained``, witness and gain) for ``construct_pure`` of every game of
  ``n <= 14`` that has a pure equilibrium, and for every partition mixture
  of ``n <= 14``, called in the library.

Documents are written to a temporary directory, whose path reads ``<doc>``
in the corpus. Only the standard library and ``hotelling`` are used.
"""

from __future__ import annotations

import contextlib
import copy
import gzip
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json.gz"

# a valid (2,4) two-player document's mixer, which every fault below mutates
BASE_GAME = (2, 4)

RANDOM_PROFILES = 200
# the largest game whose equilibria the certification cases cover
CERTIFY_N = 14


def _partitions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, largest) + 1):
        for rest in _partitions(total - first, first):
            yield rest + (first,)


def two_player_games() -> list[tuple[int, int]]:
    return [(l, k) for k in range(1, 13) for l in range(1, k + 1)]


def partition_games() -> list[tuple[int, ...]]:
    """Every game of 2 <= n <= 16 with a dominant player and an integral plan."""
    from hotelling import Game, find_partition, has_dominant_player

    games = []
    for n in range(2, 17):
        for counts in sorted(_partitions(n, n)):
            game = Game(counts)
            if len(counts) >= 2 and has_dominant_player(game) is not None and find_partition(game):
                games.append(counts)
    return games


def pure_games() -> list[tuple[int, ...]]:
    """Every game of 2 <= n <= 12 with at least two players."""
    return [c for n in range(2, 13) for c in sorted(_partitions(n, n)) if len(c) >= 2]


def certified_profiles() -> dict[str, tuple]:
    """The equilibria the certification cases cover, by name: ``construct_pure``
    of every game of ``2 <= n <= CERTIFY_N`` with a pure equilibrium, one
    player included, then each partition mixture of ``n <= CERTIFY_N``."""
    from hotelling import Game, construct_mixed, construct_pure, exists_pure, find_partition

    profiles: dict[str, tuple] = {}
    for counts in (c for n in range(2, CERTIFY_N + 1) for c in sorted(_partitions(n, n))):
        game = Game(counts)
        if exists_pure(game).exists:
            profiles[f"pure {','.join(map(str, counts))}"] = (game, construct_pure(game))
    for counts in partition_games():
        if sum(counts) <= CERTIFY_N:
            game = Game(counts)
            profiles[f"mixed {','.join(map(str, counts))}"] = (game, construct_mixed(game, find_partition(game)))
    return profiles


def random_pure_profiles(seed: int = 0) -> list[str]:
    """Seeded inline pure profiles: 1-5 players, 1-16 facilities, each
    player's locations drawn from one small grid ``i/q``, ends included."""
    rng = random.Random(seed)
    profiles: dict[str, None] = {}  # distinct, in drawing order
    while len(profiles) < RANDOM_PROFILES:
        n = rng.randint(1, 16)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(n, 5)) - 1))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        q = max(max(counts) - 1, rng.choice((1, 2, 3, 4, 6, 8, 12, 30)))
        players = [sorted(rng.sample(range(q + 1), m)) for m in counts]
        profiles[";".join(",".join(str(Fraction(i, q)) for i in grid) for grid in players)] = None
    return list(profiles)


def _faults(mixer: list) -> dict[str, list]:
    """One malformed copy of the mixer per decoding fault, by name."""

    def changed(*edits):
        faulty = copy.deepcopy(mixer)
        for edit in edits:
            edit(faulty)
        return faulty

    def put(entry, key, value):
        return lambda doc: doc[entry].__setitem__(key, value)

    def put_location(entry, slot, value):
        return lambda doc: doc[entry]["strategy"].__setitem__(slot, value)

    return {
        "bad-string": changed(put_location(2, 0, "x/y")),
        "zero-denominator": changed(put_location(1, 1, "1/0")),
        "exponent": changed(put_location(3, 1, "1e-3")),
        "underscore": changed(put_location(0, 0, "1_0")),
        "bool-location": changed(put_location(4, 0, True)),
        "float-location": changed(put_location(5, 1, 0.5)),
        "int-location": changed(put_location(0, 1, 2)),
        "float-prob": changed(put(1, "prob", 0.5)),
        "int-prob": changed(put(0, "prob", 1)),
        "null-prob": changed(put(2, "prob", None)),
        "strategy-not-list": changed(put(3, "strategy", "1/8")),
        "entry-not-object": changed(lambda doc: doc.__setitem__(2, ["1/8", "3/8"])),
        "missing-prob": changed(lambda doc: doc[4].pop("prob")),
        "missing-strategy": changed(lambda doc: doc[1].pop("strategy")),
        "unequal-sizes": changed(lambda doc: doc[5]["strategy"].pop()),
        "duplicate": changed(put(4, "strategy", ["2/16", "0.375"])),
        "not-increasing": changed(put(3, "strategy", ["5/8", "1/8"])),
        "repeated-location": changed(put(2, "strategy", ["3/8", "3/8"])),
        "outside": changed(put_location(5, 1, "9/8")),
        "negative": changed(put_location(0, 0, "-1/8")),
        "zero-prob": changed(put(3, "prob", "0")),
        "negative-prob": changed(put(3, "prob", "-1/6")),
        "sum": changed(put(0, "prob", "1/3")),
        "empty-strategy": changed(put(1, "strategy", [])),
        "empty-support": [],
        "late-fault-after-early": changed(put(0, "strategy", ["3/8", "1/8"]), put_location(5, 0, "x")),
    }


def run(argv: list[str], directory: str) -> list:
    """The exit code, stdout and stderr of the in-process CLI."""
    from hotelling.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    return [code, out.getvalue().replace(directory, "<doc>"), err.getvalue().replace(directory, "<doc>")]


def corpus() -> dict[str, list]:
    """Every case's key and output, computed afresh."""
    from helpers import TABLE_ROUTES
    from hotelling import Game, certify_no_deviation, two_player_equilibrium
    from hotelling.serialize import profile_document

    cases: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as directory:

        def cli(*argv: str) -> list:
            return run(list(argv), directory)

        def document(name: str, text: str) -> str:
            path = Path(directory) / f"{name}.json"
            path.write_text(text)
            return str(path)

        games = [("two-player", c, c[1] <= 5) for c in two_player_games()]
        games += [("mixed", c, sum(c) <= 8) for c in partition_games()]
        for kind, counts, searched in games:
            game = ",".join(map(str, counts))
            tag = f"{kind} {game}"
            built = cases[f"construct {tag}"] = cli("construct", "--game", game, "--kind", kind)
            path = document(f"{kind}-{game}", built[1])
            for command in ("payoff", "verify"):
                cases[f"{command} {tag}"] = cli(command, "--profile", path)
            if searched:
                for m in ("1", "2", "3"):
                    cases[f"best-response --m {m} {tag}"] = cli("best-response", "--against", path, "--m", m)

        base = profile_document(Game(BASE_GAME), two_player_equilibrium(Game(BASE_GAME)))
        for fault, mixer in _faults(base["mixed_strategies"][0]).items():
            faulty = dict(base, mixed_strategies=[mixer, base["mixed_strategies"][1]])
            cases[f"payoff fault {fault}"] = cli("payoff", "--profile", document(fault, json.dumps(faulty)))

        cases["atlas --max-n 14"] = cli("atlas", "--max-n", "14")

        for counts in pure_games():
            game = ",".join(map(str, counts))
            built = cases[f"construct pure {game}"] = cli("construct", "--game", game, "--kind", "pure")
            if built[0] == 0:
                path = document(f"pure-{game}", built[1])
                for command in (["payoff"], ["payoff", "--full"], ["verify"]):
                    cases[f"{' '.join(command)} pure {game}"] = cli(*command, "--profile", path)
        for text in random_pure_profiles():
            for command in (["payoff"], ["payoff", "--full"], ["verify"]):
                cases[f"{' '.join(command)} {text}"] = cli(*command, "--profile", text)
    for name, route in TABLE_ROUTES.items():
        for i, strategy in enumerate(route()):
            cases[f"repr {name}[{i}]"] = [repr(strategy)]
    for name, (game, profile) in certified_profiles().items():
        cases[f"certify {name}"] = list(map(repr, certify_no_deviation(game, profile)))
    return cases


def encode(cases: dict[str, list]) -> bytes:
    return gzip.compress(json.dumps(cases, indent=0).encode(), mtime=0)


def decode(data: bytes) -> dict[str, list]:
    return json.loads(gzip.decompress(data))


if __name__ == "__main__":
    root = HERE.parent.parent
    sys.path[:0] = [str(root / "src"), str(HERE.parent)]
    CORPUS.write_bytes(encode(corpus()))
    print(f"wrote {CORPUS.relative_to(root)}: {len(decode(CORPUS.read_bytes()))} cases")
