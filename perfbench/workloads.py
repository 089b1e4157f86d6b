"""Seeded workloads of the certification benchmark.

A workload turns a seed into a fixed list of ops. An op is one closed-loop
call into the public ``hotelling`` API or its in-process CLI. Its check runs
outside the timed interval and compares the answer with an independent exact
route: closed forms, a structural verdict, or the midpoint sweep below, which
is written here and shares no code with the library.

Only public ``hotelling`` names are used, and no op passes ``cap``, ``seed``,
``--cap`` or ``--seed``, so the workloads keep working when the capped search
and its knobs are removed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

# Denominators of seeded positions (perturbations and random profiles).
DENOMINATORS = (7, 11, 13, 17, 19, 23, 29, 31)

# certify-mixed: two-player equilibria (make_olk(l, k), optimum) with
# l <= k <= 5, then block-partition mixtures. For two players the partition
# mixture is the same profile as make_olk, so only games with three or more
# players are listed; (1,1,6) and k = 6 take 4-37 s per op and are left out.
MIXED_TWO_PLAYER_MAX_K = 5
MIXED_PARTITION_GAMES = ((1, 1, 4),)

# evaluate: fixed mixed games, so the heavy draws do not vary with the seed.
# Product supports are 4 to 81 for the dominant games and up to C(12,6) = 924
# for the two-player ones.
EVAL_DOMINANT_GAMES = ((1, 1, 4), (1, 2, 6), (1, 1, 2, 8), (1, 2, 9), (1, 1, 1, 1, 12), (1, 1, 14))
EVAL_TWO_PLAYER_GAMES = ((1, 12), (2, 9), (3, 10), (4, 8), (5, 11), (6, 12))
# evaluate: one seeded pure game and RANDOM_PROFILES_PER_N random profiles
# for every total n in this range, so sizes are the same for every seed.
EVAL_PURE_N = range(4, 17)
RANDOM_PROFILES_PER_N = 2


@dataclass(frozen=True)
class Op:
    """One timed call plus what its check and the input counts need.

    ``game`` and ``profile`` (as a MixedProfile) are the op's input, when it
    has one. ``oracle`` marks ops that run ``certify_no_deviation``;
    ``support`` is the product support that ``mixed_payoff`` enumerates for
    the op (0 if it does not).
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    game: Any = None
    profile: Any = None
    oracle: bool = False
    support: int = 0


# ---------------------------------------------------------------------------
# Independent exact routes


def sweep(strategies) -> list[Fraction]:
    """Exact payoffs of a pure profile: cells end at midpoints of neighbours."""
    owners: dict[Fraction, list[int]] = {}
    for player, strategy in enumerate(strategies):
        for x in strategy:
            owners.setdefault(Fraction(x), []).append(player)
    points = sorted(owners)
    payoffs = [Fraction(0)] * len(strategies)
    for j, x in enumerate(points):
        left = (points[j - 1] + x) / 2 if j else Fraction(0)
        right = (x + points[j + 1]) / 2 if j + 1 < len(points) else Fraction(1)
        for player in owners[x]:
            payoffs[player] += (right - left) / len(owners[x])
    return payoffs


def expected_payoffs(document: dict) -> list[Fraction]:
    """Exact expected payoffs of a profile document, by enumerating draws."""
    if "strategies" in document:
        return sweep([[Fraction(x) for x in s] for s in document["strategies"]])
    supports = [
        [([Fraction(x) for x in e["strategy"]], Fraction(e["prob"])) for e in mixed]
        for mixed in document["mixed_strategies"]
    ]
    totals = [Fraction(0)] * len(supports)
    for draw in itertools.product(*supports):
        weight = math.prod((p for _, p in draw), start=Fraction(1))
        for player, u in enumerate(sweep([s for s, _ in draw])):
            totals[player] += weight * u
    return totals


def pure_closed_form(counts) -> list[Fraction]:
    """Payoffs of ``construct_pure``: n_i/n for even n; for odd n, p = 1/(n+1)
    per facility and p(n_1 + 1) for the first player with the fewest."""
    n = sum(counts)
    if n % 2 == 0:
        return [Fraction(c, n) for c in counts]
    p = Fraction(1, n + 1)
    smallest = min(range(len(counts)), key=lambda i: (counts[i], i))
    return [p * (c + 1) if i == smallest else p * c for i, c in enumerate(counts)]


def mixed_closed_form(counts) -> list[Fraction]:
    """Payoffs of a dominant-player mixture: n_i/(2 n_N) for every weak
    player, the rest for the player N with the most facilities (the last of
    them on a tie). With two players (l, k) this is the (l/2k, 1 - l/2k) of
    the (imitation, optimum) equilibrium, also when l = k."""
    dominant = max(range(len(counts)), key=lambda i: (counts[i], i))
    payoffs = [Fraction(c, 2 * counts[dominant]) for c in counts]
    payoffs[dominant] = 1 - (sum(payoffs) - payoffs[dominant])
    return payoffs


# ---------------------------------------------------------------------------
# Input generation


def _partitions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, largest) + 1):
        for rest in _partitions(total - first, first):
            yield rest + (first,)


def _no_dominant(counts) -> bool:
    return len(counts) >= 2 and all(2 * c <= sum(counts) for c in counts)


def pure_games(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Every game without a dominant player with lo <= n <= hi."""
    return [c for n in range(lo, hi + 1) for c in sorted(_partitions(n, n)) if _no_dominant(c)]


def random_pure_game(rng: random.Random, n: int) -> tuple[int, ...]:
    """A seeded game of n facilities that has a pure equilibrium."""
    while True:
        players = rng.randint(2, min(n, 6))
        cuts = sorted(rng.sample(range(1, n), players - 1))
        counts = tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
        if _no_dominant(counts) and (n % 2 == 0 or players >= 3):
            return counts


def perturb(hot, rng: random.Random, profile):
    """Move the first facility of the last player to a free seeded position
    a/d, d from DENOMINATORS.

    The moved facility is fixed and its target is never occupied, so every
    candidate family, and with it the oracle's work, is the same for every
    seed; only the rationals change.
    """
    strategies = [list(s) for s in profile.strategies]
    occupied = {x for s in strategies for x in s}
    player, slot = len(strategies) - 1, 0
    d = rng.choice(DENOMINATORS)
    free = [x for x in (Fraction(a, d) for a in range(1, d)) if x not in occupied]
    strategies[player][slot] = rng.choice(free)
    return hot.PureProfile.of(*(sorted(s) for s in strategies))


def random_pure_profile(hot, rng: random.Random, counts):
    """Seeded locations on a grid 1/d, d from DENOMINATORS; rivals may co-locate."""
    d = rng.choice(DENOMINATORS)
    return hot.PureProfile.of(
        *(sorted(Fraction(a, d) for a in rng.sample(range(d + 1), c)) for c in counts)
    )


# ---------------------------------------------------------------------------
# certify-pure and certify-mixed


def _as_mixed(hot, profile):
    return profile if isinstance(profile, hot.MixedProfile) else hot.MixedProfile.from_pure(profile)


def _certify_op(hot, label, game, profile, check) -> Op:
    mixed = _as_mixed(hot, profile)
    return Op(
        label=label,
        call=lambda: hot.certify_no_deviation(game, profile),
        check=check,
        game=game,
        profile=mixed,
        oracle=True,
        support=mixed.support_size(),
    )


def _sound(result) -> bool:
    # ``exhaustive`` goes away once the search is never capped
    return getattr(result, "exhaustive", True) and result.gain is not None


def check_certify_pure(hot, game, profile, results) -> bool:
    """Verdict equals the structural verifier's; every supremum is what its
    witness earns; every gain is the supremum minus the current payoff."""
    if len(results) != game.num_players:
        return False
    current = sweep(profile.strategies)
    for player, result in enumerate(results):
        if not _sound(result) or result.gain != result.supremum_payoff - current[player]:
            return False
        deviated = [list(s) for s in profile.strategies]
        deviated[player] = list(result.witness)
        if hot.limit_payoff(deviated, player).payoffs[player] != result.supremum_payoff:
            return False
    certified = all(r.gain <= 0 for r in results)
    return certified == hot.verify_multi_unit(game, profile).verdict


def check_certify_mixed(hot, game, profile, results) -> bool:
    """All gains <= 0, and both the certified and the library's expected
    payoffs equal the closed forms."""
    closed = mixed_closed_form(game.counts)
    if len(results) != game.num_players or list(hot.mixed_payoff(game, profile)) != closed:
        return False
    return all(
        _sound(r) and r.gain <= 0 and r.supremum_payoff - r.gain == closed[player]
        for player, r in enumerate(results)
    )


def certify_pure(hot, seed: int, work_dir: Path) -> list[Op]:
    """Every game without a dominant player, 4 <= n <= 10, as its construction
    and as one seeded perturbation of it."""
    rng = random.Random(seed)
    ops = []
    for counts in pure_games(4, 10):
        game = hot.Game(counts)
        equilibrium = hot.construct_pure(game)
        for kind, profile in (("eq", equilibrium), ("moved", perturb(hot, rng, equilibrium))):
            check = lambda results, g=game, p=profile: check_certify_pure(hot, g, p, results)
            ops.append(_certify_op(hot, f"{kind}{counts}", game, profile, check))
    return ops


def certify_mixed(hot, seed: int, work_dir: Path) -> list[Op]:
    """Two-player (imitation, optimum) equilibria and block-partition mixtures.

    The inputs are fixed; the seed only orders the ops in each pass.
    """
    profiles = []
    for k in range(1, MIXED_TWO_PLAYER_MAX_K + 1):
        for l in range(1, k + 1):
            game = hot.Game((l, k))
            profiles.append((f"olk{game.counts}", game, hot.two_player_equilibrium(game)))
    for counts in MIXED_PARTITION_GAMES:
        game = hot.Game(counts)
        profiles.append((f"partition{counts}", game, hot.construct_mixed(game, hot.find_partition(game))))
    ops = []
    for label, game, profile in profiles:
        check = lambda results, g=game, p=profile: check_certify_mixed(hot, g, p, results)
        ops.append(_certify_op(hot, label, game, profile, check))
    return ops


# ---------------------------------------------------------------------------
# evaluate


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """In-process ``hotelling`` call; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _payoffs_ok(payoffs, expected) -> bool:
    return sum(payoffs) == 1 and payoffs == expected


def check_construct(expected, outcome) -> bool:
    code, out = outcome
    return code == 0 and _payoffs_ok(expected_payoffs(json.loads(out)), expected)


def check_payoff(expected, outcome) -> bool:
    code, out = outcome
    return code == 0 and _payoffs_ok([Fraction(u) for u in json.loads(out)], expected)


def check_full_payoff(expected, outcome) -> bool:
    code, out = outcome
    if code != 0:
        return False
    report = json.loads(out)
    masses = [Fraction(f["mass"]) for f in report["facilities"]]
    return _payoffs_ok([Fraction(u) for u in report["payoffs"]], expected) and sum(masses) == 1


def check_verify(outcome) -> bool:
    code, out = outcome
    return code == 0 and json.loads(out)["verdict"] is True


def evaluate(hot, seed: int, work_dir: Path) -> list[Op]:
    """In-process CLI calls: construct, payoff, payoff --full and verify.

    ``verify`` runs only on pure and two-player documents, so the oracle is
    never reached.
    """
    import hotelling.cli as cli
    import hotelling.serialize as ser

    rng = random.Random(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def document(name, game, profile) -> str:
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(ser.profile_document(game, profile)))
        return str(path)

    def cli_op(label, argv, check, game, profile=None, support=0):
        mixed = None if profile is None else _as_mixed(hot, profile)
        ops.append(Op(label, lambda: run_cli(cli, argv), check, game, mixed, False, support))

    games = [("pure", random_pure_game(rng, n), pure_closed_form) for n in EVAL_PURE_N]
    games += [("mixed", c, mixed_closed_form) for c in EVAL_DOMINANT_GAMES]
    games += [("two-player", c, mixed_closed_form) for c in EVAL_TWO_PLAYER_GAMES]
    for kind, counts, closed_form in games:
        game = hot.Game(counts)
        if kind == "pure":
            profile = hot.construct_pure(game)
        elif kind == "mixed":
            profile = hot.construct_mixed(game, hot.find_partition(game))
        else:
            profile = hot.two_player_equilibrium(game)
        expected = closed_form(counts)
        tag = f"{kind}{counts}"
        game_arg = ",".join(map(str, counts))
        path = document(f"{kind}-{'_'.join(map(str, counts))}", game, profile)
        support = 0 if kind == "pure" else profile.support_size()
        cli_op(f"construct {tag}", ["construct", "--game", game_arg, "--kind", kind],
               lambda o, e=expected: check_construct(e, o), game)
        cli_op(f"payoff {tag}", ["payoff", "--profile", path],
               lambda o, e=expected: check_payoff(e, o), game, profile, support)
        if kind != "mixed":  # an N-player mixed document would reach the oracle
            cli_op(f"verify {tag}", ["verify", "--profile", path], check_verify, game, profile)

    for n in EVAL_PURE_N:
        for r in range(RANDOM_PROFILES_PER_N):
            counts = random_pure_game(rng, n)
            game = hot.Game(counts)
            profile = random_pure_profile(hot, rng, counts)
            path = document(f"random-{n}-{r}", game, profile)
            expected = sweep(profile.strategies)
            cli_op(f"payoff --full random{counts}", ["payoff", "--full", "--profile", path],
                   lambda o, e=expected: check_full_payoff(e, o), game, profile)
    return ops


WORKLOADS: dict[str, Callable[[Any, int, Path], list[Op]]] = {
    "certify-pure": certify_pure,
    "certify-mixed": certify_mixed,
    "evaluate": evaluate,
}


# ---------------------------------------------------------------------------
# Input properties


def input_properties(ops: list[Op]) -> dict[str, float]:
    """Counts that depend on the inputs only, for one pass over the op list."""
    from hotelling.oracle import candidate_family

    family_sizes: list[int] = []
    draws_total = subset_space = 0
    for op in ops:
        if not op.oracle:
            continue
        strategies = op.profile.strategies
        for player, m in enumerate(op.game.counts):
            opponents = strategies[:player] + strategies[player + 1 :]
            positions = {x for mixed in opponents for s, _ in mixed.support for x in s}
            size = len(candidate_family(positions))
            draws = math.prod(len(mixed.support) for mixed in opponents)
            family_sizes.append(size)
            draws_total += draws
            subset_space += math.comb(size, m) * draws
    denominators = [
        x.denominator
        for op in ops
        if op.profile is not None
        for mixed in op.profile.strategies
        for s, _ in mixed.support
        for x in s
    ]
    return {
        "ops": len(ops),
        "oracle.instances": len(family_sizes),
        "oracle.family_size_mean": sum(family_sizes) / len(family_sizes) if family_sizes else 0.0,
        "oracle.draws_total": draws_total,
        "oracle.subset_space_total": subset_space,
        "mixed.support_total": sum(op.support for op in ops),
        "max_denominator": max(denominators, default=1),
    }
