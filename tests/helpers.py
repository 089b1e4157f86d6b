"""Shared test utilities: independent oracles, references and random generators.

The Riemann oracles deliberately avoid the library's midpoint-partition
shortcut: they integrate by brute sampling, so agreement with the closed
forms is meaningful evidence. ``flatten`` builds the single-unit twin that
T4-3 is defined on, the reference route for the verifier's reuse of the
multi-unit mass report; ``combined_strategy`` builds joint-strategy fixtures.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from hotelling import (
    Game,
    InvalidStrategy,
    MixedProfile,
    MixedStrategy,
    PureProfile,
    PureStrategy,
    masses,
)
from hotelling.core import require_profile

TIE_EPS = 1e-12


def riemann_payoffs(profile: PureProfile, samples: int = 100_000) -> list[float]:
    """Midpoint Riemann sum of each player's attracted customer mass."""
    facilities = [
        (float(x), player)
        for player, strategy in enumerate(profile.strategies)
        for x in strategy
    ]
    totals = [0.0] * profile.num_players
    for i in range(samples):
        t = (i + 0.5) / samples
        nearest = min(abs(t - x) for x, _ in facilities)
        players = {player for x, player in facilities if abs(t - x) - nearest < TIE_EPS}
        share = 1.0 / (samples * len(players))
        for player in players:
            totals[player] += share
    return totals


def riemann_social_cost(points, samples: int = 1_000_000) -> float:
    xs = [float(Fraction(p)) for p in points]
    total = 0.0
    for i in range(samples):
        t = (i + 0.5) / samples
        total += min(abs(t - x) for x in xs)
    return total / samples


def rand_fraction(rng: random.Random, denom: int) -> Fraction:
    return Fraction(rng.randint(0, denom), denom)


def rand_strategy(rng: random.Random, k: int, denom: int) -> PureStrategy:
    values = rng.sample(range(denom + 1), k)
    return PureStrategy(tuple(sorted(Fraction(v, denom) for v in values)))


def rand_profile(rng: random.Random, game: Game, denom: int = 24) -> PureProfile:
    return PureProfile(tuple(rand_strategy(rng, c, denom) for c in game.counts))


def rand_kset(rng: random.Random, k: int, denom: int) -> tuple[Fraction, ...]:
    values = rng.sample(range(denom + 1), k)
    return tuple(sorted(Fraction(v, denom) for v in values))


def enumerated_payoffs(profile: MixedProfile) -> tuple[Fraction, ...]:
    """Reference expected payoffs: sum of weight * masses(draw) over every joint draw.

    Each draw is a full ``Fraction`` mass report with no integer scaling,
    so agreement checks ``mixed_payoff``'s integer sweep independently.
    """
    totals = [Fraction(0)] * profile.num_players
    for combo in itertools.product(*(x.support for x in profile.strategies)):
        weight = math.prod((p for _, p in combo), start=Fraction(1))
        outcome = masses(PureProfile(tuple(s for s, _ in combo))).payoffs
        for i, u in enumerate(outcome):
            totals[i] += weight * u
    return tuple(totals)


@dataclass(frozen=True)
class FlattenedPair:
    """A profile re-expressed in the single-unit game where every facility
    gets its own player, together with the bijection back to (player, slot).
    """

    game: Game
    profile: PureProfile
    back_map: tuple[tuple[int, int], ...]


def flatten(game: Game, profile: PureProfile) -> FlattenedPair:
    """Flatten a multi-unit profile into its canonical single-unit twin.

    Flattenings are unique up to renaming the single-unit players; the
    canonical representative orders facilities by (player, slot).
    """
    require_profile(game, profile)
    back: list[tuple[int, int]] = []
    flats: list[PureStrategy] = []
    for i, s in enumerate(profile.strategies):
        for j, x in enumerate(s):
            back.append((i, j))
            flats.append(PureStrategy((x,)))
    return FlattenedPair(
        game=Game(tuple(1 for _ in flats)),
        profile=PureProfile(tuple(flats)),
        back_map=tuple(back),
    )


def combined_strategy(strategies: Sequence[MixedStrategy]) -> MixedStrategy:
    """Merge independent players into one strategy over their joint locations.

    Every joint draw must produce pairwise distinct locations, otherwise the
    union is not a valid single-player strategy.
    """
    if not strategies:
        raise InvalidStrategy("nothing to combine")
    merged: dict[PureStrategy, Fraction] = {}
    for combo in itertools.product(*(x.support for x in strategies)):
        weight = math.prod((p for _, p in combo), start=Fraction(1))
        locations = sorted(loc for s, _ in combo for loc in s)
        joint = PureStrategy(tuple(locations))  # raises if two players collide
        merged[joint] = merged.get(joint, Fraction(0)) + weight
    return MixedStrategy(tuple(merged.items()))
