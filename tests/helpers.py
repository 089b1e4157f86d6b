"""Shared test utilities: independent oracles, references and random generators.

The Riemann oracles deliberately avoid the library's midpoint-partition
shortcut: they integrate by brute sampling, so agreement with the closed
forms is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from hotelling import Game, MixedProfile, PureProfile, PureStrategy, masses

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
