"""Shared test utilities: independent oracles, references and random generators.

The Riemann oracles deliberately avoid the library's midpoint-partition
shortcut: they integrate by brute sampling, so agreement with the closed
forms is meaningful evidence. ``midpoint_report`` recomputes a mass report
from halved midpoints in plain ``Fraction`` arithmetic, the reference for
the library's integer sweep. ``flatten`` builds the single-unit twin that
T4-3 is defined on, the reference route for the verifier's reuse of the
multi-unit mass report; ``combined_strategy`` builds joint-strategy fixtures.
``reference_best_response`` values every subset of a family through
``limit_payoff``, the reference for the oracle's per-draw chain cells;
``best_subset`` runs the oracle's search over such a family, and
``reference_gap_fillers`` lists the gap fillers that pad the oracle's
witness past its family, by a loop of its own.
``reference_pure_best_response`` solves the best response against pure
opponents as a knapsack over their points, a second route to the oracle's
supremum that shares none of its code; ``reference_pure_supremum`` gives
the same supremum in closed form, cheap enough for thousands of points.
``reference_support`` checks a mixed support entry by entry on Fractions,
the reference for ``MixedStrategy``'s check on integer ratios, from which
it builds its table. ``TABLE_ROUTES`` groups equal strategies built by
every route into ``MixedStrategy``; it is shared with the golden corpus,
which records their ``repr``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from hotelling import (
    FacilityRef,
    Game,
    InvalidStrategy,
    MassReport,
    MixedProfile,
    MixedStrategy,
    OffsetLocation,
    PartitionPlan,
    PureProfile,
    PureStrategy,
    construct_mixed,
    find_partition,
    limit_payoff,
    make_olk,
    masses,
    optimal_locations,
    two_player_equilibrium,
)
from hotelling.core import as_fraction, require_profile
from hotelling.mixed import _scaled_supports
from hotelling.oracle import _best_subset, candidate_family
from hotelling.serialize import mixed_strategy_from_json, mixed_strategy_to_json

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


_SIDE_ORDER = {"below": -1, "exact": 0, "above": 1}


def midpoint_report(strategies: Sequence[Sequence[OffsetLocation | Fraction]]) -> MassReport:
    """Reference mass report: every boundary a halved ``Fraction`` midpoint.

    Locations are Fractions or ``OffsetLocation``s; facilities group by
    (position, side) in offset order, as ``limit_payoff`` groups them, and
    each group lists its facilities in (player, slot) order. Each cell
    reaches halfway to the neighbouring groups' positions, or to 0 and 1.
    """
    groups: dict[tuple[Fraction, int], list[FacilityRef]] = {}
    for i, strategy in enumerate(strategies):
        for j, loc in enumerate(strategy):
            if not isinstance(loc, OffsetLocation):
                loc = OffsetLocation(loc, "exact")
            key = (loc.position, _SIDE_ORDER[loc.side])
            groups.setdefault(key, []).append(FacilityRef(i, j, loc.position))
    points = [groups[key] for key in sorted(groups)]
    payoffs = [Fraction(0)] * len(strategies)
    fac: dict[FacilityRef, Fraction] = {}
    left: dict[FacilityRef, Fraction] = {}
    right: dict[FacilityRef, Fraction] = {}
    for k, refs in enumerate(points):
        x = refs[0].position
        c_l = (x - points[k - 1][0].position) / 2 if k else x
        c_r = (points[k + 1][0].position - x) / 2 if k + 1 < len(points) else 1 - x
        share = (c_l + c_r) / len(refs)
        for ref in refs:
            fac[ref] = share
            left[ref] = c_l
            right[ref] = c_r
            payoffs[ref.player] += share
    return MassReport(tuple(payoffs), fac, left, right)


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


def limit_value(opponents: Sequence[MixedStrategy], deviation: Sequence[OffsetLocation]) -> Fraction:
    """Expected ``limit_payoff`` of a deviation, summed over the opponents' joint draws."""
    total = Fraction(0)
    for combo in itertools.product(*(x.support for x in opponents)):
        weight = math.prod((p for _, p in combo), start=Fraction(1))
        strategies = [list(deviation), *(list(s) for s, _ in combo)]
        total += weight * limit_payoff(strategies, deviator=0).payoffs[0]
    return total


def reference_best_response(
    opponents: Sequence[MixedStrategy],
    m: int,
    family: Sequence[OffsetLocation] | None = None,
) -> tuple[Fraction, tuple[OffsetLocation, ...], tuple[OffsetLocation, ...] | None]:
    """Reference search: every m-subset of the family, valued by ``limit_value``.

    The family defaults to the candidate family of the opponents' positions
    and must hold at least ``m`` entries. Returns the supremum, the
    lexicographically smallest maximizer and the smallest all-exact
    maximizer (None when no maximizer is all-exact).
    """
    if family is None:
        family = candidate_family({loc for x in opponents for s, _ in x.support for loc in s})
    values = {
        subset: limit_value(opponents, subset)
        for subset in itertools.combinations(sorted(family), m)
    }
    best = max(values.values())
    maximizers = [subset for subset, value in values.items() if value == best]
    exact = [subset for subset in maximizers if all(c.side == "exact" for c in subset)]
    return best, maximizers[0], exact[0] if exact else None


def best_subset(
    family: Sequence[OffsetLocation], m: int, opponents: Sequence[MixedStrategy]
) -> tuple[Fraction, bool, tuple[OffsetLocation, ...]]:
    """``oracle._best_subset`` over a sorted ``OffsetLocation`` family, which
    may be enriched beyond or cut from the candidate family: its entries go
    onto the oracle's one doubled grid, twice the lcm of the opponents'
    table scales and of the family's own denominators, as ``(x, offset)``
    pairs, and the opponents' rows, and the positions that every entry of
    some opponent holds, onto the same grid."""
    scale = 2 * math.lcm(*(x._table[0] for x in opponents), *(c.position.denominator for c in family))
    pairs = [(c.position.numerator * (scale // c.position.denominator), _SIDE_ORDER[c.side]) for c in family]
    rows = _scaled_supports(opponents, scale)
    held = sorted({x for support in rows for x in set(support[0][0]).intersection(*(row for row, _ in support))})
    result = _best_subset(pairs, held, scale, m, rows, math.prod(x._table[2] for x in opponents))
    return result.supremum_payoff, result.attained, result.witness


def reference_gap_fillers(positions: Sequence[Fraction], needed: int) -> list[OffsetLocation]:
    """Exact points strictly inside the gaps between the positions and the
    ends, in ``Fraction`` arithmetic: each gap's midpoint, gap after gap,
    then its odd quarters, then its odd eighths, until ``needed`` are made.
    The reference for the fillers the oracle sorts into a witness longer
    than its candidate family."""
    pts = sorted(set(positions))
    gaps = [(a, b) for a, b in zip([Fraction(0), *pts], [*pts, Fraction(1)]) if a < b]
    fillers: list[OffsetLocation] = []
    depth = 1
    while len(fillers) < needed:
        for a, b in gaps:
            for num in range(1, 2**depth, 2):
                if len(fillers) < needed:
                    fillers.append(OffsetLocation(a + (b - a) * Fraction(num, 2**depth), "exact"))
        depth += 1
    return fillers


def reference_pure_best_response(positions: Sequence[Fraction], m: int) -> Fraction:
    """Reference supremum of an m-facility player against opponent facilities
    at ``positions`` (a multiset), as a multiple-choice knapsack over the
    occupied points (Sinha & Zoltners 1979).

    Customers between two adjacent occupied points see only the facilities
    at those points and just beside them, so the payoff is a sum over points
    (Eaton & Lipsey 1975). At a point ``p`` held by ``c`` opponents the
    player chooses ``b``, ``e`` and ``a`` in {0, 1}: a facility just below,
    exactly at and just above ``p`` (none below 0, none above 1). That costs
    ``b + e + a`` facilities and pays ``L·(1 if b else s) + R·(1 if a else
    s)``, with ``s = e/(c + e)`` and ``L``, ``R`` the half-gaps to the
    neighbouring points, or the whole end gap at either end. Every payment
    grows with each of ``b``, ``e`` and ``a``, so a DP over (point,
    facilities used) takes the best use of at most ``m`` facilities.
    """
    counts = Counter(positions)
    points = sorted(counts)
    ends = [-points[0], *points, 2 - points[-1]]  # mirrored ends: half of an end gap is the whole gap
    best = [Fraction(0)] * (m + 1)  # best[k]: the points so far, at most k facilities
    for j, p in enumerate(points, start=1):
        left, right = (p - ends[j - 1]) / 2, (ends[j + 1] - p) / 2
        options = []
        for b, e, a in itertools.product((0, 1), repeat=3):
            if not (b and p == 0) and not (a and p == 1):
                share = Fraction(e, counts[p] + e)
                options.append((b + e + a, left * (1 if b else share) + right * (1 if a else share)))
        best = [max(best[k - cost] + pay for cost, pay in options if cost <= k) for k in range(m + 1)]
    return best[m]


def reference_pure_supremum(positions: Sequence[Fraction], m: int) -> Fraction:
    """Closed-form supremum of an m-facility player against opponent
    facilities at ``positions`` (a multiset, at least one): the sum of the
    ``m`` largest pieces among ``p_1``, ``1 - p_r`` and two copies of
    ``(p_{i+1} - p_i)/2`` per interior gap, over the distinct points
    ``p_1 < ... < p_r``; all of them, summing to 1, when fewer than ``m``.

    Proof sketch. A facility exactly at an opponent point ``p`` held by
    ``c >= 1`` opponents earns ``(l + r)/(c + 1)``, with ``l`` and ``r``
    the half-distances to the nearest occupied points below and above.
    Moved just below ``p`` it earns ``l``, and just above it ``r``; no
    other facility's cell changes, since ``p`` stays occupied. One of the
    two is at least ``(l + r)/2 >= (l + r)/(c + 1)``, and at 0 or 1 the
    missing side has ``l`` or ``r`` 0. If the player already holds that
    spot, the exact facility's side there is 0 and the other side is at
    least its share; if it holds both, the exact facility earns 0, and a
    facility added anywhere else never lowers the player's payoff. So
    sharing an opponent's point never beats the one-sided placements
    beside it, and the supremum is taken over facilities strictly inside
    the gaps between opponent points, one-sided limits at a gap's ends
    included. Each gap's customers then go to its own facilities or to
    the opponents at its ends, so the payoff is a sum over gaps. In an
    interior gap of length ``g``, one facility earns ``g/2`` wherever it
    stands, and two or more earn at most ``g``, reached just inside both
    ends; in an end gap one facility earns the whole gap, just inside its
    opponent end, and more earn nothing more. Each gap's value is concave
    in its facility count, with increments the pieces above, so the best
    use of ``m`` facilities takes the ``m`` largest pieces.
    """
    points = sorted(set(positions))
    pieces = [points[0], 1 - points[-1]]
    for a, b in zip(points, points[1:]):
        pieces += [(b - a) / 2] * 2
    return sum(sorted(pieces, reverse=True)[:m], Fraction(0))


def reference_support(support) -> tuple[tuple[PureStrategy, Fraction], ...]:
    """Reference ``MixedStrategy`` check: convert and check entry by entry.

    Returns the converted support, or raises the first fault: the entries'
    own conversions in order, then an empty support, then per entry a
    non-positive probability, a duplicate and a size mismatch, and last a
    total other than 1.
    """
    entries = []
    for strategy, prob in support:
        if not isinstance(strategy, PureStrategy):
            strategy = PureStrategy(tuple(strategy))
        entries.append((strategy, as_fraction(prob)))
    if not entries:
        raise InvalidStrategy("mixed strategy needs a non-empty support")
    seen: set[PureStrategy] = set()
    size = len(entries[0][0])
    for strategy, prob in entries:
        if prob <= 0:
            raise InvalidStrategy(f"probability {prob} is not positive")
        if strategy in seen:
            raise InvalidStrategy(f"duplicate support entry {strategy.locations}")
        seen.add(strategy)
        if len(strategy) != size:
            raise InvalidStrategy("support entries must place the same number of facilities")
    total = sum((prob for _, prob in entries), Fraction(0))
    if total != 1:
        raise InvalidStrategy(f"probabilities sum to {total}, expected 1")
    return tuple(entries)


# subclasses, which MixedStrategy turns into the plain types
class ExactFraction(Fraction):
    pass


class NamedStrategy(PureStrategy):
    pass


def olk_strategies():
    return [PureStrategy(s) for s in itertools.combinations(optimal_locations(4), 2)]


def partition_strategy(player):
    game = Game((1, 2, 6))
    return construct_mixed(game, find_partition(game)).strategies[player]


# the 3-subsets of the optimal points of k = 4, with locations written as
# decimals, unreduced or plain, probabilities in several spellings, and an
# entry key the decoder ignores
DECODER_DOCUMENT = [
    {"strategy": ["0.125", "3/8", "5/8"], "prob": "1/4", "note": "ignored"},
    {"strategy": ["2/16", "0.375", "7/8"], "prob": "0.25"},
    {"strategy": ["1/8", "10/16", "0.875"], "prob": "2/8", "note": None},
    {"strategy": ["6/16", "0.625", "14/16"], "prob": "25/100"},
]

# a plan for (1,1,1,6) whose first block, 1/4 and 3/4, is not a run of
# neighbouring optimal points, so its locations need only the scale 4
SPREAD_PLAN = PartitionPlan(
    (2, 2, 2),
    ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 12), Fraction(5, 12)), (Fraction(7, 12), Fraction(11, 12))),
)

# equal strategies built by every route into MixedStrategy, built when a
# test runs, so a route that fails fails that test alone
TABLE_ROUTES = {
    "point": lambda: [
        MixedStrategy.point(PureStrategy(optimal_locations(4)[1:3])),
        MixedStrategy.point(["3/8", "5/8"]),
    ],
    "uniform": lambda: [
        MixedStrategy.uniform(olk_strategies()),
        MixedStrategy.uniform(s.locations for s in olk_strategies()),
        make_olk(2, 4),
        MixedStrategy(tuple(([str(x) for x in s], "1/6") for s in olk_strategies())),
        MixedStrategy(tuple(([x if x.denominator > 1 else int(x) for x in s], Fraction(1, 6)) for s in olk_strategies())),
        mixed_strategy_from_json(mixed_strategy_to_json(make_olk(2, 4))),
        MixedStrategy(
            tuple((NamedStrategy(tuple(map(ExactFraction, s))), ExactFraction(1, 6)) for s in olk_strategies())
        ),
    ],
    "partition-1": lambda: [partition_strategy(0), MixedStrategy.uniform([("1/12",), ("3/12",)])],
    "partition-2": lambda: [
        partition_strategy(1),
        MixedStrategy.uniform(itertools.combinations(optimal_locations(6)[2:], 2)),
    ],
    "partition-3": lambda: [partition_strategy(2), MixedStrategy.point(optimal_locations(6))],
    "decoder-table": lambda: [
        mixed_strategy_from_json(DECODER_DOCUMENT),
        MixedStrategy.uniform(itertools.combinations(optimal_locations(4), 3)),
        make_olk(3, 4),
    ],
    "blocks": lambda: [
        make_olk(1, 2),
        two_player_equilibrium(Game((1, 2))).strategies[0],
        construct_mixed(Game((1, 1, 1, 6)), SPREAD_PLAN).strategies[0],
        MixedStrategy.uniform([("1/4",), ("3/4",)]),
    ],
}
