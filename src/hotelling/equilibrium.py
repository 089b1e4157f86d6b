"""Equilibrium verification, existence classification and constructors.

A pure profile of a multi-unit game is an equilibrium exactly when
(T4-1) no lone facility has a neighboring facility of the same player,
(T4-2) all facilities of one player attract the same customer mass, and
(T4-3) the flattened single-unit profile is itself in equilibrium, which
for single-unit games means paired extremes (T3-1) and every payoff at
least every one-sided mass (T3-2). All checks are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    FacilityClass,
    FacilityRef,
    Game,
    PureProfile,
    PureStrategy,
    classify,
    has_dominant_player,
    require_profile,
)
from .errors import ConstructionUnavailable, InvalidPartition, WrongGameKind
from .mixed import (
    MixedProfile,
    MixedStrategy,
    SoiResult,
    is_soi,
    optimal_locations,
)
from .payoff import MassReport, masses

# Stable condition codes used in reports and JSON output.
COND_PAIRED_EXTREMES = "T3-1"
COND_PAYOFF_COVERS_SIDES = "T3-2"
COND_LONE_ISOLATION = "T4-1"
COND_EQUAL_OWN_MASSES = "T4-2"
COND_FLATTENED_EQUILIBRIUM = "T4-3"
COND_SOI = "C1"
COND_OPTIMAL_POINT_MASS = "C2"

CONDITION_NAMES = {
    COND_PAIRED_EXTREMES: "peripheral positions host at least two facilities",
    COND_PAYOFF_COVERS_SIDES: "every payoff covers every one-sided mass",
    COND_LONE_ISOLATION: "no lone facility neighbors a facility of its owner",
    COND_EQUAL_OWN_MASSES: "each player's facilities attract equal mass",
    COND_FLATTENED_EQUILIBRIUM: "flattened profile is a single-unit equilibrium",
    COND_SOI: "weak player imitates the socially optimal locations",
    COND_OPTIMAL_POINT_MASS: "strong player plays the optimal locations deterministically",
}


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    passed: bool
    witness: dict | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Per-condition outcomes; the verdict is their conjunction."""

    verdict: bool
    conditions: tuple[ConditionResult, ...]

    def failed(self) -> tuple[ConditionResult, ...]:
        return tuple(c for c in self.conditions if not c.passed)

    def result(self, condition: str) -> ConditionResult:
        for c in self.conditions:
            if c.condition == condition:
                return c
        raise KeyError(condition)


def _report(conditions: Sequence[ConditionResult]) -> VerificationReport:
    return VerificationReport(all(c.passed for c in conditions), tuple(conditions))


def verify_single_unit(profile: PureProfile) -> VerificationReport:
    """Equilibrium check for profiles where every player owns one facility.

    A monopoly has no competitor to deviate against, so a one-player
    profile gets a true report with no conditions.
    """
    if any(len(s) != 1 for s in profile.strategies):
        raise WrongGameKind("verify_single_unit needs exactly one facility per player")
    if profile.num_players == 1:
        return _report([])
    return _report(_single_unit_conditions(classify(profile), masses(profile)))


def _single_unit_conditions(
    classes: Mapping[FacilityRef, FacilityClass], report: MassReport
) -> list[ConditionResult]:
    """T3-1 and T3-2 with each facility as its own player, numbered in ``classes`` order.

    Masses depend only on how many facilities share each position, so the
    report of a multi-unit profile serves its flattening unchanged.
    """
    # the report lists facilities by ascending position, so its first and
    # last entries sit at the two end positions, left end first
    by_position = list(report.facility_masses)
    lone_ends = [ref.position for ref in (by_position[0], by_position[-1]) if classes[ref].is_lone]
    cond1 = ConditionResult(
        COND_PAIRED_EXTREMES,
        not lone_ends,
        None if not lone_ends else {"position": lone_ends[0]},
    )

    # max one-sided mass, scanned in deterministic (position, side) order
    best = None
    for ref in by_position:
        for side, value in (("left", report.left_masses[ref]), ("right", report.right_masses[ref])):
            if best is None or value > best[2]:
                best = (ref.position, side, value)
    assert best is not None
    cond2_witness = None
    for player, ref in enumerate(classes):
        payoff = report.facility_masses[ref]
        if payoff < best[2]:
            cond2_witness = {
                "player": player,
                "payoff": payoff,
                "position": best[0],
                "side": best[1],
                "side_mass": best[2],
            }
            break
    cond2 = ConditionResult(COND_PAYOFF_COVERS_SIDES, cond2_witness is None, cond2_witness)
    return [cond1, cond2]


def verify_multi_unit(game: Game, profile: PureProfile) -> VerificationReport:
    """Necessary-and-sufficient equilibrium check for multi-unit profiles.

    A monopoly has no competitor to deviate against, so every one-player
    profile is an equilibrium and gets a true report with no conditions,
    as in ``exists_pure`` and ``certify_no_deviation``.
    """
    require_profile(game, profile)
    if game.num_players == 1:
        return _report([])
    report = masses(profile)
    classes = classify(profile)  # in refs() order: by player, then slot

    witness1 = None
    for ref, cls in classes.items():
        if not cls.is_lone:
            continue
        own = profile.strategies[ref.player].locations
        neighbor = next((p for p in (cls.left_neighbor, cls.right_neighbor) if p in own), None)
        if neighbor is not None:
            witness1 = {"player": ref.player, "position": ref.position, "neighbor": neighbor}
            break
    cond1 = ConditionResult(COND_LONE_ISOLATION, witness1 is None, witness1)

    witness2 = None
    for player, refs in itertools.groupby(classes, key=lambda r: r.player):
        values = [(r.position, report.facility_masses[r]) for r in refs]
        low = min(values, key=lambda v: v[1])
        high = max(values, key=lambda v: v[1])
        if low[1] != high[1]:
            witness2 = {
                "player": player,
                "position_low": low[0],
                "mass_low": low[1],
                "position_high": high[0],
                "mass_high": high[1],
            }
            break
    cond2 = ConditionResult(COND_EQUAL_OWN_MASSES, witness2 is None, witness2)

    # the flattened profile numbers facilities in (player, slot) order, as classes does
    flat_report = _report(_single_unit_conditions(classes, report))
    witness3 = None
    if not flat_report.verdict:
        first = flat_report.failed()[0]
        witness3 = {"condition": first.condition, **(first.witness or {})}
    cond3 = ConditionResult(COND_FLATTENED_EQUILIBRIUM, flat_report.verdict, witness3)

    return _report([cond1, cond2, cond3])


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    reason: str

    def __bool__(self) -> bool:
        return self.exists


def exists_pure(game: Game) -> ExistenceResult:
    """Whether the game possesses a pure equilibrium.

    Monopolies trivially do. With four or more facilities the answer is
    governed purely by the absence of a dominant player; the three smaller
    multi-player games are settled individually.
    """
    if game.num_players == 1:
        return ExistenceResult(True, "monopoly: every profile is trivially an equilibrium")
    if game.n >= 4:
        dom = has_dominant_player(game)
        if dom is None:
            return ExistenceResult(True, "no dominant player")
        return ExistenceResult(
            False, f"player {dom} owns more than half of all facilities"
        )
    counts = tuple(sorted(game.counts))
    if counts == (1, 1):
        return ExistenceResult(True, "two single-facility players pair at the midpoint")
    if counts == (1, 2):
        return ExistenceResult(False, "two players with unequal counts never pair up fully")
    return ExistenceResult(False, "three single-facility players admit only a mixed equilibrium")


def construct_even(game: Game) -> PureProfile:
    """Pure equilibrium for even n >= 4 without a dominant player.

    Places facilities at (2r-1)/n for r in 1..n/2, twice each, and hands
    them out in consecutive blocks of the ascending player order; absent a
    dominant player no block is long enough to receive both copies of a
    position.
    """
    dom = has_dominant_player(game)
    if dom is not None:
        raise ConstructionUnavailable(
            f"player {dom} is dominant: the game has no pure equilibrium"
        )
    if game.n % 2 != 0 or game.n < 4:
        raise ConstructionUnavailable(f"even construction needs even n >= 4, got n={game.n}")

    n = game.n
    half = n // 2
    sequence = [Fraction(2 * (k % half) + 1, n) for k in range(n)]
    order = game.ascending_order()

    per_player: dict[int, list[Fraction]] = {}
    cursor = 0
    for player in order:
        block = sequence[cursor : cursor + game.counts[player]]
        per_player[player] = sorted(block)
        cursor += game.counts[player]

    return PureProfile(
        tuple(PureStrategy(tuple(per_player[i])) for i in range(game.num_players))
    )


def construct_odd(game: Game) -> PureProfile:
    """Pure equilibrium for odd n >= 5, N >= 3, without a dominant player.

    Writing p = 1/(n+1) and n1 for the smallest facility count, the profile
    consists of a left pair at p, an alternating run of 2*n1 - 1 lone
    facilities (odd ranks to the smallest player at (i+2)p, even ranks at
    (i+1)p + ip/n1 to whichever other player has the most facilities left,
    ties to the earliest), and pairs every 2p up to n/(n+1). The smallest
    player's facilities each attract p(1 + 1/n1); every other facility
    attracts exactly p.
    """
    dom = has_dominant_player(game)
    if dom is not None:
        raise ConstructionUnavailable(
            f"player {dom} is dominant: the game has no pure equilibrium"
        )
    if game.n % 2 == 0 or game.n < 5:
        raise ConstructionUnavailable(f"odd construction needs odd n >= 5, got n={game.n}")
    if game.num_players < 3:
        raise ConstructionUnavailable("odd construction needs at least three players")

    n = game.n
    p = Fraction(1, n + 1)
    order = game.ascending_order()
    n1 = game.counts[order[0]]

    allocation: dict[int, list[Fraction]] = {i: [] for i in range(game.num_players)}
    remaining = {i: game.counts[i] for i in range(game.num_players)}

    def give(player: int, position: Fraction) -> None:
        allocation[player].append(position)
        remaining[player] -= 1

    give(order[-1], p)
    give(order[-2], p)

    for i in range(1, 2 * n1):
        if i % 2 == 1:
            give(order[0], (i + 2) * p)
        else:
            # the smallest player takes only odd ranks; candidates are the rest,
            # ties resolved toward the earliest player in ascending order
            target = order[1]
            for j in order[2:]:
                if remaining[j] > remaining[target]:
                    target = j
            give(target, (i + 1) * p + Fraction(i, n1) * p)

    residual = [remaining[j] for j in order[1:]]
    assert remaining[order[0]] == 0
    # residual counts must again lack a dominant player for the pairing to work
    assert all(2 * c <= sum(residual) for c in residual), (game.counts, residual)

    pair_total = n - (2 * n1 + 1)
    half = pair_total // 2
    cursor = 0
    for j in order[1:]:
        for _ in range(remaining[j]):
            r = cursor % half
            allocation[j].append(2 * n1 * p + 3 * p + 2 * p * r)
            cursor += 1

    return PureProfile(
        tuple(PureStrategy(tuple(sorted(allocation[i]))) for i in range(game.num_players))
    )


def construct_pure(game: Game) -> PureProfile:
    """Dispatch to whichever pure construction the game admits."""
    if game.num_players == 1:
        return PureProfile((PureStrategy(optimal_locations(game.counts[0])),))
    if tuple(sorted(game.counts)) == (1, 1):
        half = Fraction(1, 2)
        return PureProfile.of([half], [half])
    check = exists_pure(game)
    if not check.exists:
        raise ConstructionUnavailable(check.reason)
    if game.n % 2 == 0:
        return construct_even(game)
    return construct_odd(game)


@dataclass(frozen=True)
class PartitionPlan:
    """Block sizes and blocks of the optimal locations, one per weak player."""

    b: tuple[int, ...]
    blocks: tuple[tuple[Fraction, ...], ...]


def find_partition(game: Game) -> PartitionPlan | None:
    """Canonical block partition supporting a mixed equilibrium, if any.

    Needs a dominant player. Block sizes must satisfy b_i = n_i * n_N /
    (n - n_N) exactly; blocks are consecutive runs of the optimal locations
    handed out in player-index order, skipping the dominant player, so the
    lowest-index weak player gets the leftmost block, whatever its count.
    Returns None when any size is fractional, and for a monopoly, which has
    no weak player to mix.
    """
    dom = has_dominant_player(game)
    if dom is None:
        raise WrongGameKind("find_partition needs a dominant player")
    n_dom = game.counts[dom]
    rest = game.n - n_dom
    if rest == 0:
        return None
    sizes: list[int] = []
    for i, c in enumerate(game.counts):
        if i == dom:
            continue
        if (c * n_dom) % rest != 0:
            return None
        sizes.append(c * n_dom // rest)
    points = optimal_locations(n_dom)
    blocks: list[tuple[Fraction, ...]] = []
    cursor = 0
    for size in sizes:
        blocks.append(points[cursor : cursor + size])
        cursor += size
    return PartitionPlan(tuple(sizes), tuple(blocks))


def construct_mixed(game: Game, plan: PartitionPlan) -> MixedProfile:
    """Mixed equilibrium from a partition plan.

    The dominant player deterministically occupies all optimal locations;
    every other player mixes uniformly over the size-n_i subsets of her
    block. Expected payoffs are n_i / (2 n_N) for the weak players and the
    remainder for the dominant one.
    """
    dom = has_dominant_player(game)
    if dom is None:
        raise WrongGameKind("construct_mixed needs a dominant player")
    n_dom = game.counts[dom]
    rest = game.n - n_dom
    others = [i for i in range(game.num_players) if i != dom]

    if len(plan.b) != len(others) or sum(plan.b) != n_dom:
        raise InvalidPartition(f"block sizes {plan.b} do not sum to {n_dom}")
    points = set(optimal_locations(n_dom))
    seen: set[Fraction] = set()
    for size, block in zip(plan.b, plan.blocks):
        if len(block) != size:
            raise InvalidPartition(f"block {block} does not have its declared size {size}")
        for x in block:
            if x not in points or x in seen:
                raise InvalidPartition(f"blocks must partition the {n_dom} optimal locations")
            seen.add(x)
    if seen != points:
        raise InvalidPartition("blocks must cover every optimal location")
    for i, size in zip(others, plan.b):
        if game.counts[i] * n_dom != size * rest:
            raise InvalidPartition(
                f"player {i}: count {game.counts[i]} and block size {size} violate "
                f"n_i/b_i = (n - n_N)/n_N"
            )

    strategies: list[MixedStrategy | None] = [None] * game.num_players
    strategies[dom] = MixedStrategy.point(PureStrategy(optimal_locations(n_dom)))
    for i, block in zip(others, plan.blocks):
        subsets = [
            PureStrategy(c) for c in itertools.combinations(sorted(block), game.counts[i])
        ]
        strategies[i] = MixedStrategy.uniform(subsets)
    return MixedProfile(tuple(strategies))  # type: ignore[arg-type]


def verify_two_player(
    game: Game, x1: MixedStrategy, x2: MixedStrategy
) -> VerificationReport:
    """Equilibrium check for two-player games with counts l <= k, in either order.

    A profile is an equilibrium exactly when the smaller player's strategy
    puts expected mass l/k on each of the k optimal locations and the
    larger player occupies them all deterministically; payoffs are then
    (l/2k, 1 - l/2k). With equal counts the first player is the imitator.
    """
    if game.num_players != 2:
        raise WrongGameKind("verify_two_player needs exactly two players")
    if (x1.num_facilities, x2.num_facilities) != game.counts:
        raise WrongGameKind("strategy sizes do not match the game counts")
    (l, weak), (k, strong) = sorted(zip(game.counts, (x1, x2)), key=lambda pair: pair[0])

    soi: SoiResult = is_soi(weak, l, k)
    cond1 = ConditionResult(
        COND_SOI, soi.ok, None if soi.ok else {"position": soi.witness}
    )
    target = PureStrategy(optimal_locations(k))
    pointy = strong.is_point() and strong.as_pure() == target
    cond2 = ConditionResult(
        COND_OPTIMAL_POINT_MASS,
        pointy,
        None if pointy else {"expected": target.locations},
    )
    return _report([cond1, cond2])


def two_player_equilibrium(game: Game) -> MixedProfile:
    """The canonical (imitation, optimum) equilibrium of a two-player game, counts in any order."""
    if game.num_players != 2:
        raise WrongGameKind("two-player construction needs exactly two players")
    if has_dominant_player(game) is not None:
        return construct_mixed(game, find_partition(game))
    return MixedProfile.from_pure(construct_pure(game))
