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
from typing import Sequence

from .core import (
    FacilityClass,
    FacilityRef,
    Game,
    PureProfile,
    PureStrategy,
    _co_located,
    _point_classes,
    as_fraction,
    has_dominant_player,
    require_profile,
)
from .errors import ConstructionUnavailable, InvalidPartition, WrongGameKind
from .mixed import (
    MixedProfile,
    MixedStrategy,
    SoiResult,
    _uniform_subsets,
    is_soi,
    optimal_locations,
)
from .payoff import MassReport, _mass_report

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
    refs = profile.refs()
    scale, points = _co_located(refs)
    report = _mass_report(profile.num_players, scale, points)
    return _report(_single_unit_conditions(refs, points, _point_classes(points), report))


def _single_unit_conditions(
    refs: Sequence[FacilityRef], points: Sequence, classes: Sequence[FacilityClass], report: MassReport
) -> list[ConditionResult]:
    """T3-1 and T3-2 with each facility as its own player, numbered in ``refs`` order.

    ``points`` and ``classes`` are the profile's ``_co_located`` grid and its
    ``_point_classes``. Masses depend only on how many facilities share each
    point, so a multi-unit profile's report serves its flattening unchanged.
    """
    lone_ends = [points[k][2][0].position for k in (0, len(points) - 1) if classes[k].is_lone]
    cond1 = ConditionResult(
        COND_PAIRED_EXTREMES,
        not lone_ends,
        None if not lone_ends else {"position": lone_ends[0]},
    )

    # the largest one-sided mass, the first in (position, side) order;
    # co-located facilities share their one-sided masses
    sides = (("left", report.left_masses), ("right", report.right_masses))
    position, side, side_mass = max(
        ((group[0].position, side, of[group[0]]) for _, _, group in points for side, of in sides),
        key=lambda entry: entry[2],
    )
    payer = next((i for i, ref in enumerate(refs) if report.facility_masses[ref] < side_mass), None)
    witness2 = None
    if payer is not None:
        witness2 = {
            "player": payer,
            "payoff": report.facility_masses[refs[payer]],
            "position": position,
            "side": side,
            "side_mass": side_mass,
        }
    return [cond1, ConditionResult(COND_PAYOFF_COVERS_SIDES, payer is None, witness2)]


def verify_multi_unit(game: Game, profile: PureProfile) -> VerificationReport:
    """Necessary-and-sufficient equilibrium check for multi-unit profiles.

    A monopoly has no competitor to deviate against, so every one-player
    profile is an equilibrium and gets a true report with no conditions,
    as in ``exists_pure`` and ``certify_no_deviation``.
    """
    require_profile(game, profile)
    if game.num_players == 1:
        return _report([])
    refs = profile.refs()  # by player, then slot
    scale, points = _co_located(refs)
    report = _mass_report(game.num_players, scale, points)
    classes = _point_classes(points)

    # lone facilities beside a point their owner occupies, left side first
    isolated = [
        (group[0], j)
        for k, (_, _, group) in enumerate(points)
        if classes[k].is_lone
        for j in (k - 1, k + 1)
        if 0 <= j < len(points) and group[0].player in classes[j].co_located_players
    ]
    witness1 = None
    if isolated:
        ref, j = min(isolated, key=lambda pair: (pair[0].player, pair[0].slot))
        witness1 = {
            "player": ref.player,
            "position": ref.position,
            "neighbor": points[j][2][0].position,
        }
    cond1 = ConditionResult(COND_LONE_ISOLATION, witness1 is None, witness1)

    witness2 = None
    for player, own_refs in itertools.groupby(refs, key=lambda r: r.player):
        values = [(r.position, report.facility_masses[r]) for r in own_refs]
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

    # the flattened profile numbers facilities in (player, slot) order, as refs does
    failed = [c for c in _single_unit_conditions(refs, points, classes, report) if not c.passed]
    witness3 = {"condition": failed[0].condition, **failed[0].witness} if failed else None
    cond3 = ConditionResult(COND_FLATTENED_EQUILIBRIUM, not failed, witness3)

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


def _refuse_dominant(game: Game) -> None:
    dom = has_dominant_player(game)
    if dom is not None:
        raise ConstructionUnavailable(f"player {dom} is dominant: the game has no pure equilibrium")


def _paired(
    players: Sequence[int], counts: Sequence[int], positions: Sequence[Fraction], held: list[list[Fraction]]
) -> PureProfile:
    """Deal every position twice onto ``held``, cycling through
    ``positions`` in consecutive blocks of ``counts[player]`` for
    ``players`` in order, and return each player's holdings sorted.

    When no player's count exceeds ``len(positions)``, which no dominant
    player means, no block is long enough to receive both copies of a
    position.
    """
    dealt = itertools.cycle(positions)
    for player in players:
        held[player].extend(itertools.islice(dealt, counts[player]))
    return PureProfile(tuple(PureStrategy(tuple(sorted(own))) for own in held))


def construct_even(game: Game) -> PureProfile:
    """Pure equilibrium for even n >= 4 without a dominant player.

    Places facilities at (2r-1)/n for r in 1..n/2, twice each, and hands
    them out in consecutive blocks of the ascending player order
    (``_paired``).
    """
    _refuse_dominant(game)
    if game.n % 2 != 0 or game.n < 4:
        raise ConstructionUnavailable(f"even construction needs even n >= 4, got n={game.n}")
    positions = [Fraction(2 * r + 1, game.n) for r in range(game.n // 2)]
    return _paired(game.ascending_order(), game.counts, positions, [[] for _ in game.counts])


def construct_odd(game: Game) -> PureProfile:
    """Pure equilibrium for odd n >= 5, N >= 3, without a dominant player.

    Writing p = 1/(n+1) and n1 for the smallest facility count, the profile
    consists of a left pair at p, an alternating run of 2*n1 - 1 lone
    facilities (odd ranks to the smallest player at (i+2)p, even ranks at
    (i+1)p + ip/n1 to whichever other player has the most facilities left,
    ties to the earliest), and pairs every 2p up to n/(n+1), dealt to the
    other players as ``construct_even`` deals its pairs. The smallest
    player's facilities each attract p(1 + 1/n1); every other facility
    attracts exactly p.
    """
    _refuse_dominant(game)
    # an odd n split between one or two players has a dominant one, so N >= 3 here
    if game.n % 2 == 0 or game.n < 5:
        raise ConstructionUnavailable(f"odd construction needs odd n >= 5, got n={game.n}")

    p = Fraction(1, game.n + 1)
    smallest, *others = game.ascending_order()
    n1 = game.counts[smallest]
    held: list[list[Fraction]] = [[] for _ in game.counts]
    remaining = list(game.counts)

    def give(player: int, position: Fraction) -> None:
        held[player].append(position)
        remaining[player] -= 1

    give(others[-1], p)
    give(others[-2], p)
    for i in range(1, 2 * n1):
        if i % 2 == 1:
            give(smallest, (i + 2) * p)
        else:
            # max keeps the first of equal counts: ties go to the earliest player
            give(max(others, key=remaining.__getitem__), (i + 1) * p + Fraction(i, n1) * p)

    residual = [remaining[j] for j in others]
    assert remaining[smallest] == 0
    # residual counts must again lack a dominant player for the pairing to work
    assert all(2 * c <= sum(residual) for c in residual), (game.counts, residual)
    positions = [(2 * n1 + 3 + 2 * r) * p for r in range(sum(residual) // 2)]
    return _paired(others, remaining, positions, held)


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

    # every location as an integer over 2 * n_dom, the optimal points' denominator
    scale = 2 * n_dom
    strategies: list[MixedStrategy | None] = [None] * game.num_players
    strategies[dom] = _uniform_subsets(range(1, scale, 2), scale, n_dom)
    for i, block in zip(others, plan.blocks):
        points = sorted(x.numerator * (scale // x.denominator) for x in map(as_fraction, block))
        strategies[i] = _uniform_subsets(points, scale, game.counts[i])
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
