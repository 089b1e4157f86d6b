"""Exact best-response search and no-beneficial-deviation certification.

Against finitely many opponent facility positions, a player's payoff is
piecewise linear in each of her own coordinates with breakpoints exactly at
opponent positions. Its supremum over a gap is reached in the one-sided
limit at the gap's ends, so the candidate family {just below, exactly at,
just above each opponent position} is exhaustive: the true supremum equals
the best value over ordered subsets of that family, evaluated as eps -> 0+
limits. The test suite checks this family argument against exact grid
families and against a gap-local knapsack over the opponents' points.

The same fact values each subset: a facility's cell depends only on its
nearest own neighbours and its nearest opponents, so each subset is paid
per opponent draw by ``mixed._chain_pay``, the one chain-cell kernel that
``mixed_payoff`` pays every player with, on integers throughout.

Every answer is exact or refused: a search over more than
``DEFAULT_SEARCH_CAP`` subsets or facilities raises ``SearchTooLarge``
before any draw is built, and opponents with more than
``DEFAULT_SUPPORT_CAP`` joint draws raise ``SupportTooLarge``. Both are
checked for every player before ``certify_no_deviation`` runs any search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import ONE, ZERO, Game, PureProfile, as_fraction
from .errors import InvalidInput, SearchTooLarge
from .mixed import (
    MixedProfile,
    MixedStrategy,
    _chain_pay,
    _positions,
    _refuse_too_many_draws,
    _scaled_supports,
    _sorted_draws,
    mixed_payoff,
    optimal_locations,
)
from .payoff import _SIDE_EPS, OffsetLocation, _in_unit

DEFAULT_SEARCH_CAP = 10**5


@dataclass(frozen=True)
class DeviationResult:
    """Best achievable payoff for one player against fixed opponents.

    ``attained`` tells whether some all-exact subset of the candidate
    family reaches the supremum; otherwise the witness carries one-sided
    limits. It says nothing of exact points off the family: a lone facility
    strictly between two opponents earns the same anywhere in that gap, so
    a supremum reported as not attained may still be earned by an exact
    point inside a gap. ``gain`` is relative to the player's payoff in the
    profile under certification (None when no baseline was supplied). The
    supremum is always exact: ``mixed_payoff``'s integer cell kernel values
    every subset, and a search too large to run raises ``SearchTooLarge``
    instead of returning a result.
    """

    supremum_payoff: Fraction
    attained: bool
    witness: tuple[OffsetLocation, ...]
    gain: Fraction | None = None


def candidate_family(positions: Iterable[Fraction]) -> tuple[OffsetLocation, ...]:
    """All one-sided and exact placements around the given positions.

    Each position is coerced and range-checked once, as ``OffsetLocation``
    would check it, and its members are built without further checks.
    """
    family: list[OffsetLocation] = []
    for x in sorted(set(positions)):
        below = x > ZERO  # on the raw value: an uncomparable one raises TypeError here
        x = _in_unit(as_fraction(x))
        if below:
            family.append(OffsetLocation._checked(x, "below"))
        family.append(OffsetLocation._checked(x, "exact"))
        if x < ONE:
            family.append(OffsetLocation._checked(x, "above"))
    return tuple(family)


def _gap_fillers(positions: Sequence[Fraction], needed: int) -> list[OffsetLocation]:
    """Deterministic exact points strictly inside unoccupied gaps.

    Used when the player has more facilities than the candidate family has
    slots; interior extras never change the achievable mass once both ends
    of every gap are approached, so they only pad the witness.
    """
    pts = sorted(set(positions))
    gaps = [(ZERO, pts[0])] + list(zip(pts, pts[1:])) + [(pts[-1], ONE)]
    gaps = [(a, b) for a, b in gaps if a < b]
    fillers: list[OffsetLocation] = []
    depth = 1
    while len(fillers) < needed:
        denom = 2**depth
        for a, b in gaps:
            for num in range(1, denom, 2):
                fillers.append(OffsetLocation(a + (b - a) * Fraction(num, denom), "exact"))
                if len(fillers) == needed:
                    return fillers
        depth += 1
    return fillers


def _refuse_too_large(family_size: int, m: int) -> None:
    """The one size rule, checked by ``_checked_family`` before any filler or
    draw is built: raise ``InvalidInput`` for a witness of no
    facility, and ``SearchTooLarge`` for one of more than
    ``DEFAULT_SEARCH_CAP`` facilities or for more m-subsets of the family.

    The binomial is counted up only until it passes the cap: C(n, i) grows
    with i up to n/2, at least doubling from i = 1 on, so a few dozen steps
    decide it however large the family.
    """
    if m < 1:
        raise InvalidInput(f"player must place at least one facility, got m={m}")
    chosen = min(m, family_size)
    count = 1
    for i in range(min(chosen, family_size - chosen)):
        if count > DEFAULT_SEARCH_CAP:
            break
        count = count * (family_size - i) // (i + 1)
    if m > DEFAULT_SEARCH_CAP or count > DEFAULT_SEARCH_CAP:
        raise SearchTooLarge(
            f"{m} facilities over C({family_size},{chosen}) subsets exceed cap {DEFAULT_SEARCH_CAP}"
        )


def _best_subset(
    family: Sequence[OffsetLocation],
    m: int,
    opponents: Sequence[MixedStrategy],
) -> tuple[Fraction, bool, tuple[OffsetLocation, ...]]:
    """The one search of ``best_response`` and ``certify_no_deviation``,
    which refuse first (``_checked_family``): the best m-subset of the
    sorted ``family``, padded with gap fillers when it is shorter than ``m``.

    The family and the opponents' tables share one integer grid, doubled so
    every position is even; a candidate's key is its position plus its
    side's offset, so a one-sided key is odd and meets no opponent. Each
    subset's chain is assembled from halves built once per candidate, paid
    by ``_chain_pay`` per draw and compared as an integer.
    Returns the supremum, one Fraction built at the end, whether it is
    attained, and the witness: the smallest all-exact maximizer if any,
    else the smallest maximizer.
    """
    if m > len(family):  # one subset, never all-exact: the family holds a one-sided entry
        family = sorted([*family, *_gap_fillers([c.position for c in family], m - len(family))])
    tables = [x._table for x in opponents]
    scale = 2 * math.lcm(*(own for own, _, _, _ in tables), *(c.position.denominator for c in family))
    split = math.lcm(*range(1, len(opponents) + 2))
    draws = list(_sorted_draws(_scaled_supports(opponents, scale), scale))
    # per candidate, once: its bisect key, and its position as a neighbour's
    # half, as the first facility's left end and as the last one's right end
    xs = [c.position.numerator * (scale // c.position.denominator) for c in family]
    keys = [x + _SIDE_EPS[c.side] for x, c in zip(xs, family)]
    halves = [((x, 1),) for x in xs]
    heads = [((-x, 1),) for x in xs]
    tails = [((2 * scale - x, 1),) for x in xs]
    one_sided = {i for i, c in enumerate(family) if c.side != "exact"}
    best, best_witness, best_exact = 0, None, None
    for subset in itertools.combinations(range(len(family)), m):
        chain = []
        left = heads[subset[0]]
        for i, j in zip(subset, subset[1:]):
            chain.append((keys[i], left, halves[j]))
            left = halves[i]
        last = subset[-1]
        chain.append((keys[last], left, tails[last]))
        value = 0
        for weight, opps in draws:
            value += weight * _chain_pay(chain, opps, split)
        if best_witness is None or value > best:
            best, best_witness = value, subset
            best_exact = subset if one_sided.isdisjoint(subset) else None
        elif value == best and best_exact is None and one_sided.isdisjoint(subset):
            best_exact = subset
    den = 2 * scale * split * math.prod(probs for _, _, probs, _ in tables)
    witness = best_witness if best_exact is None else best_exact
    return Fraction(best, den), best_exact is not None, tuple(family[i] for i in witness)


def _checked_family(opponents: Sequence[MixedStrategy], m: int) -> tuple[OffsetLocation, ...]:
    """The candidate family of an m-facility player against the opponents,
    once its search is known to run: ``_refuse_too_large``, then the cap on
    the opponents' joint draws."""
    family = candidate_family(_positions(opponents))
    _refuse_too_large(len(family), m)
    _refuse_too_many_draws(math.prod(len(x._table[3]) for x in opponents))
    return family


def _deviation(
    family: Sequence[OffsetLocation],
    opponents: Sequence[MixedStrategy],
    m: int,
    current_payoff: Fraction | None,
) -> DeviationResult:
    """The best response over a family that ``_checked_family`` returned."""
    if not family:
        # no competition: every strategy collects the whole customer mass
        best, attained = ONE, True
        witness = tuple(OffsetLocation(x, "exact") for x in optimal_locations(m))
    else:
        best, attained, witness = _best_subset(family, m, opponents)
    gain = None if current_payoff is None else best - current_payoff
    return DeviationResult(best, attained, witness, gain)


def best_response(
    opponents: Sequence[MixedStrategy],
    m: int,
    current_payoff: Fraction | None = None,
) -> DeviationResult:
    """Exact supremum payoff of an m-facility player against the opponents.

    Enumerates ordered m-subsets of the offset candidate family and
    evaluates each in the eps -> 0+ limit. Ties are broken toward the
    lexicographically smallest witness; when the supremum is attained, the
    witness reported is the smallest all-exact maximizer. Raises
    ``SearchTooLarge`` beyond ``DEFAULT_SEARCH_CAP`` subsets or facilities,
    then ``SupportTooLarge`` beyond ``DEFAULT_SUPPORT_CAP`` opponent draws.
    """
    return _deviation(_checked_family(opponents, m), opponents, m, current_payoff)


def certify_no_deviation(
    game: Game, profile: MixedProfile | PureProfile
) -> tuple[DeviationResult, ...]:
    """Best response for every player; all gains <= 0 certifies equilibrium.

    Any strictly positive gain is a constructive refutation: its witness is
    a beneficial deviation for that player. Every player's search is
    checked, in player order, before the first one runs: ``SearchTooLarge``
    or ``SupportTooLarge`` for any player is raised before any search.
    """
    if isinstance(profile, PureProfile):
        profile = MixedProfile.from_pure(profile)
    current = mixed_payoff(game, profile)
    strategies = profile.strategies
    opponents = [strategies[:i] + strategies[i + 1 :] for i in range(game.num_players)]
    families = [_checked_family(x, m) for x, m in zip(opponents, game.counts)]
    return tuple(map(_deviation, families, opponents, game.counts, current))


def is_equilibrium(results: Sequence[DeviationResult]) -> bool:
    return all(r.gain is not None and r.gain <= 0 for r in results)
