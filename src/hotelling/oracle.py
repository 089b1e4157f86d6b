"""Exact best-response search and no-beneficial-deviation certification.

Against finitely many opponent facility positions, a player's payoff is
piecewise linear in each of her own coordinates with breakpoints exactly at
opponent positions. Its supremum over a gap is reached in the one-sided
limit at the gap's ends, so the candidate family {just below, exactly at,
just above each opponent position} is exhaustive: the true supremum equals
the best value over ordered subsets of that family, evaluated as eps -> 0+
limits. The test suite checks this family argument against exact grid
families and against a gap-local knapsack over the opponents' points.

The same fact makes the search polynomial: a facility's cell depends only
on its nearest own neighbours and its nearest opponents, so a subset's
value is a sum of terms over its first facility, each pair of neighbours
and its last, the halves of ``mixed._chain_pay``'s cell, on integers
throughout: the family's keys are read from the opponents' integer tables,
and only the witness's entries become ``OffsetLocation``s. A dynamic
program over the sorted family finds the best chain of m candidates in
``O((draws + m) * |F|^2)`` steps.

Every answer is exact or refused: a witness of fewer than one or more than
``_MAX_WITNESS`` facilities is an input error, and opponents with more
than ``DEFAULT_SUPPORT_CAP`` joint draws raise ``SupportTooLarge``. Both
are checked for every player before ``certify_no_deviation`` runs any
search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import ONE, ZERO, Game, PureProfile, as_fraction
from .errors import InvalidInput
from .mixed import (
    MixedProfile,
    MixedStrategy,
    _nearest,
    _refuse_too_many_draws,
    _scaled_supports,
    _sorted_draws,
    mixed_payoff,
    optimal_locations,
)
from .payoff import _SIDE_EPS, OffsetLocation, _in_unit

# the most facilities a witness may hold
_MAX_WITNESS = 10**5
# a side by its offset on the doubled grid
_SIDES = {offset: side for side, offset in _SIDE_EPS.items()}


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
    supremum is always exact: every subset is valued on integers by the
    halves of ``mixed_payoff``'s cell formula.
    """

    supremum_payoff: Fraction
    attained: bool
    witness: tuple[OffsetLocation, ...]
    gain: Fraction | None = None


def candidate_family(positions: Iterable[Fraction]) -> tuple[OffsetLocation, ...]:
    """All one-sided and exact placements around the given positions.

    Each position is coerced and range-checked once, as ``OffsetLocation``
    would check it, and its members are built without further checks. The
    search never calls it: it builds the same family as integer pairs from
    the opponents' tables (``_grid_family``), and this list of
    ``OffsetLocation``s is the reference the tests hold those pairs to.
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


def _grid_family(opponents: Sequence[MixedStrategy]) -> tuple[int, list[tuple[int, int]]]:
    """The candidate family as sorted integer pairs on the opponents' grid.

    ``half`` is the lcm of the opponents' table scales, and each position
    some support entry uses is read from its table as an integer ``q`` over
    it. Each ``q`` gives ``(q, offset)`` for the offsets -1, 0 and +1 of
    ``_SIDE_EPS``, none below 0 and none above ``half``: the
    ``(position, side)`` list of ``candidate_family``, in its order.
    """
    tables = [x._table for x in opponents]
    half = math.lcm(*(own for own, _, _, _ in tables))
    points = sorted({i * (half // own) for own, ints, _, _ in tables for i in set(ints)})
    family = []
    for q in points:
        if q:
            family.append((q, -1))
        family.append((q, 0))
        if q < half:
            family.append((q, 1))
    return half, family


def _padded(family: Sequence[tuple[int, int]], half: int, needed: int) -> tuple[int, list[tuple[int, int]]]:
    """The family with ``needed`` deterministic exact points strictly inside
    the gaps between its positions and the ends, on a grid fine enough for
    all of them, and that grid's ``half``.

    Used when the player has more facilities than the candidate family has
    slots; interior extras never change the achievable mass once both ends
    of every gap are approached, so they only pad the witness. Fillers
    halve each gap, then quarter it, and so on, gap after gap, so a depth
    ``d`` holds ``2**(d - 1)`` per gap; the grid is refined by ``2**depth``
    for the deepest one needed.
    """
    ends = [0, *sorted({q for q, _ in family}), half]
    gaps = [(a, b) for a, b in zip(ends, ends[1:]) if a < b]
    depth = 1
    while len(gaps) * (2**depth - 1) < needed:
        depth += 1
    fillers = (
        ((a << depth) + ((b - a) * num << (depth - level)), 0)
        for level in range(1, depth + 1)
        for a, b in gaps
        for num in range(1, 2**level, 2)
    )
    refined = [(q << depth, side) for q, side in family]
    return half << depth, sorted([*refined, *itertools.islice(fillers, needed)])


def _refuse_too_large(m: int) -> None:
    """The one size rule, checked by ``_checked_family`` before any filler or
    draw is built: a witness of no facility, or of more than
    ``_MAX_WITNESS`` facilities, is an input error."""
    if m < 1:
        raise InvalidInput(f"player must place at least one facility, got m={m}")
    if m > _MAX_WITNESS:
        raise InvalidInput(f"a witness of {m} facilities exceeds the limit of {_MAX_WITNESS}")


def _best_chain(
    head: Sequence[int],
    tail: Sequence[int],
    pair: Sequence[Sequence[int]],
    m: int,
    allowed: Sequence[bool],
) -> tuple[int, list[int]] | None:
    """The best chain of ``m`` allowed candidates and its value, None if
    there is none; of equal chains, the lexicographically smallest.

    ``pair[a][g]`` is the term of candidate ``a`` followed by ``a + 1 + g``.
    A chain's j-th candidate is ``j + t`` with ``0 <= t <= slack = |F| - m``,
    and ``t`` never falls along it. ``best[j][t]`` is the best value of its
    facilities from the j-th on, the j-th being ``j + t``, tail included and
    head left out; the witness is walked greedily from the smallest ``t``
    that keeps the value.
    """
    slack = len(head) - m
    row = [tail[m - 1 + t] if allowed[m - 1 + t] else None for t in range(slack + 1)]
    best = [row]
    for j in range(m - 2, -1, -1):
        after, row = row, []
        for t in range(slack + 1):
            top = None
            if allowed[j + t]:
                weights = pair[j + t]
                for u in range(t, slack + 1):
                    if after[u] is not None:
                        value = weights[u - t] + after[u]
                        if top is None or value > top:
                            top = value
            row.append(top)
        best.append(row)
    best.reverse()
    totals = [None if v is None else head[t] + v for t, v in enumerate(best[0])]
    if all(v is None for v in totals):
        return None
    top = max(v for v in totals if v is not None)
    t = totals.index(top)
    chain = [t]
    for j in range(1, m):
        weights, goal, after = pair[j - 1 + t], best[j - 1][t], best[j]
        t = next(u for u in range(t, slack + 1) if after[u] is not None and weights[u - t] + after[u] == goal)
        chain.append(j + t)
    return top, chain


def _best_subset(
    family: Sequence[tuple[int, int]],
    half: int,
    m: int,
    opponents: Sequence[MixedStrategy],
) -> tuple[Fraction, bool, tuple[OffsetLocation, ...]]:
    """The one search of ``best_response`` and ``certify_no_deviation``,
    which refuse first (``_checked_family``): the best m-subset of the
    sorted ``family`` of ``(q, offset)`` pairs, positions ``q / half``,
    padded with gap fillers (``_padded``) when it is shorter than ``m``.
    Every opponent table's scale divides ``half``.

    The family and the opponents' tables share one integer grid, doubled so
    every position is even: a candidate's position is ``2q`` and its key
    ``2q + offset``, so a one-sided key is odd and meets no opponent. Each
    draw is bisected once per candidate (``_nearest``). A subset's value is
    then a head term for its first candidate, a pair term for each pair of
    neighbours and a tail term for its last: the halves of ``_chain_pay``'s
    cell, summed over the draws as integers. ``_best_chain`` maximizes
    them over all candidates, and again over the exact ones alone.
    Returns the supremum, one Fraction built at the end, whether it is
    attained, and the witness: the smallest all-exact maximizer if any,
    else the smallest maximizer. Only the witness's ``m`` entries become
    ``OffsetLocation``s.
    """
    if m > len(family):  # one subset, never all-exact: the family holds a one-sided entry
        half, family = _padded(family, half, m - len(family))
    tables = [x._table for x in opponents]
    scale = 2 * half
    split = math.lcm(*range(1, len(opponents) + 2))
    xs = [2 * q for q, _ in family]
    keys = [2 * q + side for q, side in family]
    # neighbours in a chain of m are at most |F| - m + 1 candidates apart
    reach = len(family) - m + 2 if m > 1 else 1
    head = [0] * len(family)
    tail = [0] * len(family)
    pair = [[0] * (reach - 1) for _ in family]
    for weight, opps in _sorted_draws(_scaled_supports(opponents, scale), scale):
        bounds = _nearest(keys, opps, split)
        for a, (x, (low, high, share)) in enumerate(zip(xs, bounds)):
            head[a] -= weight * share * (-x if -x > low else low)
            tail[a] += weight * share * (2 * scale - x if 2 * scale - x < high else high)
            row = pair[a]
            for g, (y, (below, _, other)) in enumerate(zip(xs[a + 1 : a + reach], bounds[a + 1 : a + reach])):
                row[g] += weight * (share * (y if y < high else high) - other * (x if x > below else below))
    top, chain = _best_chain(head, tail, pair, m, [True] * len(family))
    exact = _best_chain(head, tail, pair, m, [side == 0 for _, side in family])
    attained = exact is not None and exact[0] == top
    if attained:
        chain = exact[1]
    den = 2 * scale * split * math.prod(probs for _, _, probs, _ in tables)
    entries = [family[i] for i in chain]
    witness = tuple(OffsetLocation._checked(Fraction(q, half), _SIDES[side]) for q, side in entries)
    return Fraction(top, den), attained, witness


def _checked_family(opponents: Sequence[MixedStrategy], m: int) -> tuple[int, list[tuple[int, int]]]:
    """The grid family (``_grid_family``) of an m-facility player against
    the opponents, once its search is known to run: ``_refuse_too_large``,
    then the cap on the opponents' joint draws."""
    _refuse_too_large(m)
    checked = _grid_family(opponents)
    _refuse_too_many_draws(math.prod(len(x._table[3]) for x in opponents))
    return checked


def _deviation(
    checked: tuple[int, list[tuple[int, int]]],
    opponents: Sequence[MixedStrategy],
    m: int,
    current_payoff: Fraction | None,
) -> DeviationResult:
    """The best response over a grid family that ``_checked_family`` returned."""
    half, family = checked
    if not family:
        # no competition: every strategy collects the whole customer mass
        best, attained = ONE, True
        witness = tuple(OffsetLocation(x, "exact") for x in optimal_locations(m))
    else:
        best, attained, witness = _best_subset(family, half, m, opponents)
    gain = None if current_payoff is None else best - current_payoff
    return DeviationResult(best, attained, witness, gain)


def best_response(
    opponents: Sequence[MixedStrategy],
    m: int,
    current_payoff: Fraction | None = None,
) -> DeviationResult:
    """Exact supremum payoff of an m-facility player against the opponents.

    Maximizes over ordered m-subsets of the offset candidate family, each
    valued in the eps -> 0+ limit. Ties are broken toward the
    lexicographically smallest witness; when the supremum is attained, the
    witness reported is the smallest all-exact maximizer. Raises
    ``InvalidInput`` for fewer than one or more than ``_MAX_WITNESS``
    facilities, then ``SupportTooLarge`` beyond ``DEFAULT_SUPPORT_CAP``
    opponent draws.
    """
    return _deviation(_checked_family(opponents, m), opponents, m, current_payoff)


def certify_no_deviation(
    game: Game, profile: MixedProfile | PureProfile
) -> tuple[DeviationResult, ...]:
    """Best response for every player; all gains <= 0 certifies equilibrium.

    Any strictly positive gain is a constructive refutation: its witness is
    a beneficial deviation for that player. Every player's search is
    checked, in player order, before the first one runs: ``InvalidInput``
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
