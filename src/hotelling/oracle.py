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
throughout: every table goes once onto one grid, twice the lcm of their
scales, so every position is even and a one-sided key odd; the family and
the draws share it, and only the witness's entries become
``OffsetLocation``s. One dynamic
program over the sorted family finds the best chain of m candidates in
``O((draws + m) * |F|^2)`` steps; each term carries its candidate's exact
indicator, so the same run also decides whether an all-exact chain reaches
the supremum (``attained``). When certifying, the search pays the player's
own chain against the same opponent draws with the same cell formula, so
the gain needs no second pass over them.

Every answer is exact or refused by one size rule (``_refuse``): a
witness size that is not an ``int``, or of fewer than one or more than
``_MAX_WITNESS`` facilities, is an input error, and opponents with more
than ``DEFAULT_SUPPORT_CAP`` joint draws raise ``SupportTooLarge``. Both
entry points check it for every player before any search runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .core import ONE, ZERO, Game, PureProfile, as_fraction, require_profile
from .errors import InvalidInput
from .mixed import (
    MixedProfile,
    MixedStrategy,
    _chain_halves,
    _chain_pay,
    _nearest,
    _refuse_too_many_draws,
    _Row,
    _scaled_supports,
    _sorted_draws,
    optimal_locations,
)
from .payoff import _SIDE_EPS, OffsetLocation, _in_unit

# the most facilities a witness may hold
_MAX_WITNESS = 10**5
# a side by its offset on the doubled grid
_SIDES = {offset: side for side, offset in _SIDE_EPS.items()}
# a support's (row, weight) entries on the doubled grid, see _grid
_Rows = Sequence[tuple[_Row, int]]


@dataclass(frozen=True)
class DeviationResult:
    """Best achievable payoff for one player against fixed opponents.

    ``attained`` tells whether some all-exact subset of the candidate
    family reaches the supremum; otherwise the witness carries one-sided
    limits. The search's one chain DP decides it, as the exact-candidate
    count of a best chain. It says nothing of exact points off the family:
    a lone facility strictly between two opponents earns the same anywhere
    in that gap, so a supremum reported as not attained may still be
    earned by an exact point inside a gap. ``gain`` is relative to the
    player's payoff in the profile under certification, paid by the search
    from its own opponent draws; ``best_response`` certifies no profile,
    so its ``gain`` is None. The supremum is always exact: every subset is
    valued on integers by the halves of ``mixed_payoff``'s cell formula.
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
    the opponents' positions on its grid (``_grid_family``), and this list of
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


def _grid(strategies: Sequence[MixedStrategy]) -> tuple[int, list[list[tuple[_Row, int]]], list[set[int]], list[int]]:
    """The one grid of the oracle: its scale, twice the lcm of the
    strategies' table scales, so every position on it is even; then each
    strategy's support as rows on it (``_scaled_supports``), the support's
    distinct positions, and its probability denominator."""
    tables = [x._table for x in strategies]
    scale = 2 * math.lcm(*(own for own, _, _, _ in tables))
    supports = _scaled_supports(strategies, scale)
    points = [set(itertools.chain.from_iterable(row for row, _ in support)) for support in supports]
    return scale, supports, points, [probs for _, _, probs, _ in tables]


def _grid_family(points: Sequence[set[int]], scale: int) -> list[tuple[int, int]]:
    """The candidate family against opponents holding ``points``, each
    one's distinct positions on the grid of ``scale`` (``_grid``), as
    sorted integer pairs.

    Each position ``x`` of their union gives ``(x, offset)`` for the
    offsets -1, 0 and +1 of ``_SIDE_EPS``, none below 0 and none above
    ``scale``: the ``(position, side)`` list of ``candidate_family``, in
    its order, with positions ``x / scale``.
    """
    family = []
    for x in sorted(set().union(*points)):
        if x:
            family.append((x, -1))
        family.append((x, 0))
        if x < scale:
            family.append((x, 1))
    return family


def _padded(
    family: Sequence[tuple[int, int]], scale: int, needed: int, supports: Sequence[_Rows]
) -> tuple[int, list[tuple[int, int]], list[list[tuple[_Row, int]]]]:
    """The family with ``needed`` deterministic exact points strictly inside
    the gaps between its positions and the ends, on a grid fine enough for
    all of them, that grid's scale, and the supports' rows on it.

    Used when the player has more facilities than the candidate family has
    slots; interior extras never change the achievable mass once both ends
    of every gap are approached, so they only pad the witness. Fillers
    halve each gap, then quarter it, and so on, gap after gap, so a depth
    ``d`` holds ``2**(d - 1)`` per gap; the grid, and every position of
    the supports' rows, is refined by ``2**depth`` for the deepest one
    needed. Every gap's ends are even, so every filler is too.
    """
    ends = [0, *sorted({x for x, _ in family}), scale]
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
    refined = [(x << depth, side) for x, side in family]
    rows = [[(tuple(x << depth for x in row), w) for row, w in support] for support in supports]
    return scale << depth, sorted([*refined, *itertools.islice(fillers, needed)]), rows


def _refuse(m: int, draws: int) -> None:
    """The one size rule, run for every player before any search, filler
    or draw is built: a witness size ``m`` that is not an ``int`` (a
    ``bool`` is not one), or is below one or above ``_MAX_WITNESS``, is an
    input error, and more than ``DEFAULT_SUPPORT_CAP`` joint opponent
    ``draws`` raise ``SupportTooLarge``."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise InvalidInput(f"player must place an integer number of facilities, got m={m!r}")
    if m < 1:
        raise InvalidInput(f"player must place at least one facility, got m={m}")
    if m > _MAX_WITNESS:
        raise InvalidInput(f"a witness of {m} facilities exceeds the limit of {_MAX_WITNESS}")
    _refuse_too_many_draws(draws)


def _best_chain(
    head: Sequence[int],
    tail: Sequence[int],
    pair: Sequence[Sequence[int]],
    m: int,
) -> tuple[int, bool, list[int]]:
    """The best chain of ``m`` candidates: its value, whether an all-exact
    chain reaches that value, and the chain, by one DP run over scores.

    ``pair[a][g]`` is the term of candidate ``a`` followed by ``a + 1 + g``.
    Every term is scored: ``(m + 1)`` times its value, and a tail or pair
    term adds 1 when its candidate ``a`` is exact. So a chain scores
    ``(m + 1) * value + (its number of exact candidates)``, the count never
    reaching ``m + 1``, and the best score holds the best value and, of the
    chains with that value, the most exact candidates: ``attained`` is a
    count of ``m``. A chain's j-th candidate is ``j + t`` with
    ``0 <= t <= slack = |F| - m``, and ``t`` never falls along it.
    ``best[j][t]`` is the best score of its facilities from the j-th on,
    the j-th being ``j + t``, tail included and head left out. The witness
    is walked greedily from the smallest ``t`` that keeps the goal: the
    score when attained, which gives the smallest all-exact maximizer, and
    otherwise the score floor-divided by ``m + 1``, the value, which gives
    the smallest maximizer.
    """
    slack = len(head) - m
    row = list(tail[m - 1 :])
    best = [row]
    for j in range(m - 2, -1, -1):
        after = row
        row = [max(map(add, pair[j + t], after[t:])) for t in range(slack + 1)]
        best.append(row)
    best.reverse()
    totals = list(map(add, head, best[0]))
    top = max(totals)
    value, count = divmod(top, m + 1)
    attained = count == m
    unit = 1 if attained else m + 1
    t = next(t for t, score in enumerate(totals) if score // unit == top // unit)
    chain = [t]
    for j in range(1, m):
        weights, goal, after = pair[j - 1 + t], best[j - 1][t] // unit, best[j]
        t = next(u for u in range(t, slack + 1) if (weights[u - t] + after[u]) // unit == goal)
        chain.append(j + t)
    return value, attained, chain


def _best_subset(
    family: Sequence[tuple[int, int]],
    scale: int,
    m: int,
    rows: Sequence[_Rows],
    den: int,
    own: tuple[_Rows, int] | None = None,
) -> DeviationResult:
    """The one search of ``best_response`` and ``certify_no_deviation``,
    which run ``_refuse`` first: the best m-subset of the sorted
    ``family`` of ``(x, offset)`` pairs, positions ``x / scale``, padded
    with gap fillers (``_padded``) when it is shorter than ``m``. ``rows``
    holds each opponent's support as ``(row, weight)`` entries on the same
    grid (``_grid``), and ``den`` is the product of their probability
    denominators; ``own`` is the player's own support on that grid with
    its denominator, or None. An empty family means no competition: every
    strategy, the own one too, collects the whole customer mass.

    Every position is even, and a candidate's key is ``x + offset``, so a
    one-sided key is odd and meets no opponent. Each draw is bisected once
    per candidate (``_nearest``). A subset's value is then a head term for
    its first candidate, a pair term for each pair of neighbours and a
    tail term for its last: the halves of ``_chain_pay``'s cell, summed
    over the draws as integers, each draw's weight times ``m + 1`` and
    each exact candidate's tail and pair terms plus 1, the scores of
    ``_best_chain``'s one run. Against every draw the own chain is paid by
    ``_chain_pay`` of its ``_chain_halves``, the cell formula
    ``mixed_payoff`` pays it by.

    The supremum is one Fraction built at the end; the witness is the
    smallest all-exact maximizer if any, else the smallest maximizer, and
    the gain is over the own chain's payoff (None without ``own``). Only
    the witness's ``m`` entries become ``OffsetLocation``s.
    """
    if not family:
        witness = tuple(OffsetLocation(x, "exact") for x in optimal_locations(m))
        return DeviationResult(ONE, True, witness, None if own is None else ZERO)
    own_rows, own_den = own or ((), 1)
    if m > len(family):  # one subset, never all-exact: the family holds a one-sided entry
        scale, family, (*rows, own_rows) = _padded(family, scale, m - len(family), [*rows, own_rows])
    score = m + 1
    split = math.lcm(*range(1, len(rows) + 2))
    xs = [x for x, _ in family]
    keys = [x + side for x, side in family]
    own_keys, own_halves = _chain_halves(own_rows, scale)
    # neighbours in a chain of m are at most |F| - m + 1 candidates apart
    reach = len(family) - m + 2 if m > 1 else 1
    exact = [int(side == 0) for _, side in family]
    head = [0] * len(family)
    tail = exact[:]
    pair = [[e] * (reach - 1) for e in exact]
    paid = 0
    for weight, opps in _sorted_draws(rows, scale):
        paid += weight * _chain_pay(own_keys, own_halves, opps, split)
        weight *= score
        bounds = _nearest(keys, opps, split)
        for a, (x, (low, high, share)) in enumerate(zip(xs, bounds)):
            head[a] -= weight * share * (-x if -x > low else low)
            tail[a] += weight * share * (2 * scale - x if 2 * scale - x < high else high)
            row = pair[a]
            for g, (y, (below, _, other)) in enumerate(zip(xs[a + 1 : a + reach], bounds[a + 1 : a + reach])):
                row[g] += weight * (share * (y if y < high else high) - other * (x if x > below else below))
    value, attained, chain = _best_chain(head, tail, pair, m)
    den *= 2 * scale * split
    entries = [family[i] for i in chain]
    witness = tuple(OffsetLocation._checked(Fraction(x, scale), _SIDES[side]) for x, side in entries)
    gain = None if own is None else Fraction(value * own_den - paid, den * own_den)
    return DeviationResult(Fraction(value, den), attained, witness, gain)


def best_response(opponents: Sequence[MixedStrategy], m: int) -> DeviationResult:
    """Exact supremum payoff of an m-facility player against the opponents.

    Maximizes over ordered m-subsets of the offset candidate family, each
    valued in the eps -> 0+ limit. Ties are broken toward the
    lexicographically smallest witness; when the supremum is attained, the
    witness reported is the smallest all-exact maximizer. ``gain`` is
    None: no profile is under certification. Raises ``InvalidInput`` for
    a non-``int`` ``m`` or for fewer than one or more than
    ``_MAX_WITNESS`` facilities, then ``SupportTooLarge`` beyond
    ``DEFAULT_SUPPORT_CAP`` opponent draws.
    """
    _refuse(m, math.prod(len(x._table[3]) for x in opponents))
    scale, rows, points, dens = _grid(opponents)
    return _best_subset(_grid_family(points, scale), scale, m, rows, math.prod(dens))


def certify_no_deviation(
    game: Game, profile: MixedProfile | PureProfile
) -> tuple[DeviationResult, ...]:
    """Best response for every player; all gains <= 0 certifies equilibrium.

    Any strictly positive gain is a constructive refutation: its witness is
    a beneficial deviation for that player. The profile's shape is checked
    first, then every player's ``_refuse``, in player order, before the
    first search: ``InvalidInput`` or ``SupportTooLarge`` for any player
    is raised before any search. Every table goes onto one grid
    (``_grid``), each player's family is built from the other players'
    positions on it, and each player's search pays the player's own chain
    against the opponent draws it enumerates anyway, so the gain takes no
    separate ``mixed_payoff`` pass.
    """
    if isinstance(profile, PureProfile):
        profile = MixedProfile.from_pure(profile)
    require_profile(game, profile)
    sizes = [len(x._table[3]) for x in profile.strategies]
    for i, m in enumerate(game.counts):
        _refuse(m, math.prod(sizes[:i] + sizes[i + 1 :]))
    scale, supports, points, dens = _grid(profile.strategies)
    return tuple(
        _best_subset(
            _grid_family(points[:i] + points[i + 1 :], scale),
            scale,
            m,
            supports[:i] + supports[i + 1 :],
            math.prod(dens[:i] + dens[i + 1 :]),
            (supports[i], dens[i]),
        )
        for i, m in enumerate(game.counts)
    )


def is_equilibrium(results: Sequence[DeviationResult]) -> bool:
    return all(r.gain is not None and r.gain <= 0 for r in results)
