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
``OffsetLocation``s. One dynamic program over the sorted family finds the
best chain of m candidates, or takes the whole family when it holds fewer:
the extra facilities are exact gap fillers, which add no mass and join
the witness, not the grid. Each term carries its candidate's exact
indicator, so the same run also decides whether an all-exact chain
reaches the supremum (``attained``). With ``m = 1`` there are no pair
terms. Otherwise a pair of candidates is far when the positions every
opponent draw holds put each one's nearest opponent between them: neither
cell then sees the other, so the chain breaks there, and the pair's term
is the first one's tail plus the second one's head. Only the near pairs,
a band of width ``w`` (``_band_width``), need the draws, and one suffix
maximum per DP row covers the far ones: ``O((draws + m) * |F| * (w +
1))`` steps (``_best_band``). When no pair is far, as against a mixture
that holds no position in every entry, the band holds every pair a chain
can use, ``w = |F| - m + 1``, and the same run takes ``O((draws + m) *
|F|^2)`` steps. When certifying, the search pays the player's own chain
against the same opponent draws with the same cell formula, so the gain
needs no second pass over them.

Every answer is exact or refused by one size rule (``_refuse``): a
witness size that is not an ``int``, or of fewer than one or more than
``_MAX_WITNESS`` facilities, is an input error, and opponents with more
than ``DEFAULT_SUPPORT_CAP`` joint draws raise ``SupportTooLarge``. Both
entry points check it for every player before any search runs.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le
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


def _grid(strategies: Sequence[MixedStrategy]) -> tuple[int, list[list[tuple[_Row, int]]], list[tuple[int, int, int]], list[int]]:
    """The one grid of the oracle: its scale, twice the lcm of the
    strategies' table scales, so every position on it is even; then each
    strategy's support as rows on it (``_scaled_supports``); every
    position once, sorted, as ``(x, some, every)``, with ``some`` the bit
    mask of the strategies that hold ``x`` in some entry and ``every`` of
    those that hold it in every entry; and each strategy's probability
    denominator."""
    tables = [x._table for x in strategies]
    scale = 2 * math.lcm(*(own for own, _, _, _ in tables))
    supports = _scaled_supports(strategies, scale)
    some: dict[int, int] = {}
    every: dict[int, int] = {}
    for i, support in enumerate(supports):
        bit = 1 << i
        rows = [row for row, _ in support]
        positions = set(itertools.chain.from_iterable(rows))
        for x in positions:
            some[x] = some.get(x, 0) | bit
        for x in positions.intersection(*rows):
            every[x] = every.get(x, 0) | bit
    table = [(x, some[x], every.get(x, 0)) for x in sorted(some)]
    return scale, supports, table, [probs for _, _, probs, _ in tables]


def _grid_family(
    table: Sequence[tuple[int, int, int]], scale: int, own: int = 0
) -> tuple[list[tuple[int, int]], list[int]]:
    """The candidate family against the strategies of ``table``
    (``_grid``) but those of the bit mask ``own``, as sorted integer
    pairs, and the positions that every joint draw of those strategies
    holds.

    Each position ``x`` they hold gives ``(x, offset)`` for the offsets
    -1, 0 and +1 of ``_SIDE_EPS``, none below 0 and none above ``scale``:
    the ``(position, side)`` list of ``candidate_family``, in its order,
    with positions ``x / scale``. Every draw holds a position that one of
    them holds in every entry: a point mass's positions, or those common
    to all entries of a mixed support.
    """
    others = ~own
    family = []
    held = []
    for x, some, every in table:
        if some & others:
            if x:
                family.append((x, -1))
            family.append((x, 0))
            if x < scale:
                family.append((x, 1))
            if every & others:
                held.append(x)
    return family, held


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


def _band_width(xs: Sequence[int], keys: Sequence[int], held: Sequence[int], scale: int, slack: int) -> int:
    """How many candidates past each candidate its pair terms may still
    need the draws for, up to ``slack + 1``, the most a chain's neighbours
    are apart.

    Every draw holds each ``held`` position, so candidate ``a``'s nearest
    opponent above, ``R_a``, is at most the first held position above its
    key, and ``b``'s nearest below, ``L_b``, at least the last held one
    below its key (the sentinels when there is none). When ``x_b`` is at
    or above the first and ``x_a`` at or below the second, the pair term
    of ``a`` before ``b`` is ``share_a * R_a - share_b * L_b`` in every
    draw: the pair is far. Both nearest opponents are then real, inside
    ``[0, scale]``, so the term is ``a``'s tail plus ``b``'s head. Both
    bounds rise with the candidate index, so a pair is far when a nearer
    ``b`` after the same ``a`` is: the width is the smallest ``w`` for
    which every pair ``(a, a + 1 + w)`` is far, tried from 0, and every
    pair with ``w`` or more candidates between is far too. With no
    ``held`` position the bounds are all sentinels, so no pair is far and
    the width is ``slack + 1`` at once (``slack + 1`` is below ``|F|``,
    since the search asks only for ``m >= 2``).
    """
    if not held:
        return slack + 1
    above = [*held, 3 * scale]
    below = [-scale, *held]
    bounds_r = list(map(above.__getitem__, map(bisect_right, itertools.repeat(held), keys)))
    bounds_l = list(map(below.__getitem__, map(bisect_left, itertools.repeat(held), keys)))
    width = 0
    while width <= slack and not (
        all(map(le, bounds_r, xs[width + 1 :])) and all(map(le, xs, bounds_l[width + 1 :]))
    ):
        width += 1
    return width


def _best_band(
    head: Sequence[int],
    tail: Sequence[int],
    pair: Sequence[Sequence[int]],
    m: int,
) -> tuple[int, bool, list[int]]:
    """The best chain of ``m`` candidates: its value, whether an all-exact
    chain reaches that value, and the chain, by one DP run over scores.

    ``pair[a][g]`` is the term of candidate ``a`` followed by ``a + 1 + g``
    for ``g`` below the band's width, every row as wide, and any later
    ``b``'s term is ``tail[a] + head[b]``: the far pairs, where the chain
    breaks (``_band_width``). Every term is scored: ``(m + 1)`` times its
    value, and a tail or pair term adds 1 when its candidate ``a`` is
    exact. So a chain scores ``(m + 1) * value + (its number of exact
    candidates)``, the count never reaching ``m + 1``, and the best score
    holds the best value and, of the chains with that value, the most
    exact candidates: ``attained`` is a count of ``m``. A chain's j-th
    candidate is ``j + t`` with ``0 <= t <= slack = |F| - m``, and ``t``
    never falls along it. ``best[j][t]`` is the best score of its
    facilities from the j-th on, the j-th being ``j + t``, tail included
    and head left out.

    Both row builders take ``O(m * (slack + 1) * (width + 1))`` steps,
    and the band's width picks one. A band of width ``slack + 1`` holds
    every pair a chain can use and has no far part; its rows are built
    per state, each one the maximum of a candidate's pair terms plus the
    row after. A narrower band's row is the elementwise maximum of the
    band's diagonals, each one added to the row after, and of ``tail``
    plus one suffix maximum (``accumulate``) of ``head`` plus the row
    after, for the far part. There are two because each wins where the
    other loses: at full width one ``max`` per state costs less than
    ``slack + 1`` diagonal passes per row, and on a narrow band a few
    diagonal passes cost less than one ``max`` call per state. The
    witness is walked greedily from the smallest ``t`` that keeps the
    goal, reading a far weight as ``tail[a] + head[b]``: the score when
    attained, which gives the smallest all-exact maximizer, and otherwise
    the score floor-divided by ``m + 1``, the value, which gives the
    smallest maximizer.
    """
    slack = len(head) - m
    width = len(pair[0]) if pair else 0
    row = list(tail[m - 1 :])
    best = [row]
    if width > slack:
        for j in range(m - 2, -1, -1):
            after = row
            row = [max(map(add, p, after[t:])) for t, p in enumerate(pair[j : j + 1 + slack])]
            best.append(row)
    else:
        diagonals = list(zip(*pair))[:width]
        for j in range(m - 2, -1, -1):
            after = row
            suffix = list(itertools.accumulate(map(add, head[j + 1 + slack : j + width : -1], reversed(after[width:])), max))
            suffix.reverse()
            row = list(map(add, tail[j : j + 1 + slack - width], suffix))
            for g in range(width - 1, -1, -1):
                diagonal = diagonals[g]
                row = [s if s > r else r for s, r in zip(map(add, diagonal[j : j + 1 + slack - g], after[g:]), row)]
                row.append(diagonal[j + slack - g] + after[slack])
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
        a, goal, after = j - 1 + t, best[j - 1][t] // unit, best[j]
        t = next(
            u
            for u in range(t, slack + 1)
            if ((pair[a][u - t] if u - t < width else tail[a] + head[j + u]) + after[u]) // unit == goal
        )
        chain.append(j + t)
    return value, attained, chain


def _best_subset(
    family: Sequence[tuple[int, int]],
    held: Sequence[int],
    scale: int,
    m: int,
    rows: Sequence[_Rows],
    den: int,
    own: tuple[_Rows, int] | None = None,
) -> DeviationResult:
    """The one search of ``best_response`` and ``certify_no_deviation``,
    which run ``_refuse`` first: the best m-subset of the sorted
    ``family`` of ``(x, offset)`` pairs, positions ``x / scale``. ``rows``
    holds each opponent's support as ``(row, weight)`` entries on the same
    grid (``_grid``), ``held`` the sorted positions that every joint draw
    of them holds (``_grid_family``), and ``den`` is the product of their
    probability denominators; ``own`` is the player's own support on that
    grid with its denominator, or None. An empty family means no
    competition: every strategy, the own one too, collects the whole
    customer mass.

    Every position is even, and a candidate's key is ``x + offset``, so a
    one-sided key is odd and meets no opponent. Each draw is bisected once
    per candidate (``_nearest``). A subset's value is then a head term for
    its first candidate, a pair term for each pair of neighbours and a
    tail term for its last: the halves of ``_chain_pay``'s cell, summed
    over the draws as integers, each draw's weight times ``m + 1`` and
    each exact candidate's tail and pair terms plus 1, the scores of one
    ``_best_band`` run. With ``m = 1`` there are no pair terms. Otherwise
    neighbours in a chain are at most ``slack + 1`` candidates apart,
    ``slack`` being ``|F| - m``, and every pair further apart than the
    ``held`` positions' band (``_band_width``) is far: a chain break,
    valued by the tail and head terms alone. Each draw adds every
    candidate's head and tail terms and the band's ``w`` pair terms per
    candidate, one diagonal (one ``b - a``) at a time:
    ``draws * |F| * (w + 1)`` steps, and ``w`` is ``slack + 1``, every
    pair summed, when no pair is far. Against every draw the own chain is
    paid by ``_chain_pay`` of its ``_chain_halves``, the cell formula
    ``mixed_payoff`` pays it by.

    The supremum is one Fraction built at the end; the witness is the
    smallest all-exact maximizer if any, else the smallest maximizer, and
    the gain is over the own chain's payoff (None without ``own``). Only
    the witness's ``m`` entries become ``OffsetLocation``s.

    A family shorter than ``m`` is searched alone, its one chain being the
    whole family, and its witness is padded, not its grid: an exact point
    strictly inside a gap between the family's positions and the ends adds
    no mass once both ends of the gap are approached. The ``m - |F|``
    fillers are made straight as Fractions, each gap's midpoint gap after
    gap, then its odd quarters, and so on, and sorted into the witness.
    """
    if not family:
        witness = tuple(OffsetLocation(x, "exact") for x in optimal_locations(m))
        return DeviationResult(ONE, True, witness, None if own is None else ZERO)
    own_rows, own_den = own or ((), 1)
    needed = max(m - len(family), 0)  # the whole family, never all-exact: it holds a one-sided entry
    m -= needed
    score = m + 1
    split = math.lcm(*range(1, len(rows) + 2))
    xs = [x for x, _ in family]
    keys = [x + side for x, side in family]
    own_keys, own_halves = _chain_halves(own_rows, scale)
    slack = len(family) - m
    width = _band_width(xs, keys, held, scale, slack) if m > 1 else 0
    exact = [int(side == 0) for _, side in family]
    head = [0] * len(family)
    tail = exact[:]
    pair = [[e] * width for e in exact] if width else []
    paid = 0
    for weight, opps in _sorted_draws(rows, scale):
        paid += weight * _chain_pay(own_keys, own_halves, opps, split)
        weight *= score
        bounds = _nearest(keys, opps, split)
        for a, (x, (low, high, share)) in enumerate(zip(xs, bounds)):
            share *= weight
            head[a] -= share * (-x if -x > low else low)
            tail[a] += share * (2 * scale - x if 2 * scale - x < high else high)
        for g in range(width):
            for row, x, (_, high, share), y, (below, _, other) in zip(pair, xs, bounds, xs[g + 1 :], bounds[g + 1 :]):
                row[g] += weight * (share * (y if y < high else high) - other * (x if x > below else below))
    value, attained, chain = _best_band(head, tail, pair, m)
    den *= 2 * scale * split
    entries = [family[i] for i in chain]
    witness = tuple(OffsetLocation._checked(Fraction(x, scale), _SIDES[side]) for x, side in entries)
    if needed:
        ends = [0, *sorted(set(xs)), scale]
        gaps = [(a, b) for a, b in zip(ends, ends[1:]) if a < b]
        fillers = (
            OffsetLocation._checked(Fraction((a << level) + (b - a) * num, scale << level), "exact")
            for level in itertools.count(1)
            for a, b in gaps
            for num in range(1, 2**level, 2)
        )
        witness = tuple(sorted([*witness, *itertools.islice(fillers, needed)]))
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
    scale, rows, table, dens = _grid(opponents)
    return _best_subset(*_grid_family(table, scale), scale, m, rows, math.prod(dens))


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
    scale, supports, table, dens = _grid(profile.strategies)
    return tuple(
        _best_subset(
            *_grid_family(table, scale, 1 << i),
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
