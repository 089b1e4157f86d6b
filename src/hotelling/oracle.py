"""Exact best-response search and no-beneficial-deviation certification.

Against finitely many opponent facility positions, a player's payoff is
piecewise linear in each of her own coordinates with breakpoints exactly at
opponent positions. Its supremum over a gap is reached in the one-sided
limit at the gap's ends, so the candidate family {just below, exactly at,
just above each opponent position} is exhaustive: the true supremum equals
the best value over ordered subsets of that family, evaluated as eps -> 0+
limits. This family argument is validated empirically against dense-grid
search in the test suite.

Every answer is exact or refused: a search over more than
``DEFAULT_SEARCH_CAP`` subsets raises ``SearchTooLarge``, and opponents
with more than ``DEFAULT_SUPPORT_CAP`` joint draws raise ``SupportTooLarge``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import ONE, ZERO, Game, PureProfile
from .errors import InvalidInput, SearchTooLarge
from .mixed import (
    MixedProfile,
    MixedStrategy,
    _draws,
    mixed_payoff,
    optimal_locations,
)
from .payoff import OffsetLocation, _catchments

DEFAULT_SEARCH_CAP = 10**5

# An opponent draw: probability plus sorted (position, #players) pairs.
_Combo = tuple[Fraction, tuple[tuple[Fraction, int], ...]]


@dataclass(frozen=True)
class DeviationResult:
    """Best achievable payoff for one player against fixed opponents.

    ``attained`` tells whether some all-exact witness reaches the supremum;
    otherwise the witness carries one-sided limits. ``gain`` is relative to
    the player's payoff in the profile under certification (None when no
    baseline was supplied). The supremum is always exact: a search too
    large to run raises ``SearchTooLarge`` instead of returning a result.
    """

    supremum_payoff: Fraction
    attained: bool
    witness: tuple[OffsetLocation, ...]
    gain: Fraction | None = None


def _opponent_combos(opponents: Sequence[MixedStrategy]) -> list[_Combo]:
    combos: list[_Combo] = []
    for prob, drawn in _draws(opponents):
        counts: dict[Fraction, int] = {}
        for strategy in drawn:
            for loc in strategy:
                counts[loc] = counts.get(loc, 0) + 1
        combos.append((prob, tuple(sorted(counts.items()))))
    return combos


def _deviator_mass(candidates: Sequence[OffsetLocation], opponents: tuple[tuple[Fraction, int], ...]) -> Fraction:
    """Limit customer mass of the candidate facilities against one draw."""
    # merge the two sorted streams into the occupied positions, noting the
    # index and head count of every point the deviator occupies
    positions: list[Fraction] = []
    own: list[tuple[int, int]] = []
    i = j = 0
    while i < len(candidates) and j < len(opponents):
        cand = candidates[i]
        opp_pos, count = opponents[j]
        x = cand.position
        # offset order: (x, below) < (x, exact) < (x, above)
        if x < opp_pos or (x == opp_pos and cand.side == "below"):
            own.append((len(positions), 1))
            positions.append(x)
            i += 1
        elif x == opp_pos and cand.side == "exact":  # co-location shares the cell
            own.append((len(positions), count + 1))
            positions.append(x)
            i += 1
            j += 1
        else:
            positions.append(opp_pos)
            j += 1
    for cand in candidates[i:]:
        own.append((len(positions), 1))
        positions.append(cand.position)
    positions.extend([opp_pos for opp_pos, _ in opponents[j:]])

    bounds = _catchments(positions)
    total = ZERO
    for k, count in own:
        cell = bounds[k + 1] - bounds[k]
        total += cell if count == 1 else cell / count
    return total


def _expected_value(candidates: Sequence[OffsetLocation], combos: Sequence[_Combo]) -> Fraction:
    total = ZERO
    for prob, opp in combos:
        total += prob * _deviator_mass(candidates, opp)
    return total


def candidate_family(positions: Iterable[Fraction]) -> tuple[OffsetLocation, ...]:
    """All one-sided and exact placements around the given positions."""
    family: list[OffsetLocation] = []
    for x in sorted(set(positions)):
        if x > ZERO:
            family.append(OffsetLocation(x, "below"))
        family.append(OffsetLocation(x, "exact"))
        if x < ONE:
            family.append(OffsetLocation(x, "above"))
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


def _best_subset(
    family: Sequence[OffsetLocation],
    m: int,
    combos: Sequence[_Combo],
) -> tuple[Fraction, tuple[OffsetLocation, ...], tuple[OffsetLocation, ...] | None]:
    """Exhaustive search over ordered m-subsets of the sorted ``family``.

    Needs ``m <= len(family)``. Returns the best expected value, the
    lexicographically smallest maximizer and the smallest all-exact
    maximizer (None when no maximizer is all-exact).
    """
    best = ZERO
    best_witness: tuple[OffsetLocation, ...] | None = None
    best_exact: tuple[OffsetLocation, ...] | None = None
    for subset in itertools.combinations(family, m):
        value = _expected_value(subset, combos)
        if best_witness is None or value > best:
            best = value
            best_witness = subset
            best_exact = subset if all(c.side == "exact" for c in subset) else None
        elif value == best and best_exact is None and all(c.side == "exact" for c in subset):
            best_exact = subset
    return best, best_witness, best_exact


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
    ``SupportTooLarge`` beyond ``DEFAULT_SUPPORT_CAP`` opponent draws and
    ``SearchTooLarge`` beyond ``DEFAULT_SEARCH_CAP`` subsets.
    """
    if m < 1:
        raise InvalidInput(f"player must place at least one facility, got m={m}")
    positions = sorted({loc for x in opponents for s, _ in x.support for loc in s})
    combos = _opponent_combos(opponents)
    family = candidate_family(positions)
    if not positions:
        # no competition: every strategy collects the whole customer mass
        best, attained = ONE, True
        witness = tuple(OffsetLocation(x, "exact") for x in optimal_locations(m))
    elif m > len(family):
        witness = tuple(sorted(family + tuple(_gap_fillers(positions, m - len(family)))))
        # exact strategies always leave opponents positive mass, limits do not
        best, attained = _expected_value(witness, combos), False
    else:
        if math.comb(len(family), m) > DEFAULT_SEARCH_CAP:
            raise SearchTooLarge(
                f"best response over C({len(family)},{m}) candidate subsets exceeds cap {DEFAULT_SEARCH_CAP}"
            )
        best, best_witness, best_exact = _best_subset(family, m, combos)
        attained = best_exact is not None
        witness = best_exact if attained else best_witness
    gain = None if current_payoff is None else best - current_payoff
    return DeviationResult(best, attained, witness, gain)


def certify_no_deviation(
    game: Game, profile: MixedProfile | PureProfile
) -> tuple[DeviationResult, ...]:
    """Best response for every player; all gains <= 0 certifies equilibrium.

    Any strictly positive gain is a constructive refutation: its witness is
    a beneficial deviation for that player. Raises ``SearchTooLarge`` when
    any player's search exceeds ``DEFAULT_SEARCH_CAP`` subsets.
    """
    if isinstance(profile, PureProfile):
        profile = MixedProfile.from_pure(profile)
    current = mixed_payoff(game, profile)
    results = []
    for player in range(game.num_players):
        opponents = [x for i, x in enumerate(profile.strategies) if i != player]
        results.append(best_response(opponents, game.counts[player], current_payoff=current[player]))
    return tuple(results)


def is_equilibrium(results: Sequence[DeviationResult]) -> bool:
    return all(r.gain is not None and r.gain <= 0 for r in results)


def grid_search(
    opponents: Sequence[MixedStrategy],
    m: int,
    resolution: int,
) -> Fraction:
    """Best expected payoff over m-subsets of the uniform grid {i/resolution}.

    A blunt cross-check for the offset oracle: its maximum can trail the
    true supremum by at most one grid cell per side. Raises
    ``SearchTooLarge`` beyond ``DEFAULT_SEARCH_CAP`` subsets.
    """
    if resolution < 2:
        raise InvalidInput(f"grid resolution must be at least 2, got {resolution}")
    if m > resolution + 1:
        raise InvalidInput(f"{m} facilities do not fit on the {resolution + 1} grid points")
    if math.comb(resolution + 1, m) > DEFAULT_SEARCH_CAP:
        raise SearchTooLarge(
            f"grid search over C({resolution + 1},{m}) points exceeds cap {DEFAULT_SEARCH_CAP}"
        )
    combos = _opponent_combos(opponents)
    grid = [OffsetLocation(Fraction(i, resolution), "exact") for i in range(resolution + 1)]
    return _best_subset(grid, m, combos)[0]
