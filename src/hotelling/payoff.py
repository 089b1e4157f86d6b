"""Closed-form customer masses, payoffs, social cost and one-sided limits.

Customers are uniform on [0,1] and walk to the nearest facility, so every
catchment boundary is the midpoint of two adjacent occupied positions and
every mass is a difference of midpoints. That makes all payoffs exact
rationals, and equalities (the currency of equilibrium conditions) decidable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import ONE, ZERO, FacilityRef, PureProfile, RationalLike, _co_located, as_fraction
from .errors import InvalidDeviation, InvalidInput

Side = str  # "below" | "exact" | "above"

# a side's offset: ordering, co-location (``_co_located``), and the
# oracle's bisect key on a doubled grid
_SIDE_EPS = {"below": -1, "exact": 0, "above": 1}


def _in_unit(position: Fraction) -> Fraction:
    if not (ZERO <= position <= ONE):
        raise InvalidInput(f"offset position {position} outside [0,1]")
    return position


@functools.total_ordering
@dataclass(frozen=True)
class OffsetLocation:
    """A position annotated with a one-sided limit tag.

    (x, below) stands for x - eps and (x, above) for x + eps, evaluated in
    the limit eps -> 0+. Ordering is (x, below) < (x, exact) < (x, above),
    nested strictly between any smaller and larger positions.
    """

    position: Fraction
    side: Side = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", as_fraction(self.position))
        if self.side not in _SIDE_EPS:
            raise InvalidInput(f"unknown side {self.side!r}")
        _in_unit(self.position)
        if self.position == ZERO and self.side == "below":
            raise InvalidInput("side=below is meaningless at position 0")
        if self.position == ONE and self.side == "above":
            raise InvalidInput("side=above is meaningless at position 1")

    @classmethod
    def _checked(cls, position: Fraction, side: Side) -> "OffsetLocation":
        """A location its caller has already checked, as ``candidate_family``
        checks each position once for its three sides, and as the oracle's
        witness entries lie on the grid of the opponents' checked tables."""
        location = object.__new__(cls)
        object.__setattr__(location, "position", position)
        object.__setattr__(location, "side", side)
        return location

    def __lt__(self, other: "OffsetLocation") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple[Fraction, int]:
        return (self.position, _SIDE_EPS[self.side])


def exactly(x: RationalLike) -> OffsetLocation:
    return OffsetLocation(as_fraction(x), "exact")


def just_above(x: RationalLike) -> OffsetLocation:
    return OffsetLocation(as_fraction(x), "above")


def just_below(x: RationalLike) -> OffsetLocation:
    return OffsetLocation(as_fraction(x), "below")


@dataclass(frozen=True)
class MassReport:
    """Per-facility masses and one-sided masses, plus per-player payoffs.

    ``left_masses[f]`` / ``right_masses[f]`` are the customer quantities
    arriving at f's position from its left / right catchment side; they are
    shared by co-located facilities, while ``facility_masses[f]`` is the
    equal split of their sum among the players at that position. Payoffs
    always partition the customers: sum(payoffs) == 1. The three mappings
    list facilities by ascending position, and co-located ones in
    (player, slot) order.
    """

    payoffs: tuple[Fraction, ...]
    facility_masses: Mapping[FacilityRef, Fraction]
    left_masses: Mapping[FacilityRef, Fraction]
    right_masses: Mapping[FacilityRef, Fraction]


def _mass_report(
    num_players: int, scale: int, points: Sequence[tuple[int, int, list[FacilityRef]]]
) -> MassReport:
    """Split the cell of every occupied point among the facilities there.

    ``points`` is ``_co_located``'s grid: each occupied point's position as
    an integer over ``scale``, its offset and the facilities there, in
    ascending point order. The sweep is integer arithmetic over doubled
    boundaries: each ``c_l``, ``c_r`` and share is one Fraction over
    ``2*scale``, and each payoff one Fraction built from cells paid in
    units of ``1/split``, which every head count divides.
    """
    xs = [x for x, _, _ in points]
    # doubled boundaries: cell j spans bounds[j]/2..bounds[j+1]/2, and
    # neighbours a and b meet at their midpoint, so one-sided limits beside
    # an occupied point meet at the point itself
    bounds = [0, *(a + b for a, b in zip(xs, xs[1:])), 2 * scale]
    den = 2 * scale
    split = math.lcm(*{len(refs) for _, _, refs in points})
    totals = [0] * num_players
    fac: dict[FacilityRef, Fraction] = {}
    left: dict[FacilityRef, Fraction] = {}
    right: dict[FacilityRef, Fraction] = {}
    for j, (x, _, refs) in enumerate(points):
        doubled = 2 * x
        c_l = Fraction(doubled - bounds[j], den)
        c_r = Fraction(bounds[j + 1] - doubled, den)
        cell = bounds[j + 1] - bounds[j]
        share = Fraction(cell, den * len(refs))
        paid = cell * (split // len(refs))
        for ref in refs:
            fac[ref] = share
            left[ref] = c_l
            right[ref] = c_r
            totals[ref.player] += paid
    return MassReport(tuple(Fraction(t, den * split) for t in totals), fac, left, right)


def masses(profile: PureProfile) -> MassReport:
    """Evaluate V, c_l, c_r and u for every facility of a pure profile."""
    return _mass_report(profile.num_players, *_co_located(profile.refs()))


def limit_payoff(
    profile: PureProfile | Sequence[Sequence[OffsetLocation | RationalLike]],
    deviator: int,
) -> MassReport:
    """Masses of a profile whose deviating player uses one-sided limits.

    Evaluates lim eps->0+ of masses() with (x, above) read as x + eps and
    (x, below) as x - eps. Only the deviator may carry non-exact sides, and
    every player places at least one facility in strictly increasing offset
    order, as a ``PureStrategy`` does; offset-distinct points never tie.
    Faults are raised in this order: a bare rational not exact or outside
    [0,1], the deviator index, then player by player no facility, a side on
    a non-deviator and the offset order.
    """
    raw = profile.strategies if isinstance(profile, PureProfile) else profile
    strategies: list[list[tuple[Fraction, Side]]] = [
        [
            (e.position, e.side) if isinstance(e, OffsetLocation) else (_in_unit(as_fraction(e)), "exact")
            for e in s
        ]
        for s in raw
    ]
    if not 0 <= deviator < len(strategies):
        raise InvalidDeviation(f"deviator index {deviator} out of range")
    for i, strat in enumerate(strategies):
        if not strat:
            raise InvalidDeviation(f"player {i} places no facility")
        for _, side in strat:
            if i != deviator and side != "exact":
                raise InvalidDeviation(f"player {i} is not the deviator but carries side={side}")
        for (a, sa), (b, sb) in zip(strat, strat[1:]):
            if not (a, _SIDE_EPS[sa]) < (b, _SIDE_EPS[sb]):
                raise InvalidDeviation(
                    f"player {i}'s offsets must strictly increase, got {a} {sa} then {b} {sb}"
                )

    # eps offsets only decide the ordering; every boundary's eps term
    # vanishes as eps -> 0+, so masses use constant coordinates alone
    refs = [
        FacilityRef(i, j, x) for i, strat in enumerate(strategies) for j, (x, _) in enumerate(strat)
    ]
    offsets = [_SIDE_EPS[side] for strat in strategies for _, side in strat]
    return _mass_report(len(strategies), *_co_located(refs, offsets))


def social_cost(locations: Iterable[RationalLike]) -> Fraction:
    """Total distance customers travel to their nearest facility.

    With sorted locations a_1 <= ... <= a_k and gaps b_1 = a_1,
    b_i = a_i - a_{i-1}, b_{k+1} = 1 - a_k, the uniform-density integral is
    b_1^2/2 + b_{k+1}^2/2 + sum of interior b_i^2/4. Zero-width boundary
    gaps (locations at 0 or 1) contribute nothing.
    """
    pts = sorted({as_fraction(x) for x in locations})
    if not pts:
        raise InvalidInput("social_cost needs at least one location")
    for x in pts:
        if not (ZERO <= x <= ONE):
            raise InvalidInput(f"location {x} outside [0,1]")
    gaps = [pts[0]] + [b - a for a, b in zip(pts, pts[1:])] + [ONE - pts[-1]]
    return gaps[0] ** 2 / 2 + gaps[-1] ** 2 / 2 + sum((g * g for g in gaps[1:-1]), ZERO) / 4
