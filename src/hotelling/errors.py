"""Exception hierarchy for the hotelling package."""


class HotellingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGame(HotellingError):
    """Game construction failed (empty player list, non-positive count, ...)."""


class InvalidStrategy(HotellingError):
    """A strategy or profile violates its structural invariants."""


class InvalidInput(HotellingError):
    """A scalar argument is out of its documented domain."""


class InvalidDeviation(HotellingError):
    """An offset deviation is malformed (duplicates, bad ordering, multi-player offsets)."""


class SupportTooLarge(HotellingError):
    """Exact expectation would enumerate more opponent draws than the cap allows."""


class WrongGameKind(HotellingError):
    """Operation called on a game of the wrong shape (e.g. no dominant player)."""


class ConstructionUnavailable(HotellingError):
    """No equilibrium of the requested kind exists, or its preconditions fail."""


class InvalidPartition(HotellingError):
    """A partition plan does not satisfy the block-size conditions for its game."""
