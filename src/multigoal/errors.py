"""Exception types shared across the toolkit."""


class MultigoalError(Exception):
    """Base class for all toolkit errors."""


class OutOfBoundsError(MultigoalError):
    """A point lies outside the map rectangle."""


class BlockedPoint(MultigoalError, ValueError):
    """A start or goal lies inside an obstacle; a ValueError too, for existing callers."""


class InvalidArgument(MultigoalError, ValueError):
    """An argument names nothing known or holds a value that cannot work; a ValueError
    too, for existing callers."""


class GenerationFailed(MultigoalError):
    """Random map generation exhausted its retry budget."""


class PlacementFailed(MultigoalError):
    """Goal placement exhausted its rejection-sampling budget."""


class FormatError(MultigoalError):
    """A file does not match its expected format; message names the offending row or byte."""


class Unreachable(MultigoalError):
    """No collision-free route exists between two points.

    ``pair`` holds the (i, j) goal indices when raised during weight-matrix
    construction, else None.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class MissingPrediction(MultigoalError):
    """An external-prediction directory lacks the file for a goal pair."""


class DimensionMismatch(MultigoalError):
    """A mask's shape disagrees with its map."""


class ShapeMismatch(MultigoalError):
    """Two masks passed to a loss have different shapes."""


class DegenerateInput(MultigoalError):
    """Loss input is degenerate (e.g. both masks all-zero in the Dice denominator)."""


class LengthMismatch(MultigoalError):
    """Paired sequences have different lengths."""


class EmptyInput(MultigoalError):
    """An operation received an empty sequence where at least one element is required."""


class InvalidTour(MultigoalError):
    """A tour is not a permutation of the matrix vertices."""


class TooLarge(MultigoalError):
    """Instance exceeds the exact solver's size bound."""


class InvalidMatrix(MultigoalError):
    """A weight matrix is asymmetric, non-square, or has invalid entries."""


class NoPathFound(MultigoalError):
    """A sampling-based planner exhausted its sample budget.

    ``leg`` identifies the failing (start_index, goal_index) pair when the
    failure happened inside a multi-goal pipeline, else None.
    """

    def __init__(self, message, leg=None):
        super().__init__(message)
        self.leg = leg
