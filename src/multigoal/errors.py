"""Exception types shared across the toolkit, one per decision a caller makes:
fix the input, retry with another seed, or change the goals; and naming, which
puts the name of the input a refusal is about in front of its message."""

from contextlib import contextmanager


class MultigoalError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(MultigoalError, ValueError):
    """A value that cannot work: an unknown name, a point off the map or in an
    obstacle, mismatched shapes or lengths, a bad matrix or tour, an instance
    too large; a ValueError too, for existing callers."""


class FormatError(MultigoalError):
    """A file does not match its expected format, or a directory lacks a file it
    lists; the message names the file and the offending row or byte."""


class GenerationFailed(MultigoalError):
    """Random map generation exhausted its retry budget."""


class PlacementFailed(MultigoalError):
    """Goal placement exhausted its rejection-sampling budget."""


class Unreachable(MultigoalError):
    """No collision-free route exists between two points; the message names the goal pair."""


class NoPathFound(MultigoalError):
    """A sampling-based planner exhausted its sample budget; the message names the leg."""


@contextmanager
def naming(where, kind=None):
    """Run the block; a MultigoalError from it is raised again as kind, or as its
    own class when kind is None, with "<where>: " in front of its message. where
    names the file, flag, sample, leg or pair that a check inside the block
    cannot name itself."""
    try:
        yield
    except MultigoalError as exc:
        raise (kind or type(exc))(f"{where}: {exc}") from None
