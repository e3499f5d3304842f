"""Exceptions and verdict objects shared across the library.

Every domain error carries enough of a witness to reproduce the failure
(violating sets, offending element, ...).  Checks that are reports rather
than preconditions return a :class:`Verdict` instead of raising.
"""

from collections import namedtuple


class FlagTutteError(Exception):
    """Base class for all domain errors raised by this library."""


# ---------------------------------------------------------------- matroids

class EmptyBases(FlagTutteError):
    pass


class UnequalCardinality(FlagTutteError):
    pass


class ExchangeViolation(FlagTutteError):
    def __init__(self, basis1, basis2, element):
        self.basis1, self.basis2, self.element = basis1, basis2, element
        super().__init__(
            f"basis exchange fails for B1={sorted(basis1)}, "
            f"B2={sorted(basis2)}, e={element}"
        )


class OutOfRange(FlagTutteError):
    pass


class NotAMatroid(FlagTutteError):
    pass


class MismatchedGroundSets(FlagTutteError):
    pass


class AxiomViolation(FlagTutteError):
    def __init__(self, axiom, witness, message=""):
        self.axiom, self.witness = axiom, witness
        super().__init__(message or f"axiom {axiom} fails, witness {witness}")


class NotConcordant(FlagTutteError):
    def __init__(self, i, j, witness):
        self.i, self.j, self.witness = i, j, witness
        super().__init__(
            f"constituents {i} and {j} are not concordant, witness {witness}"
        )


class NotNested(FlagTutteError):
    pass


class RankBoundTooSmall(FlagTutteError):
    pass


# ------------------------------------------------------- lattice geometry

class NotPointed(FlagTutteError):
    pass


class NotAVertex(FlagTutteError):
    pass


class NoDecomposition(FlagTutteError):
    pass


class NegativeShift(FlagTutteError):
    pass


# --------------------------------------------------------- exact algebra

class DimensionMismatch(FlagTutteError):
    pass


class InexactDivision(FlagTutteError):
    pass


class CheckFailed(FlagTutteError):
    """An exactness check inside a computation failed.

    `stage` names the computation and `witness` holds the data that failed
    the check.  Raised where an `assert` would vanish under ``python -O``.
    """

    def __init__(self, stage, reason, witness):
        self.stage, self.witness = stage, witness
        super().__init__(f"{stage}: {reason}, witness {witness}")


class PoleAtOne(FlagTutteError):
    def __init__(self, num_order, den_order):
        self.num_order, self.den_order = num_order, den_order
        super().__init__(
            f"pole at 1: numerator vanishes to order {num_order} < "
            f"denominator order {den_order}"
        )


class BadWeights(FlagTutteError):
    pass


class SpaceMismatch(FlagTutteError):
    pass


class FitMismatch(FlagTutteError):
    pass


# ------------------------------------------------------------------- I/O

class ParseError(FlagTutteError):
    pass


class SchemaError(FlagTutteError):
    pass


class Verdict(namedtuple("Verdict", "ok reason witness",
                         defaults=("", None))):
    """Outcome of a check: `ok` plus an explanation and optional witness."""

    __slots__ = ()

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "pass" if not self.reason else f"pass ({self.reason})"
        s = f"FAIL: {self.reason}"
        if self.witness is not None:
            s += f" witness={self.witness}"
        return s
