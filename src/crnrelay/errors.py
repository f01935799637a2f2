"""Shared exception types.

Everything raised on purpose by this package derives from CrnRelayError, so
callers can catch one base class at the CLI boundary and map it to an exit
code. Algebra errors and modelling errors get their own branches.
"""

from __future__ import annotations


class CrnRelayError(Exception):
    """Base class for all errors raised deliberately by this package."""


class AlgebraError(CrnRelayError):
    """Base class for exact-arithmetic failures."""


class AlgebraValueError(AlgebraError, ValueError):
    """An exact operation refused its operand's value (a ValueError too)."""


class AlgebraTypeError(AlgebraError, TypeError):
    """An exact constructor refused its operand's type (a TypeError too)."""


class AlgebraZeroDivisionError(AlgebraError, ZeroDivisionError):
    """Exact division by zero (a ZeroDivisionError too)."""


class MixedExtensions(AlgebraError):
    """Arithmetic attempted between elements of different quadratic extensions."""


class DenominatorZero(AlgebraError):
    """A rational function was evaluated (or built) with a vanishing denominator."""


class DegreeTooHigh(AlgebraError):
    """An exact root solver was handed a polynomial beyond its degree bound."""


class NotMetzler(AlgebraError):
    """A sign test that requires a Metzler matrix saw a negative off-diagonal entry."""


class SingularMatrix(AlgebraError):
    """Exact inversion of a singular matrix was requested."""


class ModelError(CrnRelayError):
    """Base class for model-level failures."""


class ModelParseError(ModelError):
    """Model file rejected; carries 1-based line and column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ExtractionError(ModelError):
    """The right-hand sides do not decompose into a nonnegative reaction network."""


class UnknownModel(ModelError):
    """Builtin model name or closed-form equilibrium name not recognised."""


class NotApplicable(ModelError):
    """A request the model or the analysis does not define: a closed form for a
    name the variant lacks, a mask index that is no reaction, an empty
    invading set."""


class NotInvariantFace(ModelError):
    """A face operation was attempted on a coordinate set that is not a siphon face."""


class NotOnFace(ModelError):
    """An equilibrium was used with a face it does not lie on."""


class BadCover(ModelError):
    """The pair of faces handed to the relay test is not a lattice covering pair."""


class DegenerateFace(ModelError):
    """The equilibrium system on a face is underdetermined (positive-dimensional)."""
