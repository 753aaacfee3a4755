"""Exception types shared across the toolkit."""

from __future__ import annotations


class GreenstoneError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(GreenstoneError):
    """An input fails a structural precondition."""


class BadEntry(ValidationError):
    """A table entry is out of range or a dimension is wrong."""


class NonAssociative(ValidationError):
    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"associativity fails at triple ({a}, {b}, {c})")
        self.triple = (a, b, c)


class EmptyGeneratorSet(ValidationError):
    def __init__(self) -> None:
        super().__init__("at least one generator is required")


class DegreeMismatch(ValidationError):
    pass


class SizeLimitExceeded(ValidationError):
    def __init__(self, cap: int, what: str = "closure"):
        super().__init__(f"{what} exceeded the size cap of {cap} elements")
        self.cap = cap


class RoleViolation(ValidationError):
    """A subset fails the closure condition of the claimed role."""

    def __init__(self, role: str, witness: tuple):
        super().__init__(f"subset is not a {role}: witness {witness}")
        self.role = role
        self.witness = witness


class NotAnIdeal(ValidationError):
    pass


class NotASubsemigroup(ValidationError):
    pass


class NotASubact(ValidationError):
    """A subset of a biact's carrier is not closed under both actions."""

    def __init__(self, witness: tuple):
        super().__init__(f"not a subact: witness {witness}")
        self.witness = witness


class NotAHomomorphism(ValidationError):
    def __init__(self, pair: tuple):
        super().__init__(f"map is not a homomorphism: fails at pair {pair}")
        self.pair = pair


class IncompatiblePartition(ValidationError):
    """A partition fails the congruence compatibility check."""

    def __init__(self, witness: tuple):
        super().__init__(f"partition is not a congruence: witness {witness}")
        self.witness = witness


class ActionAxiomViolation(ValidationError):
    def __init__(self, axiom: str, triple: tuple):
        super().__init__(f"biact axiom '{axiom}' fails at {triple}")
        self.axiom = axiom
        self.triple = triple


class ActionMismatch(ValidationError):
    """The supplied biact is not an action of the supplied semigroups."""


class UnknownEntry(GreenstoneError):
    """No catalog entry under that name."""


class UnknownClass(GreenstoneError):
    """No Green class with that id."""


class UnknownClaim(GreenstoneError):
    """No registered claim with that id."""


class InvalidSuiteConfig(GreenstoneError):
    """A claim-suite parameter is below the least value that checks anything."""


class CapExceeded(GreenstoneError):
    """An enumeration request exceeds its hard cap."""


class DecisionUnavailable(GreenstoneError):
    """The object carries no decision procedure for the requested relation."""


class ParseError(ValidationError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class InvariantViolation(GreenstoneError):
    """An internal engine invariant broke; this always indicates a bug."""
