"""Shared exception types.

Exit-code mapping for the CLI: CapacityError, DomainError and SchemaError
are usage/capacity problems (exit 2); verdict failures are data, not
exceptions, and map to exit 1.
"""


class ForgeError(Exception):
    """Base class for all package errors."""


class CapacityError(ForgeError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        self.required = required
        self.budget = budget
        self.what = what
        super().__init__(f"{what} requires {_count(required)} items, budget is {budget}")


def _count(k: int) -> str:
    """k in decimal, or its magnitude where Python's limit on the digits of
    an int-to-str conversion refuses the decimal."""
    try:
        return str(k)
    except ValueError:
        return f"at least 2**{k.bit_length() - 1}"


class MismatchError(ForgeError):
    """Incompatible shapes: alphabet, length or field disagreement."""


class DomainError(ForgeError):
    """A parameter is outside the range an operation supports."""


class SchemaError(ForgeError):
    """A serialized artifact does not match its expected schema."""
