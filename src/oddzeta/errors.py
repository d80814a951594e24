"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A configured resource ceiling (index, digits, table size) was exceeded."""


class TailRatioError(ArithmeticError):
    """Observed consecutive series terms stopped decaying geometrically (ratio > 1/3)."""


class UnknownConstantError(ValueError):
    """A constant name outside the supported identifier set was requested."""
