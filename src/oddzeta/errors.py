"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A configured resource ceiling (index, digits, table size) was exceeded."""


class UnknownConstantError(ValueError):
    """A constant name outside the supported identifier set was requested."""
