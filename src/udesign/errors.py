"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: `ResourceLimitError` exits
with 3 (numerical guard tripped), every other `UDesignError` (and plain IO
failures) exits with 2.
"""


class UDesignError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(UDesignError, ValueError):
    """Malformed or out-of-contract input (dimensions, tags, parameters)."""


class ResourceLimitError(UDesignError):
    """A size/enumeration guard was exceeded (e.g. d^n too large, t too big)."""


class NotAPovmError(InvalidInputError):
    """Element sum deviates from the identity beyond tolerance."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(f"POVM normalization defect: ||sum F - I|| = {residual:.3e}")


class NotChannelImageError(InvalidInputError):
    """Bipartite state violates the trace-preservation marginal condition."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(f"state is not a channel image: ||tr_s(rho) - I/d|| = {residual:.3e}")


class NotInformationallyCompleteError(InvalidInputError):
    """The POVM frame compressed to the requested class span has rank below its dimension."""

    def __init__(self, support_dim: int, required_dim: int):
        self.support_dim = int(support_dim)
        self.required_dim = int(required_dim)
        super().__init__(
            f"POVM frame on the class span has rank {support_dim}, "
            f"but reconstruction needs {required_dim}"
        )
