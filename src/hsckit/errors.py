"""Exception types shared across the toolkit."""


class HsckitError(Exception):
    """Base class for all domain errors raised by hsckit."""


class InadmissibleRank(HsckitError):
    """Requested a Lie type outside the admissible family/rank table."""


class NodeOutOfRange(HsckitError):
    """Marked-node index is not within 1..rank."""


class DimensionMismatch(HsckitError):
    """Array or direction dimensions do not match the tensor."""


class NotUnitary(HsckitError):
    """Frame-change matrix fails the unitarity tolerance."""


class FrameConstraintViolated(HsckitError):
    """Distinguished-frame data violates the minimizing-direction constraint
    2A >= H + |B|."""


class RegimeViolation(HsckitError):
    """Operation invoked outside its hypothesis (e.g. non-negative Einstein
    constant where a negative one is required)."""


class NotEinstein(HsckitError):
    """Surface tensor is not Einstein within tolerance.

    Carries the measured Ricci anisotropy (eigenvalue spread) so callers can
    see how far off the input was.
    """

    def __init__(self, message: str, anisotropy: float):
        super().__init__(message)
        self.anisotropy = anisotropy


class NotSurface(HsckitError):
    """Operation requires a complex-dimension-2 tensor."""


class MissingChernNumbers(HsckitError):
    """Surface record lacks the Chern numbers needed for the check."""


class TensorFormatError(HsckitError):
    """Tensor JSON payload is malformed (bad indices, duplicate orbits...)."""


__all__ = [name for name, value in globals().items() if isinstance(value, type) and issubclass(value, HsckitError)]
