"""Exception hierarchy shared by all difftwin modules."""


class DifftwinError(Exception):
    """Base class for all difftwin errors."""


class DimensionMismatch(DifftwinError):
    """Vector/matrix dimensions do not agree."""


class SingularCovariance(DifftwinError):
    """Covariance matrix is singular or indefinite beyond tolerance."""


class SingularNormalEquations(DifftwinError):
    """Gauss-Newton normal equations not invertible even after damping."""


class SingularInformation(DifftwinError):
    """Total information matrix is rank deficient: degenerate posterior."""

    def __init__(self, message, uninformed=()):
        super().__init__(message)
        self.uninformed = tuple(uninformed)


class WellPosednessError(SingularInformation):
    """Fusion problem leaves state coordinates structurally uninformed."""


class NonFiniteResidual(DifftwinError):
    """Residual evaluation produced NaN or infinity."""


class ModelEvaluationError(DifftwinError):
    """A model raised during evaluation; carries the offending source id."""

    def __init__(self, source_id, cause):
        super().__init__(f"model evaluation failed for source {source_id!r}: {cause}")
        self.source_id = source_id


class ConfigError(DifftwinError):
    """Invalid or inconsistent configuration."""


class FrozenStep(DifftwinError):
    """Mutation attempted on a time step frozen by a backpropagation period."""


class UnknownNeighbor(DifftwinError):
    """Message from a sender that was never registered."""


class UnknownAction(DifftwinError):
    """Control message with an unrecognized action."""


class GradientOutsidePeriod(DifftwinError):
    """Gradient message handled while not in the backpropagation period."""


class MalformedMessage(DifftwinError):
    """Wire message failed to parse or violates the message schema."""

    def __init__(self, message, offset=0):
        super().__init__(message)
        self.offset = offset


class NodeError(DifftwinError):
    """A node failed while serving the transport: a call or round raised,
    its process exited or disconnected, or its exchange did not settle."""

    def __init__(self, node, message):
        super().__init__(f"node {node}: {message}")
        self.node = node


class TrainingDiverged(DifftwinError):
    """Network training produced a non-finite validation loss."""


class FitIllConditioned(DifftwinError):
    """Least-squares design matrix is rank deficient."""


class KernelFailure(DifftwinError):
    """A dense linear-algebra kernel failed inside one fusion."""
