"""Exception types shared across the package."""


class SlmcfError(Exception):
    """Base class for all package errors."""


class ScenarioError(SlmcfError):
    """Invalid or inadmissible scenario configuration."""


class UnknownMetricError(ScenarioError):
    """Requested metric id is not in the catalog."""


class ChartDomainError(ScenarioError):
    """A domain that reaches past the chart of its metric (|x| >= r_max)."""


class NonConvexDomainError(ScenarioError):
    """Boundary curvature fails to be strictly positive."""


class GridError(SlmcfError):
    """Degenerate grid mapping or unusable grid parameters."""


class SpacelikeViolationError(SlmcfError):
    """|Du|^2 reached the space-like threshold at some node.

    Carries the offending node index and the measured |Du|^2 value.
    """

    def __init__(self, node, value, message=None):
        self.node = node
        self.value = value
        super().__init__(message or f"space-like violation at node {node}: |Du|^2 = {value}")


class SpacelikeBoundaryError(SpacelikeViolationError):
    """|D_T u| >= 1 at a boundary node, contact-angle closure impossible."""


class NewtonError(SlmcfError):
    """Newton iteration failed (stagnation or space-like loss in line search)."""


class StepSizeUnderflowError(SlmcfError):
    """Time step collapsed below 1e-14; blow-up or mis-configured scenario."""


class ContinuationError(SlmcfError):
    """A level of the regularization trace did not converge.

    Carries the levels solved before it as ``trace``.
    """

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)


class CheckPreconditionError(SlmcfError):
    """A verification check was invoked on data it does not apply to."""
