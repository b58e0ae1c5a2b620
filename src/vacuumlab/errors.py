"""Exception hierarchy shared by all vacuumlab modules.

Physics-domain violations (superluminal states, nonpositive dynamic mass,
square-root domains going bad) are distinct from usage errors (bad configs)
and from solver failures (no convergence, step-size collapse) so the CLI
can map them onto its exit-code contract.
"""


class VacuumLabError(Exception):
    """Base class for all errors raised by this package."""


class PhysicsDomainError(VacuumLabError):
    """A state or input left the physical domain of the active model.

    Carries ``where`` when the failing item is known: a sigma node index in
    string code, a row position in the array forms of the invariants.
    """

    def __init__(self, message="", where=None):
        super().__init__(message)
        self.where = where


class SuperluminalVelocityError(PhysicsDomainError):
    """|u| >= 1 in light-speed units."""


class NonpositiveMassError(PhysicsDomainError):
    """Dynamic mass -wbar would be <= 0 (wbar >= 0)."""


class EnergyDomainError(PhysicsDomainError):
    """Argument of an energy square root went nonpositive."""


class DegenerateMultiplierError(PhysicsDomainError):
    """Constrained-model multiplier channel lambda*tdot <= 0."""


class ZeroChargeError(PhysicsDomainError):
    """Operation requires a nonzero test charge."""


class SingularPointError(PhysicsDomainError):
    """Evaluation requested on the singular support of a point source."""


class DegenerateLagrangianError(VacuumLabError):
    """Legendre transform requested for a degenerate Lagrangian kind."""


class ActionDomainError(PhysicsDomainError):
    """Square-root argument of a Lagrangian went nonpositive along a path."""


class InvalidSourceError(VacuumLabError):
    """SourceSpec invariants violated."""


class StepFailureError(VacuumLabError):
    """Adaptive integrator could not meet tolerance at the minimum step."""


class ConvergenceError(VacuumLabError):
    """Iterative solver exhausted its budget; carries the residual history tail."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class MisalignedScenariosError(VacuumLabError):
    """compare was asked to align runs whose initial kinematics differ."""


class ParseError(VacuumLabError):
    """Scenario file could not be parsed."""


class ValidationError(VacuumLabError):
    """Scenario parsed but violates the schema or a physical invariant."""
