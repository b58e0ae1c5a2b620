"""vacuumlab: numerical laboratory for vacuum-potential relativistic dynamics.

Point particles under four force models, a sigma-discretized string with
its conformal world-surface equation, a discrete least-action oracle
that cross-validates every hand-coded equation of motion, and a scenario
CLI with reproducible CSV output.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ActionDomainError,
    ConvergenceError,
    DegenerateLagrangianError,
    DegenerateMultiplierError,
    EnergyDomainError,
    InvalidSourceError,
    MisalignedScenariosError,
    NonpositiveMassError,
    ParseError,
    PhysicsDomainError,
    SingularPointError,
    StepFailureError,
    SuperluminalVelocityError,
    VacuumLabError,
    ValidationError,
    ZeroChargeError,
)
from .geometry import Vec3, proper_time_factor  # noqa: F401
from .potentials import (  # noqa: F401
    CallableField,
    CoulombField,
    LinearField,
    PotentialField,
    SourceKind,
    SourceSpec,
    UniformField,
    UniformMagneticField,
    build_potential,
    electric_field,
    magnetic_field,
    wave_residual,
)
from .particle import (  # noqa: F401
    ForceModel,
    ModelKind,
    ParticleState,
    TwoParticleScenario,
    classical_momentum,
    classical_rhs,
    constrained_rhs,
    dynamic_mass,
    interacting_energy,
    interacting_hamiltonian,
    interacting_rhs,
    interaction_extra_force,
    rest_mass_limit_check,
    total_energy,
    vacuum_free_hamiltonian,
    vacuum_rhs,
    vacuum_momentum,
)
from .integrate import (  # noqa: F401
    ConservationReport,
    IntegrationParams,
    Trajectory,
    integrate_particle,
    integrate_string,
)
from .conformal import relax_elliptic  # noqa: F401
