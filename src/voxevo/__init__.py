"""Co-optimization of voxel soft-robot bodies and neural controllers.

Robots are 5x5 grids of material voxels simulated as damped mass-spring
networks. Controllers are small MLPs, either one global network for the whole
body or one shared modular network copied into every actuator. A (mu+lambda)
evolutionary algorithm with age-fitness Pareto selection optimizes bodies and
brains for flat-terrain locomotion.
"""

from .morphology import (
    EMPTY,
    RIGID,
    SOFT,
    H_ACTUATOR,
    V_ACTUATOR,
    GRID_SIZE,
    InvalidMorphologyError,
    Morphology,
    MutationFailedError,
    mutate_morphology,
    random_morphology,
    sample_neighbor,
    validate,
)
from .physics import (
    PhysicsConfig,
    SimulationDivergedError,
    SimWorld,
    apply_actuation,
    build_world,
    center_of_mass,
    join_worlds,
    step_env,
)
from .sensing import (
    ObservationBuilder,
    ObservationConfig,
    time_signal,
)
from .control import (
    ControllerGenome,
    act,
    init_controller,
    mutate_controller,
)
from .walker import (
    EpisodeConfig,
    EpisodeResult,
    episode_fitness,
    evaluate_fitness,
    run_episode,
)
from .evolution import (
    GenerationLog,
    Evaluator,
    Individual,
    OffspringRecord,
    RunState,
    evolve_generation,
    make_offspring,
    pareto_rank,
    run_evolution,
    select_survivors,
)
from .experiments import (
    MutationAccounting,
    TransferSample,
    convergence_metrics,
    default_catalog,
    load_catalog,
    transfer_analysis,
)
from .runconfig import ConfigError, RunConfig, load_config, parse_config
from .checkpoints import (
    CheckpointIntegrityError,
    load_individual,
    load_population,
    save_individual,
    save_population,
)

__version__ = "0.1.0"
