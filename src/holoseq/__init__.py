"""Phase-stable SLM hologram sequences for optical tweezer array transport.

Pipeline: describe a task (`geometry`), assign and discretize transport
(`planner`), solve each frame's hologram with phase carry-over (`solvers`,
`sequence`), model the refresh transient between frames (`transient`), and
evaluate (`metrics`).  `cli` wires it all behind the `holoseq` command.
"""

from .geometry import (
    LatticeSpec,
    OpticalConfig,
    TaskSpec,
    TrapLayout,
    build_lattice,
    custom_task,
    instantiate_task,
    minimal_3x3_task,
    offset_bilayer_task,
    paper_optical_config,
    reconfig_2d_task,
    reconfig_3d_task,
)
from .metrics import MetricsReport, aggregate, phase_diff, transition_distribution, uniformity
from .planner import (
    Assignment,
    InfeasibleAssignmentError,
    TransportPlan,
    assign,
    brute_force_assign,
    discretize,
    plan_task,
)
from .propagation import (
    DensePropagator,
    PhaseMask,
    SeparablePropagator,
    adjoint_phase,
    build_dense,
    build_separable,
    forward,
    forward_dense,
    wrap_phase,
)
from .sequence import RunRecord, run_sequence
from .solvers import (
    DarkTrapError,
    SolveResult,
    SolverSettings,
    scale_update,
    weight_update,
    wgs_solve,
    wpgs_solve,
)
from .transient import (
    RefreshModel,
    intensity_model,
    pixel_interpolate,
    sample_refresh,
    transient_exact,
    transient_leading,
)

__version__ = "0.1.0"
