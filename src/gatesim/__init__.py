"""Editable Gaussian-splat scenes, gate-crossing flight simulation, and
loss-guided training-track refinement."""

from .dynamics import QuadDynamics, QuadParams, UavDynamics, UavParams, platform_dynamics
from .edits import (
    EmptySelectionWarning,
    add,
    apply_edit_script,
    delete,
    duplicate,
    lighting,
    rotate,
    scale,
    translate,
)
from .geometry import (
    RigidTransform,
    quat_from_axis_angle,
    quat_from_yaw,
    wrap_angle,
)
from .policies import (
    CONTROL_LIMITS,
    ExpertQuadPolicy,
    ExpertUavPolicy,
    FullStateObs,
    MaskCentroidPolicy,
    MaskObs,
    NoiseParams,
    NoisyMaskPolicy,
    Policy,
    SyntheticLearner,
    ZeroPolicy,
    expert_policy,
    noisy_perception,
)
from .refinement import (
    GridPartition,
    IterationStats,
    PgrConfig,
    PgrResult,
    TrainingRecord,
    build_validation_set,
    feasibility_check,
    grid_losses,
    observability_check,
    pgr_pair,
    pgr_run,
    resample,
    task_loss,
    weights,
)
from .render import (
    DEFAULT_CAMERA,
    PinholeCamera,
    RenderResult,
    camera_pose,
    gate_mask,
    pgm_bytes,
    ppm_bytes,
    render_scene,
)
from .scene import (
    GaussianScene,
    ScenePLYError,
    SceneValidationError,
    load_scene,
    read_scene,
    save_scene,
    write_scene,
)
from .simulator import (
    GateRecord,
    Rollout,
    SimConfig,
    detect_crossing,
    events_csv,
    metrics,
    rollout,
    trajectory_csv,
)
from .tracks import (
    ARENAS,
    GATE_GEOMETRY,
    Arena,
    Gate,
    Track,
    gate_splats,
    load_track,
    perturb_track,
    reference_track,
    reference_track_names,
    save_track,
    track_from_layout,
    track_splats,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
