"""Marker-based kinematic-chain identification for reconfigurable modular robots."""

from .descriptor import ChainDescriptor, ChainEntry, ChainSyntaxError, parse, serialize
from .geometry import (
    CONNECTION_ANGLES,
    DegenerateGeometry,
    Pose,
    compose,
    discretize_angle,
    invert,
    unit_between,
)
from .identify import (
    AmbiguousParent,
    ChainLink,
    DetectedModule,
    IdentifiedChain,
    IdentifyConfig,
    IdentifyError,
    LimitExceeded,
    NonCollinearBundles,
    NoToolModule,
    build_chain,
    build_tree,
    constraint_check,
    estimate_joint_angle,
    find_parent_geometric,
    find_parent_optimization,
    neighbors,
    to_descriptor,
    validate_markers,
)
from .modelgen import ModelParseError, RobotModel, generate_model, read_model, write_model
from .module_db import (
    INVERTED,
    UPRIGHT,
    DatabaseError,
    DatabaseParseError,
    DatabaseValidationError,
    EmptyCatalog,
    ModuleDatabase,
    ModuleRecord,
    ModuleType,
    default_database,
    load_database,
    save_database,
)
from .synth import (
    MarkerObservation,
    SceneConfig,
    LimitViolation,
    MissingInstance,
    SceneParseError,
    SynthError,
    forward_poses,
    read_scene,
    synthesize,
    write_scene,
)

__version__ = "0.1.0"
