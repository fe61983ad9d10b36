"""Failure injection, verified recovery collection, and supervised intervention
for stage-waypoint manipulation tasks in a deterministic kinematic simulator."""

__version__ = "0.1.0"

from .config import TASKS, Config, default_config, load_config, task_spec
from .dataset import (
    DatasetEntry,
    DatasetStats,
    build_entry,
    build_gt_entries,
    dataset_stats,
    enforce_ratio,
    read_dataset,
    split_by_seed,
    write_dataset,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DatasetFormatError,
    DatasetVersionError,
    EmptyPlanError,
    FailSafeError,
    InvalidCommandError,
    InvalidPoseError,
    MetricsError,
    SceneError,
    SceneGenerationError,
)
from .failures import FailureCase, FailureSpec, generate_failure_case, perturb_stage
from .geometry import DeltaAction, Pose, apply_delta, delta_action, interpolate_stage
from .pipeline import (
    build_seed_entries,
    config_fingerprint,
    generate_task_entries,
    run_episode_pair,
    supervise_task,
)
from .recovery import CandidateRecovery, collect_candidates
from .sim import Simulator
from .supervisor import (
    AssistantDecision,
    EpisodeResult,
    Metrics,
    evaluate_assistant,
    null_assistant,
    oracle_assistant_decide,
    run_supervised_episode,
)
from .tasks import plan_task, rollout_plan
from .verifier import reverify_entries, verify_candidate

__all__ = [
    "AssistantDecision",
    "CandidateRecovery",
    "Config",
    "ConfigError",
    "ContractViolation",
    "DatasetEntry",
    "DatasetFormatError",
    "DatasetStats",
    "DatasetVersionError",
    "DeltaAction",
    "EmptyPlanError",
    "EpisodeResult",
    "FailSafeError",
    "FailureCase",
    "FailureSpec",
    "InvalidCommandError",
    "InvalidPoseError",
    "Metrics",
    "MetricsError",
    "Pose",
    "SceneError",
    "SceneGenerationError",
    "Simulator",
    "TASKS",
    "apply_delta",
    "build_entry",
    "build_gt_entries",
    "build_seed_entries",
    "collect_candidates",
    "config_fingerprint",
    "dataset_stats",
    "default_config",
    "delta_action",
    "enforce_ratio",
    "evaluate_assistant",
    "generate_failure_case",
    "generate_task_entries",
    "interpolate_stage",
    "load_config",
    "null_assistant",
    "oracle_assistant_decide",
    "perturb_stage",
    "plan_task",
    "read_dataset",
    "reverify_entries",
    "rollout_plan",
    "run_episode_pair",
    "run_supervised_episode",
    "split_by_seed",
    "supervise_task",
    "task_spec",
    "verify_candidate",
    "write_dataset",
    "__version__",
]
