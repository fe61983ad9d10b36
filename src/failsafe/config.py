"""Typed run configuration and the task table.

All tunable constants live here: simulator physics surrogates, planner
geometry, failure-injection ranges, dataset knobs, and the supervised-loop
settings. Configs load from YAML with strict unknown-key checking (typos
fail loudly, naming the offending key, and failure entries may only name
stages their task has). Every Config obeys the bounds of _check_ranges,
however it is built: loaded, defaulted or made with dataclasses.replace.
The one config hash a run manifest pins lives in pipeline.config_fingerprint.

TASKS is the one table that says what each task is: its family (which
stage plan and success test it runs) and the ids of the objects its scene
places. The planner and the simulator read it, and config validation
checks task ids and stage names against it. `tasks`, `supervisor.faults`
and `planner.task_steps` are all maps keyed by task ids, read by one parser.

FAILURE_MODES is the one table of what a failure entry may say: each mode's
axes (no_ops takes none) and units, the first unit its default. Ranges are
in meters (`unit: m`), degrees or radians (`unit: deg|rad`) or steps
(`unit: steps`), and are stored in meters/radians/steps.
"""

import contextlib
import math
from dataclasses import dataclass, field, fields
from importlib.resources import files

import yaml

from .errors import ConfigError
from .geometry import ROTATION_AXES, TRANSLATION_AXES

# Each failure mode's axes and units; a mode's first unit is its default.
FAILURE_MODES = {
    "translation": (TRANSLATION_AXES, ("m",)),
    "rotation": (ROTATION_AXES, ("rad", "deg")),
    "no_ops": ((None,), ("steps",)),
}

# Each task family's stage names, in plan order.
FAMILY_STAGES = {
    "pick": ("reach", "grasp", "lift"),
    "push": ("approach", "push"),
    "place": ("reach", "grasp", "lift", "align", "lower", "release"),
}


@dataclass(frozen=True)
class TaskSpec:
    """One task. Its family picks the stage plan and the success test, and a
    push scene also draws a goal. The scene places `objects` in order; the
    first is the object the task moves, and a place task's second is the
    base it is set on."""

    task_id: str
    instruction: str
    family: str  # a FAMILY_STAGES key
    objects: tuple

    @property
    def stage_names(self) -> tuple:
        return FAMILY_STAGES[self.family]


TASKS = {
    spec.task_id: spec
    for spec in (
        TaskSpec(
            "pick_cube",
            "pick up the red cube",
            "pick",
            ("cube",),
        ),
        TaskSpec(
            "push_cube",
            "push the cube to the goal marker",
            "push",
            ("cube",),
        ),
        TaskSpec(
            "stack_cube",
            "stack the red cube on top of the green cube",
            "place",
            ("cube_a", "cube_b"),
        ),
        TaskSpec(
            "pick_sphere",
            "pick up the ball",
            "pick",
            ("sphere",),
        ),
        TaskSpec(
            "place_sphere",
            "place the ball on the pad",
            "place",
            ("sphere", "pad"),
        ),
        TaskSpec(
            "pick_charger",
            "pick up the charger",
            "pick",
            ("charger",),
        ),
    )
}


def task_spec(task_id: str) -> TaskSpec:
    try:
        return TASKS[task_id]
    except KeyError:
        raise ConfigError(f"unknown task '{task_id}'") from None


def _reject_unknown(raw: dict, allowed, prefix: str):
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key '{prefix}{key}'")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}' must be a number, got {value!r}")
    with contextlib.suppress(OverflowError):  # an int too large for a float
        if math.isfinite(value):
            return float(value)
    raise ConfigError(f"'{path}' must be finite")


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer, got {value!r}")
    return value


def _vector3(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"'{path}' must be a list of 3 numbers")
    return tuple(_number(v, path) for v in value)


def _range(value, path: str, number) -> tuple:
    """A [lo, hi] pair, each end read by number(v, path)."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"'{path}' must be [lo, hi]")
    lo, hi = (number(v, path) for v in value)
    if lo > hi:
        raise ConfigError(f"'{path}' inverted range [{lo}, {hi}]")
    return lo, hi


@dataclass(frozen=True)
class FailureEntry:
    """One configured perturbation: mode, optional axis, magnitude range,
    eligible stage names. Ranges are stored unit-normalized."""

    mode: str
    axis: str | None
    lo: float
    hi: float
    stages: tuple


def parse_failure_entry(raw, path: str) -> FailureEntry:
    if not isinstance(raw, dict):
        raise ConfigError(f"'{path}' must be a mapping")
    _reject_unknown(raw, ("mode", "axis", "range", "unit", "stages"), path + ".")
    mode = raw.get("mode")
    if not isinstance(mode, str) or mode not in FAILURE_MODES:  # a YAML list is unhashable
        raise ConfigError(f"'{path}.mode' must be one of {tuple(FAILURE_MODES)}, got {mode!r}")
    axes, units = FAILURE_MODES[mode]
    axis, unit = raw.get("axis"), raw.get("unit", units[0])
    if axis not in axes:
        raise ConfigError(f"'{path}.axis' must be one of {axes} for {mode}")
    if unit not in units:
        raise ConfigError(f"'{path}.unit' must be one of {units} for {mode}")
    lo, hi = _range(raw.get("range"), f"{path}.range", _integer if unit == "steps" else _number)
    if lo <= 0:
        raise ConfigError(f"'{path}.range' has non-positive magnitude {lo}")
    if unit == "deg":
        lo, hi = math.radians(lo), math.radians(hi)

    stages = raw.get("stages")
    if not isinstance(stages, (list, tuple)) or not stages:
        raise ConfigError(f"'{path}.stages' must be a non-empty list of stage names")
    for s in stages:
        if not isinstance(s, str):
            raise ConfigError(f"'{path}.stages' entries must be strings")

    return FailureEntry(mode=mode, axis=axis, lo=lo, hi=hi, stages=tuple(stages))


@dataclass(frozen=True)
class SimConfig:
    cube_half_extent: float = 0.02
    sphere_radius: float = 0.02
    charger_half_extents: tuple = (0.03, 0.02, 0.01)
    pad_half_extents: tuple = (0.03, 0.03, 0.01)
    lift_threshold: float = 0.06
    goal_radius: float = 0.03
    stack_xy_tol: float = 0.005
    stack_z_tol: float = 0.005
    grasp_radius: float = 0.01
    contact_radius: float = 0.025
    max_ee_speed: float = 0.01
    max_ee_angular: float = 0.1
    max_gripper_rate: float = 0.2
    grasp_threshold: float = 0.35
    release_threshold: float = 0.65
    grasp_align_tol: float = 0.5
    table_z: float = 0.0  # only 0 is valid; kept so the config hash stays put
    workspace_min: tuple = (-0.3, -0.3, 0.01)
    workspace_max: tuple = (0.3, 0.3, 0.45)
    image_width: int = 640
    image_height: int = 480
    focal_px: float = 500.0
    front_camera: tuple = (0.5, 0.0, 0.35)
    side_camera: tuple = (0.0, 0.5, 0.35)


@dataclass(frozen=True)
class PlannerConfig:
    steps_per_stage: int = 40
    task_steps: dict = field(default_factory=lambda: {"push_cube": 60})
    min_stage_steps: int = 14
    home_height: float = 0.20
    approach_height: float = 0.10
    grasp_approach_offset: float = 0.002
    lift_height: float = 0.075
    carry_height: float = 0.12
    push_standoff: float = 0.045
    placement_half_range: float = 0.10
    min_object_separation: float = 0.07
    push_distance_range: tuple = (0.09, 0.18)
    push_goal_limit: float = 0.12
    max_placement_attempts: int = 100

    def stage_steps(self, task_id: str) -> int:
        return int(self.task_steps.get(task_id, self.steps_per_stage))


@dataclass(frozen=True)
class VerifierConfig:
    budget_slack: float = 0.25
    max_transit_steps: int = 600


@dataclass(frozen=True)
class DatasetConfig:
    failure_to_gt_ratio: float = 2.3
    gt_entries_per_seed: int = 2
    candidates_per_case: int = 5


@dataclass(frozen=True)
class SupervisorConfig:
    cadence: int = 10
    budget_slack: float = 0.25
    settle_steps: int = 10
    resume_pos_tol: float = 0.02
    resume_grip_tol: float = 0.15
    detect_pos_tol: float = 0.005
    detect_ang_tol: float = 0.05
    recovery_lead: int = 6
    faults: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Config:
    sim: SimConfig = field(default_factory=SimConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    tasks: dict = field(default_factory=dict)  # task_id -> list[FailureEntry]

    def __post_init__(self):
        _check_ranges(self)  # loaded, defaulted or built with dataclasses.replace alike


def _parse_section(cls, raw, prefix: str):
    """A section dataclass from its mapping. Each field's default states its kind:
    a 3-tuple is a vector, a 2-tuple a [lo, hi] pair, else an int or a float."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"'{prefix.rstrip('.')}' must be a mapping")
    spec = {f.name: f for f in fields(cls)}
    _reject_unknown(raw, spec, prefix)
    values = {}
    for name, value in raw.items():
        path = prefix + name
        default = getattr(cls, name, None)  # None: a default_factory field
        if name == "faults":
            values[name] = _task_map(value, path, _parse_entries)
        elif name == "task_steps":
            values[name] = _task_map(value, path, lambda _, steps, at: _integer(steps, at))
        elif isinstance(default, tuple) and len(default) == 3:
            values[name] = _vector3(value, path)
        elif isinstance(default, tuple) and len(default) == 2:
            values[name] = _range(value, path, _number)
        elif isinstance(default, int):
            values[name] = _integer(value, path)
        elif isinstance(default, float):
            values[name] = _number(value, path)
        else:
            raise ConfigError(f"'{path}' is not settable from config")
    return cls(**values)


def _task_map(raw, path: str, parse) -> dict:
    """A mapping keyed by task ids, each value read by parse(task_id, value, its path)."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"'{path}' must be a mapping of task ids")
    out = {}
    for task_id, value in raw.items():
        if task_id not in TASKS:
            raise ConfigError(f"unknown task '{path}.{task_id}'")
        out[task_id] = parse(task_id, value, f"{path}.{task_id}")
    return out


def _parse_entries(task_id, raw, path: str) -> list:
    """A task's failure entries; each may name only stages the task has."""
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"'{path}' must be a list")
    entries = [parse_failure_entry(e, f"{path}[{i}]") for i, e in enumerate(raw)]
    known = TASKS[task_id].stage_names
    for entry in entries:
        for stage in entry.stages:
            if stage not in known:
                raise ConfigError(f"'{path}' names unknown stage '{stage}'")
    return entries


def _task_body(task_id, body, path: str) -> list:
    """One task under `tasks`: `{failures: [...]}` or null."""
    if body is None:
        return []
    if not isinstance(body, dict):
        raise ConfigError(f"'{path}' must be a mapping")
    _reject_unknown(body, ("failures",), path + ".")
    return _parse_entries(task_id, body.get("failures") or [], path + ".failures")


def config_from_mapping(data) -> Config:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown(
        data, ("sim", "planner", "verifier", "dataset", "supervisor", "tasks"), ""
    )
    return Config(
        sim=_parse_section(SimConfig, data.get("sim"), "sim."),
        planner=_parse_section(PlannerConfig, data.get("planner"), "planner."),
        verifier=_parse_section(VerifierConfig, data.get("verifier"), "verifier."),
        dataset=_parse_section(DatasetConfig, data.get("dataset"), "dataset."),
        supervisor=_parse_section(
            SupervisorConfig, data.get("supervisor"), "supervisor."
        ),
        tasks=_task_map(data.get("tasks"), "tasks", _task_body),
    )


def _check_ranges(cfg: Config):
    sim, planner = cfg.sim, cfg.planner
    if not (0.0 <= sim.grasp_threshold < sim.release_threshold <= 1.0):
        raise ConfigError(
            "'sim.grasp_threshold' must be below 'sim.release_threshold' within [0, 1]"
        )
    for lo, hi, name in zip(sim.workspace_min, sim.workspace_max, "xyz"):
        if lo >= hi:
            raise ConfigError(f"'sim.workspace_min' {name} not below workspace_max")
    if sim.table_z != 0.0:  # scenes and the planner's heights put the table at z = 0
        raise ConfigError("'sim.table_z' must be 0: objects rest at their half-height")
    if not (0.0 < planner.grasp_approach_offset < sim.grasp_radius):
        raise ConfigError("'planner.grasp_approach_offset' must sit inside the grasp radius")
    stage_steps = {"steps_per_stage": planner.steps_per_stage,
                   **{f"task_steps.{t}": n for t, n in planner.task_steps.items()}}
    for key, steps in stage_steps.items():
        if steps < planner.min_stage_steps:
            raise ConfigError(f"'planner.{key}' below 'planner.min_stage_steps'")

    def value(path):
        section, key = path.split(".")
        return getattr(getattr(cfg, section), key)

    for path in ("sim.max_ee_speed", "sim.max_ee_angular", "sim.max_gripper_rate",
                 "sim.goal_radius", "sim.stack_z_tol", "sim.cube_half_extent",
                 "sim.sphere_radius", "dataset.failure_to_gt_ratio"):
        if value(path) <= 0:
            raise ConfigError(f"'{path}' must be positive")
    for path, low in (  # every setting bounded only from below, with its least value
        ("planner.max_placement_attempts", 1), ("planner.placement_half_range", 0),
        ("dataset.candidates_per_case", 1), ("dataset.gt_entries_per_seed", 0),
        ("supervisor.cadence", 1), ("supervisor.budget_slack", 0), ("supervisor.settle_steps", 0),
        ("verifier.budget_slack", 0), ("verifier.max_transit_steps", 0),
    ):
        if value(path) < low:
            raise ConfigError(f"'{path}' must be >= {low}")


def _overlay(base, top):
    """top laid over base: mappings merge key by key, anything else replaces."""
    if not (isinstance(base, dict) and isinstance(top, dict)):
        return top
    return {**base, **{key: _overlay(base.get(key), value) for key, value in top.items()}}


def _packaged() -> dict:
    text = files("failsafe").joinpath("data/default.yaml").read_text("utf-8")
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))  # libyaml if built


def load_config(path) -> Config:
    """Parse and validate a YAML config file laid over data/default.yaml: mappings merge
    key by key, so a task's menu under `tasks` or `supervisor.faults` replaces its default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:  # YAML text is Unicode
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return config_from_mapping(_overlay(_packaged(), {} if data is None else data))


def default_config() -> Config:
    """The packaged default configuration (data/default.yaml)."""
    return config_from_mapping(_packaged())
