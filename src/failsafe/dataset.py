"""Dataset assembly, line-delimited serialization, statistics, seed splits.

An entry is a 10-frame observation window with supervision attached: either
a verified recovery label cut from a failed trajectory, or a success label
cut from an unperturbed rollout. Files hold one JSON record per line with
an explicit schema version, written atomically (atomic_writer, shared by
every file the package writes) in a canonical sort order so the same inputs
always produce the same bytes.
"""

import contextlib
import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .config import task_spec
from .errors import (
    ContractViolation,
    DatasetFormatError,
    DatasetVersionError,
    FailSafeError,
)
from .geometry import DeltaAction, Pose
from .recovery import deviated_stage, even_subsample
from .seeding import SEED_LIMIT, seed_stream
from .sim import CAMERA_IDS, ObservationFrame

SCHEMA_VERSION = 1
WINDOW_FRAMES = 10

# Each failure's stats column; rotation axes fold onto the frame axes they spin about.
_FAILURE_LABEL = {
    ("no_ops", None): "no_ops",
    ("translation", "x"): "trans_x",
    ("translation", "y"): "trans_y",
    ("translation", "z"): "trans_z",
    ("rotation", "roll"): "rot_x",
    ("rotation", "pitch"): "rot_y",
    ("rotation", "yaw"): "rot_z",
}
STAT_LABELS = (*_FAILURE_LABEL.values(), "gt")

_TOP_KEYS = (
    "schema_version",
    "task",
    "instruction",
    "sub_task",
    "frames",
    "is_failure",
    "failure_type",
    "recovery",
    "provenance",
)
_PROVENANCE_KEYS = ("seed", "stage", "d_index", "c_index", "magnitude")


def failure_label(mode, axis) -> str:
    try:
        return _FAILURE_LABEL[(mode, axis)]
    except (KeyError, TypeError):  # TypeError: a mode or axis that cannot be hashed
        raise ContractViolation(f"no stats column for failure ({mode!r}, {axis!r})") from None


@dataclass(eq=False)
class DatasetEntry:
    """One labeled window. is_failure decides which optional fields exist."""

    task_id: str
    instruction: str
    sub_task: str
    frames: tuple
    is_failure: bool
    failure_type: tuple | None  # (mode, axis), axis None for no_ops
    recovery: DeltaAction | None
    provenance: dict

    def __post_init__(self):
        self.frames = tuple(self.frames)
        if len(self.frames) != WINDOW_FRAMES:
            raise ContractViolation(f"entries need exactly {WINDOW_FRAMES} frames")
        steps = [f.step for f in self.frames]
        if steps != list(range(steps[0], steps[0] + WINDOW_FRAMES)) or steps[0] < 0:
            raise ContractViolation("entry frames must be step-consecutive")
        spec = task_spec(self.task_id)
        if self.sub_task not in spec.stage_names:
            raise ContractViolation(
                f"'{self.sub_task}' is not a stage of '{self.task_id}'"
            )
        if not self.instruction:
            raise ContractViolation("entry instruction must be non-empty")
        if tuple(sorted(self.provenance)) != tuple(sorted(_PROVENANCE_KEYS)):
            raise ContractViolation(f"provenance keys must be {_PROVENANCE_KEYS}")
        if self.is_failure:
            if self.failure_type is None or self.recovery is None:
                raise ContractViolation(
                    "failure entries carry both failure_type and recovery"
                )
            failure_label(*self.failure_type)  # validates the (mode, axis) pair
            if any(self.provenance[k] is None for k in _PROVENANCE_KEYS):
                raise ContractViolation("failure entries carry full provenance")
        else:
            if self.failure_type is not None or self.recovery is not None:
                raise ContractViolation(
                    "success entries carry neither failure_type nor recovery"
                )
            if any(self.provenance[k] is not None for k in _PROVENANCE_KEYS[1:]):
                raise ContractViolation(
                    "success entries carry only the seed in provenance"
                )

    @property
    def seed(self) -> int:
        return self.provenance["seed"]

    @property
    def end_step(self) -> int:
        return self.frames[-1].step

    def labels(self) -> dict:
        """The on-disk record with each frame cut to its step; key order here is the
        on-disk key order. Reading it makes no frame part."""
        if self.failure_type is None:
            failure_type = None
        else:
            failure_type = {"mode": self.failure_type[0], "axis": self.failure_type[1]}
        if self.recovery is None:
            recovery = None
        else:
            recovery = [float(v) for v in self.recovery.as_vector()]
        return {
            "schema_version": SCHEMA_VERSION,
            "task": self.task_id,
            "instruction": self.instruction,
            "sub_task": self.sub_task,
            "frames": [f.step for f in self.frames],
            "is_failure": self.is_failure,
            "failure_type": failure_type,
            "recovery": recovery,
            "provenance": {k: self.provenance[k] for k in _PROVENANCE_KEYS},
        }

    def to_record(self) -> dict:
        """Plain-JSON form: the labels with each frame's full record."""
        return {**self.labels(), "frames": [_frame_record(f) for f in self.frames]}


# -- building entries ------------------------------------------------------


def observer(sim):
    """frame(trajectory, step): the step's observation, made once for every window that holds it."""
    return functools.cache(lambda trajectory, step: sim.observe(trajectory.worlds[step], step))


def build_entry(case, candidate, frame):
    """Label one verified recovery with the failure window that precedes it.

    Deviation indices start at recovery.DEVIATION_MARGIN, past a full
    window; a window that would start before step 0 leaves fewer than
    WINDOW_FRAMES frames, which DatasetEntry rejects.
    """
    if not candidate.verified:
        raise ContractViolation("refusing to export an unverified recovery")
    spec, plan = case.spec, case.correct.plan
    start, *_ = deviated_stage(case)
    return DatasetEntry(
        task_id=plan.task_id,
        instruction=task_spec(plan.task_id).instruction,
        sub_task=plan.stages[spec.stage_index].name,
        frames=_window(case.failed, start + candidate.d_index, frame),
        is_failure=True,
        failure_type=(spec.mode, spec.axis),
        recovery=candidate.action,
        provenance={
            "seed": plan.seed,
            "stage": spec.stage_index,
            "d_index": candidate.d_index,
            "c_index": candidate.c_index,
            "magnitude": float(spec.magnitude),
        },
    )


def build_gt_entries(trajectory, cfg, frame):
    """Success windows cut at seeded end steps from a correct rollout its caller has judged."""
    task_id, seed = trajectory.plan.task_id, trajectory.plan.seed
    eligible = np.arange(WINDOW_FRAMES - 1, len(trajectory.worlds))
    count = min(cfg.dataset.gt_entries_per_seed, len(eligible))
    rng = seed_stream("gt-window", task_id, seed)
    ends = sorted(int(e) for e in rng.choice(eligible, size=count, replace=False))
    spec = task_spec(task_id)
    entries = []
    for end in ends:
        entries.append(
            DatasetEntry(
                task_id=task_id,
                instruction=spec.instruction,
                sub_task=spec.stage_names[trajectory.stage_at(end)],
                frames=_window(trajectory, end, frame),
                is_failure=False,
                failure_type=None,
                recovery=None,
                provenance={
                    "seed": seed,
                    "stage": None,
                    "d_index": None,
                    "c_index": None,
                    "magnitude": None,
                },
            )
        )
    return entries


def _window(trajectory, end, frame):
    """The 10 observation frames ending at trajectory step `end`."""
    return tuple(frame(trajectory, i) for i in range(end - WINDOW_FRAMES + 1, end + 1))


def enforce_ratio(entries, cfg):
    """Subsample success entries toward the configured failure:GT ratio.

    Failures are never dropped; the GT pool is evenly thinned (in canonical
    order) to round(failures / ratio) entries when it is larger than that.
    """
    ordered = sorted(entries, key=sort_key)
    failures = [e for e in ordered if e.is_failure]
    ground_truth = [e for e in ordered if not e.is_failure]
    target = round(len(failures) / cfg.dataset.failure_to_gt_ratio)
    if target < len(ground_truth):
        ground_truth = even_subsample(ground_truth, target) if target > 0 else []
    return sorted(failures + ground_truth, key=sort_key)


# -- serialization ---------------------------------------------------------


def sort_key(entry: DatasetEntry):
    """The canonical order: files are written in it, and verify checks it."""
    p = entry.provenance
    return (
        entry.task_id,
        p["seed"],
        entry.is_failure,
        -1 if p["stage"] is None else p["stage"],
        -1 if p["d_index"] is None else p["d_index"],
        -1 if p["c_index"] is None else p["c_index"],
        entry.end_step,
    )


def _pose_record(pose: Pose) -> dict:
    return {
        "position": pose.position.tolist(),
        "orientation": pose.orientation.tolist(),
        "gripper": float(pose.gripper),
    }


def _frame_record(frame: ObservationFrame) -> dict:
    return {
        "step": int(frame.step),
        "ee": _pose_record(frame.ee_pose),
        "objects": {
            obj_id: _pose_record(frame.object_poses[obj_id])
            for obj_id in sorted(frame.object_poses)
        },
        "cameras": {
            cam: [[kp, u, v] for kp, u, v in frame.cameras[cam]]
            for cam in CAMERA_IDS
        },
        "image_path": None,  # reserved for an attached renderer
    }


def write_dataset(entries, path) -> int:
    """Sort, serialize, and atomically replace `path`. Returns entry count."""
    ordered = sorted(entries, key=sort_key)
    with atomic_writer(path) as fh:
        for e in ordered:
            fh.write((json.dumps(e.to_record(), separators=(",", ":")) + "\n").encode("utf-8"))
    return len(ordered)


@contextlib.contextmanager
def atomic_writer(path):
    """A binary file beside `path`, swapped into place when the block exits
    cleanly: readers see the old file or the new one, never a partial write.
    The file gets the mode open() would give it under the process umask."""
    umask = os.umask(0)  # reading the umask means setting it; put it back
    os.umask(umask)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp made it 0600
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_dataset(path):
    """Parse a dataset file back into entries.

    A bad line (not UTF-8, not JSON, nested past the parser's depth, or not an
    entry) raises DatasetFormatError (or DatasetVersionError) naming its 1-based
    line number. Lines are decoded one by one, so a bad byte is pinned to its line.
    """
    entries = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                try:
                    text = line.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise DatasetFormatError(f"not UTF-8 ({exc})") from None
                if not text:
                    raise DatasetFormatError("blank line")
                try:
                    record = json.loads(text)
                except (ValueError, RecursionError) as exc:
                    raise DatasetFormatError(f"not valid JSON ({exc})") from None
                entries.append(entry_from_record(record))
            except DatasetFormatError as exc:
                raise type(exc)(f"line {number}: {exc}", line=number) from None
    return entries


def dataset_stats(path) -> "DatasetStats":
    return DatasetStats.from_entries(read_dataset(path))


def split_by_seed(entries, test_seeds):
    """Partition entries into (train, test) by scene seed. Disjoint by construction."""
    held = {int(s) for s in test_seeds}
    train = [e for e in entries if e.seed not in held]
    test = [e for e in entries if e.seed in held]
    return train, test


# -- record validation -----------------------------------------------------


def _require_keys(record, keys, what):
    if not isinstance(record, dict):
        raise DatasetFormatError(f"{what} must be a mapping")
    unknown = set(record) - set(keys)
    if unknown:
        raise DatasetFormatError(f"{what} has unknown keys {sorted(unknown)}")
    missing = set(keys) - set(record)
    if missing:
        raise DatasetFormatError(f"{what} is missing keys {sorted(missing)}")


def _number(value, what, allow_none=False):
    if type(value) is float and math.isfinite(value):  # what JSON numbers mostly are
        return value
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetFormatError(f"{what} must be a number")
    with contextlib.suppress(OverflowError):  # an int too large for a float
        if math.isfinite(value):
            return float(value)
    raise DatasetFormatError(f"{what} must be finite")


def _integer(value, what, allow_none=False, limit=math.inf):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatasetFormatError(f"{what} must be an integer")
    if not 0 <= value < limit:
        raise DatasetFormatError(f"{what} must lie in [0, {limit})")
    return value


def _float_list(value, n, what):
    if not isinstance(value, list) or len(value) != n:
        raise DatasetFormatError(f"{what} must be a list of {n} numbers")
    return [_number(v, what) for v in value]


def _pose_from_record(record, what) -> Pose:
    _require_keys(record, ("position", "orientation", "gripper"), what)
    position = np.array(_float_list(record["position"], 3, f"{what}.position"))
    orientation = np.array(
        _float_list(record["orientation"], 4, f"{what}.orientation")
    )
    if abs(float(np.dot(orientation, orientation)) - 1.0) > 1e-9:
        raise DatasetFormatError(f"{what}.orientation is not a unit quaternion")
    gripper = _number(record["gripper"], f"{what}.gripper")
    if not (0.0 <= gripper <= 1.0):
        raise DatasetFormatError(f"{what}.gripper must lie in [0, 1]")
    # Every field is checked above. Keep the writer's normalized quaternion
    # bits rather than renormalizing, so reading inverts writing.
    return Pose.trusted(position, orientation, gripper, normalised=True)


def _frame_from_record(record, what) -> ObservationFrame:
    _require_keys(record, ("step", "ee", "objects", "cameras", "image_path"), what)
    step = _integer(record["step"], f"{what}.step")
    ee = _pose_from_record(record["ee"], f"{what}.ee")
    objects_rec = record["objects"]
    if not isinstance(objects_rec, dict):
        raise DatasetFormatError(f"{what}.objects must be a mapping")
    objects = {}
    for obj_id in sorted(objects_rec):
        if not isinstance(obj_id, str) or not obj_id:
            raise DatasetFormatError(f"{what}.objects keys must be non-empty strings")
        objects[obj_id] = _pose_from_record(objects_rec[obj_id], f"{what}.objects[{obj_id}]")
    _require_keys(record["cameras"], CAMERA_IDS, f"{what}.cameras")
    cameras = {}
    for cam in CAMERA_IDS:
        points = record["cameras"][cam]
        if not isinstance(points, list):
            raise DatasetFormatError(f"{what}.cameras.{cam} must be a list")
        parsed = []
        for item in points:
            if not isinstance(item, list) or len(item) != 3 or not isinstance(item[0], str):
                raise DatasetFormatError(
                    f"{what}.cameras.{cam} items must be [keypoint, u, v]"
                )
            parsed.append(
                (
                    item[0],
                    _number(item[1], f"{what}.cameras.{cam}.u"),
                    _number(item[2], f"{what}.cameras.{cam}.v"),
                )
            )
        cameras[cam] = parsed
    if record["image_path"] is not None and not isinstance(record["image_path"], str):
        raise DatasetFormatError(f"{what}.image_path must be a string or null")
    return ObservationFrame(step, ee_pose=ee, object_poses=objects, cameras=cameras)


def entry_from_record(record) -> DatasetEntry:
    """Validate one parsed line and rebuild the entry it encodes."""
    if not isinstance(record, dict):
        raise DatasetFormatError("record must be a mapping")
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DatasetVersionError(
            f"schema_version {version!r} is not supported (this library reads {SCHEMA_VERSION})"
        )
    _require_keys(record, _TOP_KEYS, "record")
    task = record["task"]
    if not isinstance(task, str):
        raise DatasetFormatError("task must be a string")
    for key in ("instruction", "sub_task"):
        if not isinstance(record[key], str) or not record[key]:
            raise DatasetFormatError(f"{key} must be a non-empty string")
    frames_rec = record["frames"]
    if not isinstance(frames_rec, list) or len(frames_rec) != WINDOW_FRAMES:
        raise DatasetFormatError(f"frames must be a list of {WINDOW_FRAMES} records")
    frames = [
        _frame_from_record(f, f"frames[{i}]") for i, f in enumerate(frames_rec)
    ]
    is_failure = record["is_failure"]
    if not isinstance(is_failure, bool):
        raise DatasetFormatError("is_failure must be a boolean")

    failure_rec = record["failure_type"]
    if failure_rec is None:
        failure_type = None
    else:
        _require_keys(failure_rec, ("mode", "axis"), "failure_type")
        failure_type = (failure_rec["mode"], failure_rec["axis"])  # DatasetEntry checks it

    recovery_rec = record["recovery"]
    if recovery_rec is None:
        recovery = None
    else:
        values = _float_list(recovery_rec, 7, "recovery")
        if any(abs(v) > math.pi for v in values[3:6]):
            raise DatasetFormatError(
                "recovery rotation components must lie in [-pi, pi]"
            )
        if not (-1.0 <= values[6] <= 1.0):
            raise DatasetFormatError("recovery gripper delta must lie in [-1, 1]")
        # Every value is checked above. Keep the written angles rather than wrapping
        # them again, so reading inverts writing.
        recovery = DeltaAction.__new__(DeltaAction)
        recovery.d_position, recovery.d_rotation = np.array(values[:3]), np.array(values[3:6])
        recovery.d_gripper = values[6]

    prov_rec = record["provenance"]
    _require_keys(prov_rec, _PROVENANCE_KEYS, "provenance")
    provenance = {
        "seed": _integer(prov_rec["seed"], "provenance.seed", limit=SEED_LIMIT),
        "stage": _integer(prov_rec["stage"], "provenance.stage", allow_none=True),
        "d_index": _integer(prov_rec["d_index"], "provenance.d_index", allow_none=True),
        "c_index": _integer(prov_rec["c_index"], "provenance.c_index", allow_none=True),
        "magnitude": _number(prov_rec["magnitude"], "provenance.magnitude", allow_none=True),
    }

    try:
        return DatasetEntry(
            task_id=task,
            instruction=record["instruction"],
            sub_task=record["sub_task"],
            frames=tuple(frames),
            is_failure=is_failure,
            failure_type=failure_type,
            recovery=recovery,
            provenance=provenance,
        )
    except FailSafeError as exc:
        raise DatasetFormatError(str(exc)) from None


# -- statistics ------------------------------------------------------------


@dataclass
class DatasetStats:
    """Entry counts keyed by (task, column); GT entries land in column 'gt'."""

    counts: dict

    def __post_init__(self):
        clean = {}
        for key, value in self.counts.items():
            task, label = key
            if label not in STAT_LABELS:
                raise ContractViolation(f"unknown stats column '{label}'")
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ContractViolation("stats counts must be non-negative integers")
            if value:
                clean[(task, label)] = value
        self.counts = clean

    @classmethod
    def from_entries(cls, entries) -> "DatasetStats":
        counts = {}
        for entry in entries:
            label = "gt" if not entry.is_failure else failure_label(*entry.failure_type)
            key = (entry.task_id, label)
            counts[key] = counts.get(key, 0) + 1
        return cls(counts)

    @property
    def total_failures(self) -> int:
        return sum(v for (_, label), v in self.counts.items() if label != "gt")

    @property
    def total_gt(self) -> int:
        return sum(v for (_, label), v in self.counts.items() if label == "gt")

    @property
    def ratio(self) -> float:
        """Failure-to-GT ratio; 0.0 for no failures, inf for no GT."""
        if self.total_failures == 0:
            return 0.0
        if self.total_gt == 0:
            return math.inf
        return self.total_failures / self.total_gt

    def ratio_label(self) -> str:
        return f"{self.ratio:.1f}:1"

    def summary(self) -> dict:
        """Plain-JSON report: per-task rows, per-type totals, the ratio."""
        rows = {task: dict.fromkeys(STAT_LABELS, 0) for task, _ in sorted(self.counts)}
        totals = dict.fromkeys(STAT_LABELS, 0)
        for (task, label), value in self.counts.items():
            rows[task][label] = value
            totals[label] += value
        return {
            "tasks": rows,
            "totals": totals,
            "failures": self.total_failures,
            "gt": self.total_gt,
            "ratio": round(self.ratio, 2) if math.isfinite(self.ratio) else None,
            "ratio_label": self.ratio_label(),
        }
