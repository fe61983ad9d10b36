"""Config parsing, validation, and the config hash."""

import ast
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

import failsafe
from failsafe.config import (
    DatasetConfig,
    PlannerConfig,
    SimConfig,
    config_from_mapping,
    default_config,
    load_config,
    parse_failure_entry,
)
from failsafe.errors import ConfigError
from failsafe.pipeline import config_fingerprint


class TestDefaults:
    def test_motion_caps(self):
        cfg = default_config()
        assert cfg.sim.max_ee_speed == 0.01
        assert cfg.sim.max_ee_angular == 0.1
        assert cfg.sim.max_gripper_rate == 0.2

    def test_grasp_and_contact(self):
        cfg = default_config()
        assert cfg.sim.grasp_threshold == 0.35
        assert cfg.sim.release_threshold == 0.65
        assert cfg.sim.grasp_radius == 0.01
        assert cfg.sim.contact_radius == 0.025
        assert cfg.sim.grasp_align_tol == 0.5

    def test_loop_settings(self):
        cfg = default_config()
        assert cfg.supervisor.cadence == 10
        assert cfg.supervisor.settle_steps == 10
        assert cfg.verifier.budget_slack == 0.25
        assert cfg.dataset.failure_to_gt_ratio == 2.3
        assert cfg.dataset.candidates_per_case == 5

    def test_shipped_failure_tables(self):
        cfg = default_config()
        assert len(cfg.tasks) == 6
        for task_id, entries in cfg.tasks.items():
            assert entries, task_id
        modes = {e.mode for e in cfg.tasks["stack_cube"]}
        assert modes == {"translation", "rotation", "no_ops"}

    def test_shipped_harness_faults(self):
        cfg = default_config()
        assert set(cfg.supervisor.faults) == set(cfg.tasks)

    def test_push_uses_longer_stages(self):
        cfg = default_config()
        assert cfg.planner.stage_steps("push_cube") == 60
        assert cfg.planner.stage_steps("pick_cube") == 40


class TestFailureEntryParsing:
    def base(self, **kw):
        raw = {"mode": "translation", "axis": "x", "range": [0.03, 0.1],
               "stages": ["grasp"]}
        raw.update(kw)
        return raw

    def test_translation_needs_axis(self):
        with pytest.raises(ConfigError, match="axis"):
            parse_failure_entry(self.base(axis=None), "t")

    def test_no_ops_rejects_axis(self):
        raw = {"mode": "no_ops", "axis": "x", "range": [10, 20], "stages": ["lift"]}
        with pytest.raises(ConfigError, match="axis"):
            parse_failure_entry(raw, "t")

    def test_rotation_axis_names(self):
        raw = {"mode": "rotation", "axis": "x", "range": [0.5, 0.7], "stages": ["g"]}
        with pytest.raises(ConfigError, match="axis"):
            parse_failure_entry(raw, "t")
        raw["axis"] = "roll"
        assert parse_failure_entry(raw, "t").axis == "roll"

    def test_degrees_convert_to_radians(self):
        raw = {"mode": "rotation", "axis": "pitch", "range": [30, 45],
               "unit": "deg", "stages": ["grasp"]}
        entry = parse_failure_entry(raw, "t")
        assert entry.lo == pytest.approx(math.radians(30))
        assert entry.hi == pytest.approx(math.radians(45))

    def test_non_positive_magnitude(self):
        with pytest.raises(ConfigError, match="non-positive magnitude"):
            parse_failure_entry(self.base(range=[0.0, 0.1]), "t")

    def test_inverted_range(self):
        with pytest.raises(ConfigError, match="inverted range"):
            parse_failure_entry(self.base(range=[0.2, 0.1]), "t")

    def test_no_ops_duration_must_be_integer(self):
        raw = {"mode": "no_ops", "range": [10.5, 20], "stages": ["lift"]}
        with pytest.raises(ConfigError, match="integer"):
            parse_failure_entry(raw, "t")

    def test_empty_stages(self):
        with pytest.raises(ConfigError, match="stages"):
            parse_failure_entry(self.base(stages=[]), "t")

    def test_unknown_entry_key_is_named(self):
        with pytest.raises(ConfigError, match="wobble"):
            parse_failure_entry(self.base(wobble=3), "t")


class TestMappingValidation:
    def test_unknown_section_key_is_named(self):
        with pytest.raises(ConfigError, match="max_ee_sped"):
            config_from_mapping({"sim": {"max_ee_sped": 0.5}})

    def test_unknown_task_id(self):
        with pytest.raises(ConfigError, match="juggle_cube"):
            config_from_mapping({"tasks": {"juggle_cube": {"failures": []}}})

    @pytest.mark.parametrize("name", [
        "charger_half_extents", "pad_half_extents", "workspace_min", "workspace_max",
        "front_camera", "side_camera",
    ])
    def test_vector_fields_take_three_numbers(self, name):
        with pytest.raises(ConfigError, match=f"^'sim.{name}' must be a list of 3 numbers$"):
            config_from_mapping({"sim": {name: [0.1, 0.2]}})
        cfg = config_from_mapping({"sim": {name: [0.1, 0.2, 0.3]}})
        assert getattr(cfg.sim, name) == (0.1, 0.2, 0.3)

    def test_pair_field_takes_lo_hi(self):
        path = "planner.push_distance_range"
        with pytest.raises(ConfigError, match=rf"^'{path}' must be \[lo, hi\]$"):
            config_from_mapping({"planner": {"push_distance_range": [0.1, 0.2, 0.3]}})
        with pytest.raises(ConfigError, match=rf"^'{path}' inverted range \[0.2, 0.1\]$"):
            config_from_mapping({"planner": {"push_distance_range": [0.2, 0.1]}})
        cfg = config_from_mapping({"planner": {"push_distance_range": [0.1, 0.2]}})
        assert cfg.planner.push_distance_range == (0.1, 0.2)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"sim": {"max_ee_speed": True}})

    def test_stage_steps_below_minimum(self):
        with pytest.raises(ConfigError, match="min_stage_steps"):
            config_from_mapping({"planner": {"steps_per_stage": 5}})

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_placement_attempts_must_be_positive(self, attempts):
        with pytest.raises(ConfigError, match="max_placement_attempts"):
            config_from_mapping({"planner": {"max_placement_attempts": attempts}})

    def test_placement_half_range_must_not_be_negative(self):
        # numpy's uniform(high < low) raised ValueError from inside generate.
        with pytest.raises(ConfigError, match=r"^'planner.placement_half_range' must be >= 0$"):
            config_from_mapping({"planner": {"placement_half_range": -0.1}})

    def test_grasp_offset_must_sit_inside_radius(self):
        with pytest.raises(ConfigError, match="grasp_approach_offset"):
            config_from_mapping({"planner": {"grasp_approach_offset": 0.02}})

    def test_threshold_ordering(self):
        with pytest.raises(ConfigError, match="release_threshold"):
            config_from_mapping({"sim": {"grasp_threshold": 0.7}})

    def test_empty_mapping_gives_defaults(self):
        cfg = config_from_mapping({})
        assert cfg.sim == SimConfig()
        assert cfg.tasks == {}

    @pytest.mark.parametrize("data, path", [
        pytest.param({"tasks": ["pick_cube"]}, "tasks", id="tasks-list"),
        pytest.param({"tasks": {"pick_cube": []}}, "tasks.pick_cube", id="task-list"),
        pytest.param({"tasks": {"pick_cube": {"fails": []}}}, "tasks.pick_cube.fails",
                     id="task-unknown-key"),
        pytest.param({"supervisor": {"faults": 3}}, "supervisor.faults", id="faults-number"),
        pytest.param({"supervisor": {"faults": {"juggle_cube": []}}},
                     "supervisor.faults.juggle_cube", id="faults-unknown-task"),
        pytest.param({"planner": {"task_steps": {"pick_cube": 1.5}}},
                     "planner.task_steps.pick_cube", id="task-steps-float"),
        pytest.param({"tasks": {"pick_cube": {"failures": [
            {"mode": "spin", "range": [1, 2], "stages": ["grasp"]}]}}},
            "tasks.pick_cube.failures[0].mode", id="mode-spin"),
        pytest.param({"tasks": {"pick_cube": {"failures": [
            {"mode": ["rotation"], "range": [1, 2], "stages": ["grasp"]}]}}},
            "tasks.pick_cube.failures[0].mode", id="mode-list"),
        pytest.param({"tasks": {"pick_cube": {"failures": [
            {"mode": "translation", "axis": "x", "range": [1, 2], "unit": "deg",
             "stages": ["grasp"]}]}}},
            "tasks.pick_cube.failures[0].unit", id="translation-in-deg"),
        pytest.param({"tasks": {"pick_cube": {"failures": [
            {"mode": "no_ops", "range": [10, 20], "unit": "m", "stages": ["lift"]}]}}},
            "tasks.pick_cube.failures[0].unit", id="no-ops-in-m"),
        pytest.param({"supervisor": {"faults": {"push_cube": [
            {"mode": "translation", "axis": "x", "range": [0.03, 0.1], "stages": ["grasp"]}]}}},
            "supervisor.faults.push_cube", id="fault-stage-not-in-task"),
        # An int too large for a float is refused as non-finite, not with a traceback.
        pytest.param({"sim": {"max_ee_speed": 10**400}}, "sim.max_ee_speed",
                     id="speed-past-float"),
        pytest.param({"tasks": {"pick_cube": {"failures": [
            {"mode": "translation", "axis": "x", "range": [0.03, 10**400], "stages": ["grasp"]}]}}},
            "tasks.pick_cube.failures[0].range", id="range-end-past-float"),
    ])
    def test_task_maps_and_failure_entries_name_their_path(self, data, path):
        with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
            config_from_mapping(data)


class TestHashing:
    def test_packaged_config_hash_is_pinned(self):
        # The hash is of parsed values, not of arithmetic, so it is the same on any CPU.
        assert config_fingerprint(default_config()) == (
            "1e44f3cee587f93cf0f00b7b2a4a730ed1fca38200da883c2560c07e06a2259d"
        )

    def test_hash_is_stable(self):
        assert config_fingerprint(default_config()) == config_fingerprint(default_config())

    def test_hash_sees_value_changes(self):
        cfg = default_config()
        bumped = replace(cfg, sim=replace(cfg.sim, max_ee_speed=0.02))
        assert config_fingerprint(cfg) != config_fingerprint(bumped)

    def test_hash_sees_failure_table_changes(self):
        cfg = default_config()
        trimmed = replace(cfg, tasks={"pick_cube": cfg.tasks["pick_cube"]})
        assert config_fingerprint(cfg) != config_fingerprint(trimmed)

    def test_hash_ignores_mapping_order(self):
        a = config_from_mapping({"sim": {"max_ee_speed": 0.01, "focal_px": 500.0}})
        b = config_from_mapping({"sim": {"focal_px": 500.0, "max_ee_speed": 0.01}})
        assert config_fingerprint(a) == config_fingerprint(b)


class TestLoadConfig:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "sim:\n"
            "  max_ee_speed: 0.02\n"
            "tasks:\n"
            "  pick_cube:\n"
            "    failures:\n"
            "      - {mode: rotation, axis: yaw, range: [20, 40], unit: deg,\n"
            "         stages: [grasp]}\n"
        )
        cfg = load_config(path)
        assert cfg.sim.max_ee_speed == 0.02
        entry = cfg.tasks["pick_cube"][0]
        assert entry.mode == "rotation"
        assert entry.lo == pytest.approx(math.radians(20))

    def test_file_is_laid_over_the_packaged_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "sim: {max_ee_speed: 0.02}\n"
            "tasks:\n"
            "  pick_cube:\n"
            "    failures: [{mode: no_ops, range: [5, 9], unit: steps, stages: [lift]}]\n"
            "supervisor:\n"
            "  faults: {push_cube: []}\n"
        )
        cfg, default = load_config(path), default_config()
        assert cfg.sim == replace(default.sim, max_ee_speed=0.02)
        assert cfg.planner == default.planner and cfg.dataset == default.dataset
        # A task named in the file gets the file's menu; every other keeps its own.
        assert [e.mode for e in cfg.tasks["pick_cube"]] == ["no_ops"]
        assert cfg.tasks == {**default.tasks, "pick_cube": cfg.tasks["pick_cube"]}
        faults = {**default.supervisor.faults, "push_cube": []}
        assert cfg.supervisor == replace(default.supervisor, faults=faults)

    def test_empty_file_is_the_packaged_default(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("# nothing overridden\n")
        assert config_fingerprint(load_config(path)) == config_fingerprint(default_config())

    def test_packaged_parse_equals_safe_load(self):
        # The packaged defaults may go through libyaml; the dict must not change.
        from importlib.resources import files

        import yaml

        from failsafe.config import _packaged

        text = files("failsafe").joinpath("data/default.yaml").read_text("utf-8")
        assert _packaged() == yaml.safe_load(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cfg.yaml"):
            load_config(tmp_path / "cfg.yaml")

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("sim: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_root_must_be_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)


class TestSectionConfigs:
    def test_planner_task_steps_fallback(self):
        pl = PlannerConfig()
        assert pl.stage_steps("place_sphere") == pl.steps_per_stage

    def test_dataset_ratio_positive(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"dataset": {"failure_to_gt_ratio": 0}})

    def test_gt_entries_per_seed_must_not_be_negative(self):
        # A negative sample size raised ValueError from inside generate.
        with pytest.raises(ConfigError, match=r"^'dataset.gt_entries_per_seed' must be >= 0$"):
            config_from_mapping({"dataset": {"gt_entries_per_seed": -1}})

    def test_cadence_positive(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"supervisor": {"cadence": 0}})

    @pytest.mark.parametrize(
        "section, key",
        [
            ("verifier", "budget_slack"),
            ("verifier", "max_transit_steps"),
            ("supervisor", "budget_slack"),
            ("supervisor", "settle_steps"),
        ],
    )
    def test_budgets_must_not_be_negative(self, section, key):
        # A negative value ran: generate wrote no entries and supervise scored 0.0/0.0.
        with pytest.raises(ConfigError, match=rf"^'{section}.{key}' must be >= 0$"):
            config_from_mapping({section: {key: -1}})
        assert getattr(getattr(config_from_mapping({section: {key: 0}}), section), key) == 0


class TestEveryConfigIsChecked:
    @pytest.mark.parametrize("section, changes, key", [
        ("planner", {"max_placement_attempts": 0}, "planner.max_placement_attempts"),
        ("planner", {"placement_half_range": -0.1}, "planner.placement_half_range"),
        ("dataset", {"candidates_per_case": 0}, "dataset.candidates_per_case"),
        ("dataset", {"gt_entries_per_seed": -1}, "dataset.gt_entries_per_seed"),
        ("supervisor", {"cadence": 0}, "supervisor.cadence"),
        ("supervisor", {"budget_slack": -0.1}, "supervisor.budget_slack"),
        ("supervisor", {"settle_steps": -1}, "supervisor.settle_steps"),
        ("verifier", {"budget_slack": -0.1}, "verifier.budget_slack"),
        ("verifier", {"max_transit_steps": -1}, "verifier.max_transit_steps"),
        ("sim", {"max_ee_speed": 0.0}, "sim.max_ee_speed"),
        ("sim", {"max_ee_angular": -0.1}, "sim.max_ee_angular"),
        ("sim", {"max_gripper_rate": 0.0}, "sim.max_gripper_rate"),
        ("sim", {"grasp_threshold": 0.7}, "sim.grasp_threshold"),
        ("sim", {"grasp_threshold": -0.1}, "sim.grasp_threshold"),
        ("sim", {"release_threshold": 1.5}, "sim.release_threshold"),
        ("sim", {"workspace_min": (-0.3, 0.3, 0.01)}, "sim.workspace_min' y"),
        ("sim", {"workspace_max": (0.3, 0.3, 0.01)}, "sim.workspace_min' z"),
        ("planner", {"steps_per_stage": 13}, "planner.steps_per_stage"),
        ("planner", {"min_stage_steps": 41}, "planner.min_stage_steps"),
        # Passed the load and failed only at plan time, once the plan built its first stage.
        ("planner", {"min_stage_steps": 0, "steps_per_stage": 0}, "planner.min_stage_steps"),
        ("planner", {"task_steps": {"push_cube": 13}}, "planner.task_steps.push_cube"),
        ("planner", {"grasp_approach_offset": 0.0}, "planner.grasp_approach_offset"),
        ("planner", {"grasp_approach_offset": 0.01}, "planner.grasp_approach_offset"),
        ("sim", {"grasp_radius": 0.002}, "planner.grasp_approach_offset"),
        ("dataset", {"failure_to_gt_ratio": 0.0}, "dataset.failure_to_gt_ratio"),
        ("sim", {"table_z": -0.5}, "sim.table_z"),
        # Each of these passed the table and then failed every nominal rollout of a task.
        ("sim", {"goal_radius": 0.0}, "sim.goal_radius"),
        ("sim", {"stack_z_tol": 0.0}, "sim.stack_z_tol"),
        ("sim", {"cube_half_extent": -0.02}, "sim.cube_half_extent"),
        ("sim", {"sphere_radius": -0.02}, "sim.sphere_radius"),
        # A fixed camera on the point it aims at has no view axis: every pixel was NaN.
        ("sim", {"front_camera": (0.0, 0.0, 0.05)}, "sim.front_camera"),
        ("sim", {"side_camera": (0.0, 0.0, 0.05)}, "sim.side_camera"),
    ])
    def test_replace_obeys_the_bounds(self, section, changes, key):
        # The bounds bind a Config however it is built, not only one loaded from YAML.
        cfg = default_config()
        with pytest.raises(ConfigError, match=re.escape(f"'{key}")):
            replace(cfg, **{section: replace(getattr(cfg, section), **changes)})

    def test_no_module_reads_the_environment(self):
        # A setting comes from the config or a flag; an environment variable would be a
        # second source beside them.
        for path in sorted(Path(failsafe.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert not re.search(r"\benviron\b|\bgetenv\b", text), path.name

    def test_every_random_draw_goes_through_seed_stream(self):
        # A draw from any other source would sit outside the named, seeded streams the
        # determinism contract rests on.
        for path in sorted(Path(failsafe.__file__).parent.glob("*.py")):
            if path.name == "seeding.py":
                continue
            text = path.read_text(encoding="utf-8")
            assert not re.search(r"\b(np|numpy)\.random\b", text), path.name
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] not in ("random", "secrets"), path.name
                    assert not name.startswith("numpy.random"), path.name

    def test_no_module_imports_another_modules_private_name(self):
        # What two modules share is public; a leading underscore keeps a name in its module.
        for path in sorted(Path(failsafe.__file__).parent.glob("*.py")):
            imported = [
                alias.name
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            ]
            assert not [name for name in imported if re.match(r"_[a-z]", name)], path.name
