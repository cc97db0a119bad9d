"""Unit tests for the Configurator (task configs) and the CLI."""

import argparse
import json

import pytest

from repro.cli import main as cli_main
from repro.config import (
    SelectionConfig,
    SourceConfig,
    TranslationTaskConfig,
    load_task,
    run_task,
    save_task,
    select_sequences,
)
from repro.dsm import save_dsm
from repro.errors import ConfigError
from repro.positioning import write_csv
from repro.timeutil import HOUR


class TestConfigSchema:
    def test_defaults_valid(self):
        config = TranslationTaskConfig(dsm_path="model.json")
        assert config.event_model == "heuristic"

    def test_validation(self):
        with pytest.raises(ConfigError):
            TranslationTaskConfig(dsm_path="")
        with pytest.raises(ConfigError):
            TranslationTaskConfig(dsm_path="x", event_model="svm")
        with pytest.raises(ConfigError):
            TranslationTaskConfig(dsm_path="x", display_point_policy="left")
        with pytest.raises(ConfigError):
            SourceConfig(kind="xml", path="x")
        with pytest.raises(ConfigError):
            SelectionConfig(daily_open=10.0)  # close missing

    def test_dict_roundtrip(self):
        config = TranslationTaskConfig(
            dsm_path="model.json",
            sources=[SourceConfig("csv", "a.csv"),
                     SourceConfig("jsonl", "b.jsonl")],
            selection=SelectionConfig(
                device_pattern="3a.*",
                floors=[1, 2],
                daily_open=10 * HOUR,
                daily_close=22 * HOUR,
                min_duration=900.0,
            ),
            event_model="forest",
            eps_space=3.5,
        )
        clone = TranslationTaskConfig.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_malformed(self):
        with pytest.raises(ConfigError):
            TranslationTaskConfig.from_dict({"sources": [{"kind": "csv"}]})

    def test_build_rule_combines(self):
        selection = SelectionConfig(
            device_pattern="3a.*", floors=[1], min_duration=60.0
        )
        rule = selection.build_rule()
        assert rule is not None

    def test_build_rule_empty(self):
        assert SelectionConfig(min_records=1).build_rule() is None

    def test_build_translator_config(self):
        config = TranslationTaskConfig(
            dsm_path="x", max_speed=3.0, eps_space=2.0, gap_threshold=200.0
        )
        translator_config = config.build_translator_config()
        assert translator_config.cleaning.max_speed == 3.0
        assert translator_config.annotation.splitter.eps_space == 2.0
        assert translator_config.complementing.gap_threshold == 200.0

    def test_file_roundtrip(self, tmp_path):
        config = TranslationTaskConfig(dsm_path="model.json")
        path = tmp_path / "task.json"
        save_task(config, path)
        assert load_task(path) == config

    def test_load_missing(self, tmp_path):
        with pytest.raises(ConfigError):
            load_task(tmp_path / "absent.json")


@pytest.fixture(scope="module")
def task_workspace(tmp_path_factory, mall3, population):
    """A DSM file + CSV data + task config on disk."""
    root = tmp_path_factory.mktemp("task")
    dsm_path = root / "mall.json"
    save_dsm(mall3, dsm_path)
    csv_path = root / "data.csv"
    records = sorted(r for d in population for r in d.raw)
    write_csv(records, csv_path)
    config = TranslationTaskConfig(
        dsm_path=str(dsm_path),
        sources=[SourceConfig("csv", str(csv_path))],
        selection=SelectionConfig(device_pattern="3a.*", min_records=10),
    )
    config_path = root / "task.json"
    save_task(config, config_path)
    return root, config, config_path


class TestRunTask:
    def test_select_sequences(self, task_workspace, population):
        _, config, _ = task_workspace
        sequences = select_sequences(config)
        assert len(sequences) == len(population)

    def test_no_sources_rejected(self):
        config = TranslationTaskConfig(dsm_path="x")
        with pytest.raises(ConfigError):
            select_sequences(config)

    def test_run_heuristic_task(self, task_workspace, population):
        _, config, _ = task_workspace
        batch = run_task(config)
        assert len(batch) == len(population)
        assert batch.total_semantics > 0

    def test_learned_model_requires_training(self, task_workspace):
        root, config, _ = task_workspace
        learned = TranslationTaskConfig.from_dict(
            {**config.to_dict(), "event_model": "forest"}
        )
        with pytest.raises(ConfigError):
            run_task(learned)

    def test_learned_model_with_training(self, task_workspace, population):
        from repro.events import EventEditor

        root, config, _ = task_workspace
        editor = EventEditor()
        for device in population[:3]:
            editor.designate_from_annotations(
                device.raw,
                [(s.event, s.time_range) for s in device.truth_semantics],
            )
        learned = TranslationTaskConfig.from_dict(
            {**config.to_dict(), "event_model": "naive-bayes"}
        )
        batch = run_task(learned, training_set=editor.training_set())
        assert batch.total_semantics > 0


class TestCli:
    def test_no_command_shows_help(self, capsys):
        assert cli_main([]) == 2

    def test_simulate_validate_render_translate(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = cli_main(
            ["simulate", "--devices", "2", "--floors", "1",
             "--out", str(out), "--seed", "3"]
        )
        assert code == 0
        assert (out / "mall-dsm.json").exists()
        assert (out / "positioning.csv").exists()
        assert (out / "ground-truth.json").exists()

        assert cli_main(["validate-dsm", str(out / "mall-dsm.json")]) == 0

        svg_path = tmp_path / "floor.svg"
        assert cli_main(
            ["render", str(out / "mall-dsm.json"), "--out", str(svg_path)]
        ) == 0
        assert svg_path.read_text().endswith("</svg>")

        config = TranslationTaskConfig(
            dsm_path=str(out / "mall-dsm.json"),
            sources=[SourceConfig("csv", str(out / "positioning.csv"))],
        )
        config_path = tmp_path / "task.json"
        save_task(config, config_path)
        results = tmp_path / "results"
        assert cli_main(
            ["translate", str(config_path), "--out", str(results)]
        ) == 0
        outputs = list(results.glob("*.json"))
        assert len(outputs) == 2
        payload = json.loads(outputs[0].read_text())
        assert "semantics" in payload

    def test_serve_replays_task_configs_as_live_feeds(
        self, task_workspace, tmp_path, capsys
    ):
        """`trips serve` drives the live streaming service: per-window
        progress, cumulative stats, finalized per-device exports — one
        venue per config (here the same config twice under two ids)."""
        _, _, config_path = task_workspace
        out = tmp_path / "served"
        code = cli_main(
            [
                "serve",
                f"north={config_path}",
                f"south={config_path}",
                "--window-seconds", "7200",
                "--backend", "serial",
                "--workers", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "window" in captured
        assert "finalized north:" in captured
        assert "finalized south:" in captured
        north = list((out / "north").glob("*.json"))
        south = list((out / "south").glob("*.json"))
        assert len(north) == len(south) > 0
        payload = json.loads(north[0].read_text())
        assert "semantics" in payload

    def test_serve_with_windowed_retention(
        self, task_workspace, tmp_path, capsys
    ):
        """`trips serve --retention window:4` runs end to end: every
        venue's knowledge store retires epochs beyond the newest four,
        and the service still finalizes and exports per-device results."""
        _, _, config_path = task_workspace
        out = tmp_path / "served-windowed"
        code = cli_main(
            [
                "serve",
                f"north={config_path}",
                "--window-seconds", "1800",
                "--retention", "window:4",
                "--adaptive-windowing",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "finalized north:" in captured
        assert "epochs" in captured
        assert len(list((out / "north").glob("*.json"))) > 0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_serve_resumes_a_journaled_prefix(
        self, task_workspace, tmp_path, capsys, shards
    ):
        """`trips serve --state-dir` over a directory holding a window-
        aligned journaled prefix (a kill at a window boundary) skips
        exactly the journaled records per venue and exports the same
        bytes as an uninterrupted run — single instance and cluster
        through the one serve path."""
        from repro.config import build_translator
        from repro.distributed import ShardedIngestService
        from repro.engine import EngineConfig
        from repro.live import LiveConfig, LiveTranslationService
        from repro.positioning import RecordStream, windowed_records

        _, _, config_path = task_workspace
        window_seconds = 1800.0
        task = load_task(config_path)
        feed = sorted(
            (r for s in select_sequences(task) for r in s.records),
            key=lambda r: (r.timestamp, r.device_id),
        )
        windows = list(
            windowed_records(RecordStream(iter(feed)), window_seconds)
        )
        assert len(windows) > 4
        prefix = {"north": windows[:2], "south": windows[:3]}
        translators = {venue: build_translator(task) for venue in prefix}
        retention = {venue: task.knowledge_retention for venue in prefix}
        live_config = LiveConfig(window_seconds=window_seconds)
        state_dir = tmp_path / "state"
        if shards == 1:
            service = LiveTranslationService(
                translators, EngineConfig(), live_config,
                retention=retention, state_dir=state_dir,
            )
        else:
            service = ShardedIngestService(
                translators, shards=shards, live_config=live_config,
                retention=retention, state_dir=state_dir,
            )
        service.open()
        for venue, venue_windows in prefix.items():
            for window in venue_windows:
                service.process_window(window, venue)
        service.close()  # no checkpoint: a kill at a window boundary

        def serve(out, *extra):
            assert cli_main(
                ["serve", f"north={config_path}", f"south={config_path}",
                 "--window-seconds", str(window_seconds),
                 "--shards", str(shards), "--out", str(out), *extra]
            ) == 0
            return capsys.readouterr().out

        def exported(directory):
            return {
                str(path.relative_to(directory)): path.read_bytes()
                for path in directory.rglob("*.json")
            }

        resumed = serve(tmp_path / "resumed", "--state-dir", str(state_dir))
        for venue, venue_windows in prefix.items():
            skipped = sum(len(window) for window in venue_windows)
            assert (
                f"resuming {venue}: skipping {skipped} journaled records"
                in resumed
            )
        assert "resuming" not in serve(tmp_path / "uninterrupted")
        assert exported(tmp_path / "resumed") == exported(
            tmp_path / "uninterrupted"
        )
        assert len(exported(tmp_path / "resumed")) > 0

    def test_serve_rejects_malformed_retention(self, task_workspace, capsys):
        _, _, config_path = task_workspace
        assert cli_main(
            ["serve", f"v={config_path}", "--retention", "window:soon"]
        ) == 1
        assert "retention" in capsys.readouterr().err

    def test_task_config_validates_knowledge_retention(self, tmp_path):
        config = TranslationTaskConfig(
            dsm_path="dsm.json", knowledge_retention="decay:8"
        )
        assert (
            TranslationTaskConfig.from_dict(config.to_dict())
            .knowledge_retention
            == "decay:8"
        )
        with pytest.raises(ConfigError):
            TranslationTaskConfig(
                dsm_path="dsm.json", knowledge_retention="window:!"
            )

    def test_serve_rejects_duplicate_venue_ids(self, task_workspace, capsys):
        _, _, config_path = task_workspace
        assert cli_main(
            ["serve", f"v={config_path}", f"v={config_path}"]
        ) == 1
        assert "duplicate venue" in capsys.readouterr().err

    def test_plain_translate_runs_the_default_pipeline(
        self, task_workspace, tmp_path, capsys, columnar_chunks
    ):
        """`trips translate` with no --backend goes through the engine's
        defaults — the columnar pipeline — and writes byte-identical
        files to the object-model reference, `run_task(config)`."""
        _, _, config_path = task_workspace
        plain, reference = tmp_path / "plain", tmp_path / "reference"
        assert cli_main(
            ["translate", str(config_path), "--out", str(plain)]
        ) == 0
        assert columnar_chunks
        assert "backend=serial" in capsys.readouterr().out
        del columnar_chunks[:]
        reference.mkdir()
        for result in run_task(load_task(config_path)):
            result.export(reference / f"{result.device_id}.json")
        assert not columnar_chunks

        def exported(directory):
            return {
                path.name: path.read_bytes()
                for path in directory.glob("*.json")
            }

        assert exported(plain) == exported(reference)
        assert len(exported(plain)) > 0

    def test_tuning_flags_require_backend(self, task_workspace, capsys):
        _, _, config_path = task_workspace
        for flag, value in (("--chunk-size", "4"), ("--workers", "2")):
            assert cli_main(
                ["translate", str(config_path), flag, value]
            ) == 1
            assert "--backend" in capsys.readouterr().err

    def test_serve_tuning_flags_require_backend(self, task_workspace, capsys):
        _, _, config_path = task_workspace
        for flag, value in (("--chunk-size", "4"), ("--workers", "2")):
            assert cli_main(["serve", str(config_path), flag, value]) == 1
            assert "--backend" in capsys.readouterr().err

    def test_backend_choices_are_the_registry(self):
        """``cli.py`` spells the choices out because it imports the engine
        lazily; they must stay the registered backends."""
        from repro.cli import _build_parser
        from repro.engine import BACKENDS

        commands = next(
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command in ("translate", "serve"):
            backend = next(
                action
                for action in commands.choices[command]._actions
                if action.dest == "backend"
            )
            assert list(backend.choices) == sorted(BACKENDS)

    @pytest.mark.parametrize("command", ["translate", "serve"])
    def test_removed_threads_backend_is_refused(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "task.json", "--backend", "threads"])
        assert exit_info.value.code != 0
        assert "invalid choice: 'threads'" in capsys.readouterr().err

    def test_serve_defaults_to_the_serial_engine(
        self, task_workspace, capsys, monkeypatch
    ):
        """No --backend on `trips serve` means ``EngineConfig()``: the
        serial engine, not a thread pool."""
        from repro.engine import EngineConfig
        from repro.live import LiveTranslationService

        engines = []
        original = LiveTranslationService.__init__

        def spy(self, translators, engine_config=None, *args, **kwargs):
            engines.append(engine_config)
            original(self, translators, engine_config, *args, **kwargs)

        monkeypatch.setattr(LiveTranslationService, "__init__", spy)
        _, _, config_path = task_workspace
        assert cli_main(
            ["serve", str(config_path), "--window-seconds", "7200",
             "--no-finalize"]
        ) == 0
        assert engines == [EngineConfig()]
        assert engines[0].backend == "serial"

    def test_error_exit_code(self, tmp_path, capsys):
        assert cli_main(["validate-dsm", str(tmp_path / "absent.json")]) == 1
