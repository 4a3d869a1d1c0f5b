"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments.presets import get_preset, list_presets


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "BRAM" in out and "Total" in out

    def test_run_validation_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "v.md"
        assert main(["run", "validation", "--out", str(out_file)]) == 0
        assert "mean error" in out_file.read_text()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_scale_flag_accepted(self, capsys):
        assert main(["run", "table1", "--scale", "smoke"]) == 0


class TestStudyFlags:
    def test_scenario_rejected_for_non_study_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--scenario", "unconstrained"])

    def test_batch_size_rejected_for_non_study_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--batch-size", "8"])

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--scenario", "bogus"])

    def test_bad_batch_size_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--batch-size", "0"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--surrogate", "--exact-fraction", "0"],
            ["--workers", "0"],
            ["--checkpoint-every", "0"],
        ],
    )
    def test_invalid_execution_rejected_before_bundle_load(self, flags, monkeypatch):
        def no_bundle(*args, **kwargs):
            pytest.fail("the bundle loaded before the spec was validated")

        monkeypatch.setattr("repro.cli.load_bundle", no_bundle)
        monkeypatch.setattr("repro.experiments.common.load_bundle", no_bundle)
        with pytest.raises(SystemExit):
            main(["run", "fig5", *flags])

    def test_scenario_name_and_file_collision_rejected(self, tmp_path, capsys):
        path = tmp_path / "clash.json"
        path.write_text(json.dumps({"name": "unconstrained", "weights": [1, 0, 0]}))
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--scenario", "unconstrained",
                  "--scenario-file", str(path)])
        assert "referenced more than once" in capsys.readouterr().err


SCENARIO_FILE = [
    {"name": "edge", "weights": [0.2, 0.6, 0.2], "constraints": {"max_latency_ms": 80.0}},
    {"name": "pinned", "weights": [0, 0, 1], "bounds": {"area_mm2": [1.0, 2.0]}},
]


class TestRunSpec:
    """'repro run fig5 <flags>' runs 'study show search-study <overrides>'."""

    @pytest.mark.parametrize(
        "run_flags, study_flags",
        [
            ([], []),
            (["--seed", "3"], ["--set", "execution.master_seed=3"]),
            (["--batch-size", "8"], ["--set", "execution.batch_size=8"]),
            (
                ["--workers", "4"],
                ["--set", "execution.workers=4", "--set", "execution.backend=process"],
            ),
            (
                ["--workers", "4", "--backend", "serial"],
                ["--set", "execution.workers=4", "--set", "execution.backend=serial"],
            ),
            (["--tensorize"], ["--tensorize"]),
            (
                ["--surrogate", "--exact-fraction", "0.5"],
                ["--surrogate", "--exact-fraction", "0.5"],
            ),
            (
                ["--scenario", "2-constraints", "--scenario", "perf-area>=16"],
                ["--set", 'scenarios=["2-constraints", "perf-area>=16"]'],
            ),
            (
                ["--scenario-file", "{file}"],
                ["--set", f"scenarios={json.dumps(SCENARIO_FILE)}"],
            ),
            (["--hardware", "embedded-lite"], ["--hardware", "embedded-lite"]),
            (["--checkpoint-every", "3"], ["--set", "execution.checkpoint_every=3"]),
        ],
    )
    def test_run_flags_are_spec_overrides(
        self, run_flags, study_flags, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(SCENARIO_FILE))
        contexts = []
        monkeypatch.setitem(
            EXPERIMENTS, "fig5", lambda ctx: contexts.append(ctx) or ""
        )
        run_flags = [str(path) if flag == "{file}" else flag for flag in run_flags]
        assert main(["run", "fig5", *run_flags]) == 0
        capsys.readouterr()
        assert main(["study", "show", "search-study", *study_flags]) == 0
        shown = json.loads(capsys.readouterr().out)
        (ctx,) = contexts
        assert ctx.spec.to_dict() == shown


class TestStudyCommand:
    def test_list_names_every_preset(self, capsys):
        assert main(["study", "list"]) == 0
        out = capsys.readouterr().out
        for name in list_presets():
            assert name in out

    def test_show_prints_resolved_spec(self, capsys):
        assert main(["study", "show", "fig5"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown == get_preset("fig5").to_dict()

    def test_show_applies_overrides(self, capsys):
        assert main(
            ["study", "show", "fig5", "--set", "execution.batch_size=16"]
        ) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["execution"]["batch_size"] == 16

    def test_show_every_shipped_preset(self, capsys):
        for name in list_presets():
            assert main(["study", "show", name]) == 0
            json.loads(capsys.readouterr().out)

    def test_run_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "tiny.json"
        spec_file.write_text(
            get_preset("smoke").with_overrides(
                {"name": "tiny-cli"}
            ).to_json()
        )
        out_file = tmp_path / "report.md"
        assert main(
            ["study", "run", str(spec_file), "--out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "study tiny-cli" in out
        assert "random" in out
        assert out_file.read_text().startswith("## study tiny-cli")

    def test_run_preset_with_override(self, capsys):
        assert main(
            ["study", "run", "smoke", "--set", "execution.num_steps=3"]
        ) == 0
        assert "study smoke" in capsys.readouterr().out

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "run", "fig99"])

    def test_bad_override_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "show", "fig5", "--set", "execution.bogus=1"])

    def test_invalid_override_value_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "show", "fig5", "--set", "strategies.0.name=nope"])

    def test_study_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["study"])
