"""Tests for the api-facing CLI subcommands (fit / score / run --output)."""

from __future__ import annotations

import json

import pytest

import repro
import repro.cli as cli
from repro.cli import build_parser, main
from repro.experiments.report import render_results_dir
from repro.experiments.settings import ExperimentScale

TINY = ExperimentScale(
    name="cli-tiny",
    benchmark_users={"twibot-20": 80, "twibot-22": 100, "mgtab": 80},
    tweets_per_user=4,
    max_epochs=3,
    patience=2,
    pretrain_epochs=8,
    hidden_dim=8,
    subgraph_k=3,
    batch_size=32,
)


class TestVersionAndListing:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_detectors_subcommand_lists_registry(self, capsys):
        assert main(["detectors"]) == 0
        output = capsys.readouterr().out
        assert "bsg4bot" in output
        assert "plugin-gcn" in output

    def test_override_parser(self):
        args = build_parser().parse_args(
            ["fit", "mgtab", "--output", "x",
             "--override", "subgraph_k=8", "--override", "use_semantic_attention=false",
             "--override", "store_cache_dir=/tmp/c"]
        )
        assert dict(args.overrides) == {
            "subgraph_k": 8,
            "use_semantic_attention": False,
            "store_cache_dir": "/tmp/c",
        }

    def test_bad_override_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "mgtab", "--output", "x", "--override", "nokey"])

    def test_serve_accepts_one_shard_and_rejects_more(self, capsys):
        args = build_parser().parse_args(["serve", "artifact", "--num-shards", "1"])
        assert args.num_shards == 1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "artifact", "--num-shards", "2"])
        assert "--num-shards: invalid choice: 2" in capsys.readouterr().err


class TestRunOutput:
    def test_run_writes_report_compatible_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._SCALES, "small", TINY)
        assert main(["run", "fig3", "--output", str(tmp_path)]) == 0
        path = tmp_path / "fig3.json"
        assert path.exists()
        with open(path) as handle:
            json.load(handle)  # valid JSON
        # The report command renders what run wrote (closing the loop).
        assert "fig3" in render_results_dir(tmp_path)
        assert "result written" in capsys.readouterr().out


class TestFitScore:
    def test_fit_then_score_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._SCALES, "small", TINY)
        artifact = tmp_path / "artifact"
        assert main(
            ["fit", "mgtab", "--output", str(artifact),
             "--override", "min_epochs=1", "--override", "batch_cache_size=8"]
        ) == 0
        assert (artifact / "manifest.json").exists()
        capsys.readouterr()

        assert main(["score", str(artifact), "--nodes", "0,3,7"]) == 0
        output = capsys.readouterr().out
        assert "p(bot)" in output
        assert "3 nodes scored" in output
