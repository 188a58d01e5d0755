"""Tests for the command-line harness: config validation, artifact layout,
determinism of emitted files, and exit codes."""
import json
import math

import pytest

from haptolab.cli import main, normalize_config, parse_config, run_experiment
from haptolab.errors import ConfigError


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"kind": "profile"}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.kind == "profile"
        assert cfg.raw["lam"] == 1.0
        assert cfg.raw["n_snapshots"] == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path)

    def test_malformed_json_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"kind\": profile\n}")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_convergence_needs_decreasing_list(self, tmp_path):
        path = write_config(tmp_path, kind="convergence",
                            eps_list=[0.02, 0.04])
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config(path)

    def test_normalize_roundtrip(self):
        data = {"kind": "diffuse", "eps": 0.1, "lam": 2.0}
        once = normalize_config(data)
        assert normalize_config(once) == once


class TestPipelines:
    def test_profile_artifacts(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        out, passed = run_experiment(cfg, out_dir=tmp_path / "run")
        assert passed
        report = json.loads((out / "profile_report.json").read_text())
        assert report["bvp_sup_gap"] < 1e-6
        assert (out / "profile.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["kind"] == "profile"

    def test_compare_tracks_shrinking_circle(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, kind="compare", eps=0.05,
            chi={"variant": "constant", "coeffs": [], "v_max": 10.0},
            t_end=0.004, n_snapshots=2, n_sharp=128,
        ))
        out, _ = run_experiment(cfg, out_dir=tmp_path / "run")
        lines = (out / "radius.csv").read_text().strip().splitlines()
        header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
        gap_col = header.index("gap")
        t_col = header.index("t")
        assert float(rows[-1][t_col]) == 0.004
        assert all(float(r[gap_col]) < 2.5 / 128 for r in rows)

    def test_diffuse_emits_snapshots(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, kind="diffuse", eps=0.2, t_end=1e-3, n_snapshots=2,
        ))
        out, _ = run_experiment(cfg, out_dir=tmp_path / "run")
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 4  # header + initial + two snapshots
        assert (out / "u_000.csv").exists() and (out / "u_002.csv").exists()

    def test_determinism_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            cfg = parse_config(write_config(
                tmp_path, name=f"{tag}.json", kind="diffuse", eps=0.2,
                t_end=1e-3, n_snapshots=2,
            ))
            out, _ = run_experiment(cfg, out_dir=tmp_path / tag)
            blobs.append((out / "metrics.csv").read_bytes()
                         + (out / "u_002.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestMain:
    def test_exit_zero_on_success(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["profile", "--config", str(path),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert str(tmp_path / "run") in capsys.readouterr().out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, bogus=1)
        code = main(["profile", "--config", str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_two_on_kind_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, kind="diffuse", eps=0.2)
        code = main(["profile", "--config", str(path)])
        assert code == 2

    def test_exit_four_on_failed_assertion(self, tmp_path, capsys):
        # an absurdly small M0 marks interior points that cannot have
        # converged yet, so the generation check must fail
        path = write_config(tmp_path, kind="generation", eps=0.2,
                            t_end=0.01, M0=0.01, eta=0.01, n_snapshots=1)
        code = main(["generation", "--config", str(path), "--assert",
                     "--out", str(tmp_path / "run")])
        assert code == 4
        report = json.loads((tmp_path / "run" / "generation.json").read_text())
        assert not report["passed"]
