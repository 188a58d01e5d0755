"""Tests for the command-line harness: config validation, artifact layout,
determinism of emitted files, and exit codes."""
import json

import pytest

from haptolab.cli import main, normalize_config, parse_config, run_experiment
from haptolab.diffuse import CosineSpec
from haptolab.errors import ConfigError
from haptolab.kernel import ChiSpec


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

    @pytest.mark.parametrize("kind", ["diffuse", "sharp", "compare",
                                      "generation", "profile"])
    def test_eps_list_only_on_convergence(self, kind):
        # constant chi passes compare's own check
        with pytest.raises(ConfigError, match=f"eps_list.*{kind}"):
            normalize_config({"kind": kind, "eps_list": [0.04, 0.02],
                              "chi": {"variant": "constant"}})

    def test_partial_nested_object_keeps_other_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path,
                                        m0={"modes": [[2, 0, 0.1]]}))
        assert cfg.study.m0_spec == CosineSpec(0.3, ((2, 0, 0.1),))

    @pytest.mark.parametrize("extra", [
        {"lam": True}, {"alpha": True}, {"d0": True}, {"width": True},
        {"t_end": True}, {"eps": True}, {"M0": True},
        {"n_snapshots": True}, {"prep_shift": True},
        {"kind": "convergence", "eps_list": [True, 0.5]},
        {"shape": {"center": [True, 0.5]}}, {"shape": {"r0": True}},
        {"shape": {"kind": "star", "r0": 1.5, "amp": True, "k": 4}},
        {"shape": {"kind": "star", "amp": 0.03, "k": True}},
        {"v0": {"constant": True}}, {"m0": {"modes": [[True, 0, 0.1]]}},
        {"v0": {"modes": [[1, 0, True]]}}, {"n_sharp": True},
        {"chi": {"coeffs": [0.0, True]}},
    ])
    def test_booleans_are_not_numbers(self, tmp_path, extra):
        # Python counts true as 1, so every numeric check must exclude it
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, **extra))

    @pytest.mark.parametrize("mode", [[1.5, 0, 0.1], [1, 2.0, 0.1],
                                      [1, 0], ["1", 0, 0.1]])
    def test_mode_index_must_be_an_integer(self, tmp_path, mode):
        # a fractional index used to be truncated to the mode below it
        with pytest.raises(ConfigError, match="integer"):
            parse_config(write_config(tmp_path, v0={"modes": [mode]}))

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
            chi={"variant": "constant", "coeffs": []},
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

    @pytest.mark.parametrize("config, prefix", [
        ({"kind": "sharp", "eps": 0.05, "t_end": 0.003, "n_snapshots": 3,
          "n_sharp": 64}, "interface_"),
        ({"kind": "diffuse", "eps": 0.1, "t_end": 0.03, "n_snapshots": 11},
         "u_"),
    ])
    def test_one_snapshot_per_mark(self, tmp_path, config, prefix):
        # t_end * n / n misses t_end by an ulp for both configs
        cfg = parse_config(write_config(tmp_path, **config))
        out, _ = run_experiment(cfg, out_dir=tmp_path / "run")
        n = config["n_snapshots"] + 1
        assert len(list(out.glob(f"{prefix}*.csv"))) == n
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == n
        assert float(rows[-1].split(",")[0]) == config["t_end"]

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

    def test_compare_rejects_what_its_law_does_not_cover(self, tmp_path,
                                                         capsys):
        # compare scores against the radius law r^2 = r0^2 - 2t of a circle
        # under curvature flow; linear chi (the default) adds a drift, and a
        # star is no circle
        configs = [
            {"v0": {"constant": 1.0, "modes": [[1, 0, 0.5]]}},
            {"chi": {"variant": "constant", "coeffs": []},
             "shape": {"kind": "star", "center": [0.5, 0.5], "r0": 0.25,
                       "amp": 0.03, "k": 4}},
        ]
        for i, extra in enumerate(configs):
            path = write_config(tmp_path, name=f"c{i}.json", kind="compare",
                                eps=0.05, t_end=0.004, n_sharp=64, **extra)
            code = main(["compare", "--config", str(path),
                         "--out", str(tmp_path / f"run{i}")])
            assert code == 2
            assert "constant chi" in capsys.readouterr().err

    def test_chi_variant_alone_takes_defaults(self, tmp_path):
        # coeffs left out of the chi object take the variant's defaults
        path = write_config(tmp_path, kind="sharp",
                            chi={"variant": "constant"}, t_end=1e-4,
                            n_sharp=32)
        code = main(["simulate-sharp", "--config", str(path),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert parse_config(path).study.chi == ChiSpec.constant()

    def test_chi_checked_on_the_range_of_v0(self, tmp_path, capsys):
        # chi = 2v - 0.09 v^2 rises on (0, 11.1) only, short of v0 = 15;
        # chi = 2v - 0.11 v^2 rises on (0, 9.1), all of v0 = 1's range
        runs = [(15.0, -0.09, 2), (1.0, -0.11, 0)]
        for i, (v0, c2, expected) in enumerate(runs):
            path = write_config(
                tmp_path, name=f"c{i}.json", kind="diffuse", eps=0.2,
                t_end=1e-4, n_snapshots=1, v0={"constant": v0},
                chi={"variant": "polynomial", "coeffs": [0, 2, c2]})
            code = main(["simulate-diffuse", "--config", str(path),
                         "--out", str(tmp_path / f"run{i}")])
            assert code == expected
        assert "chi' must be positive on (0, 15]" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        {"kind": "sharp", "shape": {"kind": "circle", "radius": 0.3}},
        {"kind": "sharp", "shape": {"kind": "blob"}},
        {"kind": "sharp", "n_sharp": 4},
        {"kind": "diffuse", "eps": 0.2, "width": -1},
        {"kind": "generation", "eps": 0.2, "eta": -1},
        {"kind": "generation", "eps": 0.2, "M0": -3},
        {"kind": "sharp", "shape": {"center": "ab"}},
        {"kind": "sharp", "shape": {"center": [0.5]}},
        {"kind": "sharp", "n_snapshots": 2.5},
        {"kind": "convergence", "eps_list": [0.1, "a"]},
        {"kind": "diffuse", "eps": 0.2, "smooth_interior": True,
         "shape": {"kind": "star", "amp": 0.03, "k": 4}},
        {"kind": "diffuse", "eps": 0.2, "smooth_interior": True,
         "prep_shift": 0.5},
        {"kind": "diffuse", "eps": 0.2, "smooth_interior": "yes"},
        {"kind": "diffuse", "eps": 0.2, "prep_shift": "x"},
        {"kind": "sharp", "shape": {"kind": "star", "amp": 0.03, "k": 4.7}},
        {"kind": "sharp", "v0": {"modes": [[1.5, 0, 0.1]]}},
        {"kind": "sharp", "n_snapshots": True},
        {"kind": "diffuse", "eps": 0.2, "eps_list": "nonsense"},
        {"kind": "diffuse", "eps": 0.2, "v0": {"constant": 0.0},
         "chi": {"coeffs": [1.0]}},
        {"kind": "sharp", "chi": {"v_max": 10.0}},
    ], ids=["unknown-shape-key", "unknown-shape-kind", "tiny-n_sharp",
            "negative-width", "negative-eta", "negative-M0", "center-string",
            "center-one-number", "fractional-n_snapshots", "eps_list-string",
            "smooth_interior-star", "smooth_interior-prep_shift",
            "smooth_interior-string", "prep_shift-string", "fractional-k",
            "fractional-mode-index", "boolean-n_snapshots",
            "eps_list-on-diffuse", "linear-chi-one-coeff-v0-zero",
            "chi-v_max"])
    def test_exit_two_on_invalid_nested_or_value(self, tmp_path, capsys,
                                                  extra):
        path = write_config(tmp_path, **{"t_end": 1e-4, "n_snapshots": 1,
                                         "n_sharp": 32, **extra})
        command = {"sharp": "simulate-sharp", "diffuse": "simulate-diffuse",
                   "generation": "generation",
                   "convergence": "convergence"}[extra["kind"]]
        code = main([command, "--config", str(path),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["v0", "m0"])
    def test_negative_field_rejected_by_both_solvers(self, tmp_path, capsys,
                                                     field):
        results = []
        for command, kind in (("simulate-sharp", "sharp"),
                              ("simulate-diffuse", "diffuse")):
            path = write_config(tmp_path, name=f"{kind}.json", kind=kind,
                                eps=0.2, t_end=1e-4, n_snapshots=1,
                                n_sharp=32, **{field: {"constant": -1.0}})
            code = main([command, "--config", str(path),
                         "--out", str(tmp_path / kind)])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 3 and "nonnegative" in results[0][1]

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
