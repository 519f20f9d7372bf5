"""Exit codes, config overlay, and round trips through the command line."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from qsumm.cli import run_cli

MINI = {
    "synth": {
        "n_videos": 3,
        "n_shots": 12,
        "n_concepts": 6,
        "d_frame": 8,
        "d_shot": 10,
        "d_text": 6,
    },
    "train": {
        "max_steps": 3,
        "n_critic": 2,
        "segment_len": 8,
        "lr_gen": 1e-3,
        "lr_critic": 1e-3,
    },
}


def write_config(tmp_path, cfg=MINI):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One corpus plus one trained run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root)
    corpus = str(root / "corpus")
    run = str(root / "run")
    assert run_cli(["synth", "--out", corpus, "--seed", "11", "--config", cfg]) == 0
    assert run_cli(["train", "--corpus", corpus, "--out", run, "--config", cfg]) == 0
    return {
        "cfg": cfg,
        "corpus": corpus,
        "run": run,
        "checkpoint": os.path.join(run, "checkpoint.qsck"),
    }


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert run_cli(["train", "--help"]) == 0
        assert "--ablation" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli(["evaluate", "--corpus", "x"]) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self):
        assert run_cli(["evaluate", "--corpus", "x", "--checkpoint", "y",
                        "--split", "nope"]) == 1

    def test_missing_corpus_file_is_runtime_error(self, capsys):
        assert run_cli(["train", "--corpus", "/nonexistent", "--out", "/tmp/x"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_length_study_requires_out(self, workspace, capsys):
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"],
                      "--checkpoint", workspace["checkpoint"], "--length-study"])
        assert rc == 1
        assert "--length-study requires --out" in capsys.readouterr().err


    def test_non_finite_checkpoint_is_runtime_error(self, workspace, tmp_path, capsys):
        from qsumm.training import load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(workspace["checkpoint"])
        ckpt.gen_params.fuse_w.data[0, 0] = np.nan
        path = str(tmp_path / "nan.qsck")
        save_checkpoint(ckpt, path)
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"], "--checkpoint", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "gparam/fuse_w" in err

    @pytest.mark.parametrize("section", ["dparam/out_w", "gopt/acc/fuse_w"])
    @pytest.mark.parametrize("command", ["evaluate", "summarize"])
    def test_non_finite_training_state_is_runtime_error(
            self, workspace, tmp_path, capsys, section, command):
        # evaluate and summarize keep only the generator, yet check every section
        from qsumm.training import load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(workspace["checkpoint"])
        if section == "dparam/out_w":
            ckpt.disc_params.out_w.data[0, 0] = np.nan
        else:
            ckpt.gen_opt.acc["fuse_w"][0, 0] = np.nan
        path = str(tmp_path / "nan.qsck")
        save_checkpoint(ckpt, path)
        argv = [command, "--corpus", workspace["corpus"], "--checkpoint", path]
        if command == "summarize":
            argv += ["--video", "v000", "--query", "0"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and section in err and "Traceback" not in err

    def test_huge_config_dims_is_runtime_error(self, workspace, tmp_path, capsys):
        from qsumm import training

        sections = training._read_sections(
            open(workspace["checkpoint"], "rb").read(), "ckpt")
        cfg = json.loads(sections["cfg/gen"])
        sections["cfg/gen"] = json.dumps({**cfg, "d_h": 2**20}).encode()
        blob = bytearray(training._FILE_HEAD.pack(
            training.CHECKPOINT_MAGIC, training.CHECKPOINT_VERSION, len(sections)))
        for name, payload in sections.items():
            blob += training._SECTION_HEAD.pack(len(name)) + name.encode()
            blob += training._PAYLOAD_HEAD.pack(len(payload)) + payload
        path = tmp_path / "huge.qsck"
        path.write_bytes(bytes(blob))
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"], "--checkpoint", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "gparam/enc_fwd_wx" in err

    @pytest.mark.parametrize("drop", ["dims", "d_shot"])
    def test_manifest_without_dims_is_runtime_error(self, workspace, tmp_path, capsys, drop):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["corpus"], corpus)
        manifest = json.loads((corpus / "manifest.json").read_text())
        if drop == "dims":
            del manifest["dims"]
        else:
            del manifest["dims"][drop]
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        rc = run_cli(["evaluate", "--corpus", str(corpus),
                      "--checkpoint", workspace["checkpoint"]])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("section, edit", [
        ("cfg/gen", lambda b: json.dumps({**json.loads(b), "bogus": 1}).encode()),
        ("cfg/gen", lambda b: json.dumps({**json.loads(b), "d_h": 6.5}).encode()),
        ("meta", lambda b: b"\xff\xfe" + b),
        ("meta", lambda b: b[:-1]),
        ("cfg/train", lambda b: b"{"),
        ("rng", lambda b: b"[1,"),
        ("meta", lambda b: json.dumps(
            {k: v for k, v in json.loads(b).items() if k != "step"}).encode()),
    ], ids=["cfg-unknown-key", "cfg-float-dim", "meta-not-utf8", "meta-bad-json", "cfg-bad-json",
            "rng-bad-json", "meta-without-step"])
    def test_malformed_checkpoint_section_is_runtime_error(
            self, workspace, tmp_path, capsys, section, edit):
        from qsumm import training

        sections = training._read_sections(
            open(workspace["checkpoint"], "rb").read(), "ckpt")
        sections[section] = edit(sections[section])
        blob = bytearray(training._FILE_HEAD.pack(
            training.CHECKPOINT_MAGIC, training.CHECKPOINT_VERSION, len(sections)))
        for name, payload in sections.items():
            blob += training._SECTION_HEAD.pack(len(name)) + name.encode()
            blob += training._PAYLOAD_HEAD.pack(len(payload)) + payload
        path = tmp_path / "bad.qsck"
        path.write_bytes(bytes(blob))
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"], "--checkpoint", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, where", [
        ("annotations", "shot 0"), ("concept_a", "query 0"),
    ])
    def test_non_integer_concept_id_is_runtime_error(
            self, workspace, tmp_path, capsys, field, where):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["corpus"], corpus)
        manifest = json.loads((corpus / "manifest.json").read_text())
        video = manifest["videos"][0]
        if field == "annotations":
            video["annotations"][0] = ["x"]
        else:
            video["queries"][0]["concept_a"] = "abc"
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        rc = run_cli(["evaluate", "--corpus", str(corpus),
                      "--checkpoint", workspace["checkpoint"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"video {video['id']} {where}" in err

    def test_non_integer_dim_is_runtime_error_for_train(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["corpus"], corpus)
        manifest = json.loads((corpus / "manifest.json").read_text())
        manifest["dims"]["d_text"] = float(manifest["dims"]["d_text"])
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        rc = run_cli(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                      "--config", workspace["cfg"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "d_text" in err and "Traceback" not in err

    def test_non_utf8_manifest_is_runtime_error(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["corpus"], corpus)
        raw = (corpus / "manifest.json").read_bytes()
        (corpus / "manifest.json").write_bytes(raw.replace(b'"id"', b'"\xa0id"', 1))
        rc = run_cli(["evaluate", "--corpus", str(corpus),
                      "--checkpoint", workspace["checkpoint"]])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestConfigFile:
    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"synt": {}})
        assert run_cli(["synth", "--out", str(tmp_path / "c"), "--config", cfg]) == 2
        assert "unknown config sections" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"synth": {"n_video": 3}})
        assert run_cli(["synth", "--out", str(tmp_path / "c"), "--config", cfg]) == 2
        assert "n_video" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert run_cli(["synth", "--out", str(tmp_path / "c"),
                        "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert run_cli(["synth", "--out", str(tmp_path / "c"),
                        "--config", str(path)]) == 2

    @pytest.mark.parametrize("value", ["3", True, 3.0], ids=["str", "bool", "float"])
    @pytest.mark.parametrize("section, field", [("synth", "n_videos"), ("train", "max_steps")])
    def test_wrong_type_in_int_field_rejected(self, tmp_path, workspace, capsys, section,
                                              field, value):
        cfg = write_config(tmp_path, {section: {field: value}})
        if section == "synth":
            argv = ["synth", "--out", str(tmp_path / "c")]
        else:
            argv = ["train", "--corpus", workspace["corpus"], "--out", str(tmp_path / "r")]
        assert run_cli(argv + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "must be int" in err

    def test_int_accepted_in_float_field(self, tmp_path):
        cfg = write_config(tmp_path, {"synth": dict(MINI["synth"], relevance_strength=2)})
        assert run_cli(["synth", "--out", str(tmp_path / "c"), "--config", cfg]) == 0

    def test_file_values_override_defaults(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "c"
        assert run_cli(["synth", "--out", str(out), "--config", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["videos"]) == MINI["synth"]["n_videos"]
        assert manifest["dims"]["d_frame"] == MINI["synth"]["d_frame"]

    def test_flag_overrides_file_seed(self, tmp_path, workspace):
        """--seed on train beats whatever the config file says."""
        cfg = write_config(
            tmp_path, {"train": dict(MINI["train"], seed=3, max_steps=2)}
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv = ["train", "--corpus", workspace["corpus"], "--config", cfg]
        assert run_cli(argv + ["--out", str(out_a)]) == 0
        assert run_cli(argv + ["--out", str(out_b), "--seed", "3"]) == 0
        a = (out_a / "metrics.csv").read_bytes()
        assert a == (out_b / "metrics.csv").read_bytes()
        out_c = tmp_path / "c"
        assert run_cli(argv + ["--out", str(out_c), "--seed", "4"]) == 0
        assert a != (out_c / "metrics.csv").read_bytes()


class TestSynth:
    def test_module_entry_point_runs(self, tmp_path):
        # python -m qsumm.cli runs main() like the qsumm console script
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "c"
        proc = subprocess.run(
            [sys.executable, "-m", "qsumm.cli", "synth", "--out", str(out), "--seed", "1",
             "--config", write_config(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").is_file()

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli(["synth", "--out", str(a), "--seed", "7", "--config", cfg]) == 0
        assert run_cli(["synth", "--out", str(b), "--seed", "7", "--config", cfg]) == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_different_seed_different_features(self, tmp_path):
        cfg = write_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli(["synth", "--out", str(a), "--seed", "7", "--config", cfg]) == 0
        assert run_cli(["synth", "--out", str(b), "--seed", "8", "--config", cfg]) == 0
        assert dir_bytes(a) != dir_bytes(b)


class TestTrainEvaluateSummarize:
    def test_train_writes_metrics_and_checkpoint(self, workspace):
        run = workspace["run"]
        assert os.path.exists(os.path.join(run, "metrics.csv"))
        assert os.path.exists(workspace["checkpoint"])
        with open(os.path.join(run, "metrics.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "step,critic_loss,gen_adv,loss_summ,loss_length,total_gen"
        assert len(lines) == 1 + MINI["train"]["max_steps"]

    def test_train_accepts_corpus_directory_or_manifest(self, workspace, tmp_path):
        manifest = os.path.join(workspace["corpus"], "manifest.json")
        out = tmp_path / "run"
        rc = run_cli(["train", "--corpus", manifest, "--out", str(out),
                      "--config", workspace["cfg"]])
        assert rc == 0
        assert (out / "metrics.csv").read_bytes() == open(
            os.path.join(workspace["run"], "metrics.csv"), "rb"
        ).read()

    def test_ablation_flags_change_the_run(self, workspace, tmp_path):
        outs = {}
        for name in ("none", "two-player", "no-length", "no-summ"):
            out = tmp_path / name
            rc = run_cli(["train", "--corpus", workspace["corpus"], "--out", str(out),
                          "--config", workspace["cfg"], "--ablation", name])
            assert rc == 0
            outs[name] = (out / "metrics.csv").read_text()
        assert len(set(outs.values())) == 4
        for line in outs["no-summ"].splitlines()[1:]:
            assert line.split(",")[3] == "0.0"
        for line in outs["no-length"].splitlines()[1:]:
            assert line.split(",")[4] == "0.0"

    def test_resume_from_checkpoint_flag(self, workspace, tmp_path):
        cfg = write_config(tmp_path, {"train": dict(MINI["train"], max_steps=2)})
        out = tmp_path / "run"
        argv = ["train", "--corpus", workspace["corpus"], "--out", str(out)]
        assert run_cli(argv + ["--config", cfg]) == 0
        cfg_full = write_config(tmp_path, MINI)
        rc = run_cli(argv + ["--config", cfg_full,
                             "--checkpoint", str(out / "checkpoint.qsck")])
        assert rc == 0
        resumed = (out / "metrics.csv").read_text()
        assert len(resumed.splitlines()) == 1 + MINI["train"]["max_steps"]
        straight = open(os.path.join(workspace["run"], "metrics.csv")).read()
        assert resumed == straight

    def test_resume_rejects_paper_scale(self, workspace, tmp_path, capsys):
        rc = run_cli(["train", "--corpus", workspace["corpus"], "--out", str(tmp_path / "run"),
                      "--config", workspace["cfg"], "--checkpoint", workspace["checkpoint"],
                      "--paper-scale"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --paper-scale")
        assert not (tmp_path / "run").exists()

    def test_evaluate_writes_reports(self, workspace, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"],
                      "--checkpoint", workspace["checkpoint"],
                      "--split", "test", "--out", str(out), "--length-study"])
        assert rc == 0
        assert sorted(os.listdir(out)) == [
            "length_study.csv", "report.csv", "report.json"
        ]
        console = capsys.readouterr().out
        assert "split=test" in console
        report = json.loads((out / "report.json").read_text())
        assert f"f1={report['f1']:.4f}" in console
        study = (out / "length_study.csv").read_text().splitlines()
        assert study[0] == "metric,value"

    def test_evaluate_without_out_prints_only(self, workspace, capsys):
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"],
                      "--checkpoint", workspace["checkpoint"]])
        assert rc == 0
        assert "f1=" in capsys.readouterr().out

    def test_summarize_to_stdout(self, workspace, capsys):
        rc = run_cli(["summarize", "--corpus", workspace["corpus"],
                      "--checkpoint", workspace["checkpoint"],
                      "--video", "v000", "--query", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "shot,score,gate,selected"
        assert len(lines) == 1 + MINI["synth"]["n_shots"]

    def test_summarize_csv_is_consistent(self, workspace, tmp_path):
        path = tmp_path / "s.csv"
        rc = run_cli(["summarize", "--corpus", workspace["corpus"],
                      "--checkpoint", workspace["checkpoint"],
                      "--video", "v001", "--query", "1", "--threshold", "0.5",
                      "--out", str(path)])
        assert rc == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(MINI["synth"]["n_shots"]))
        for _, score, gate, selected in rows:
            s, k = float(score), float(gate)
            assert 0.0 < s < 1.0 and 0.0 < k < 1.0
            assert int(selected) == int(s > 0.5)

    def test_summarize_unknown_video_is_runtime_error(self, workspace, capsys):
        rc = run_cli(["summarize", "--corpus", workspace["corpus"],
                      "--checkpoint", workspace["checkpoint"],
                      "--video", "v999", "--query", "0"])
        assert rc == 2
        assert "v999" in capsys.readouterr().err

    def test_summarize_query_out_of_range(self, workspace, capsys):
        rc = run_cli(["summarize", "--corpus", workspace["corpus"],
                      "--checkpoint", workspace["checkpoint"],
                      "--video", "v000", "--query", "99"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_reports_pass_per_component(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "qsumm.cli.component_suite",
            lambda seed=0: {"linear": 1e-9, "sigmoid": 2e-8},
        )
        assert run_cli(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "linear" in out and "ok" in out and "all 2 components" in out

    def test_failing_component_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "qsumm.cli.component_suite",
            lambda seed=0: {"linear": 1e-9, "bilstm": 0.5},
        )
        assert run_cli(["gradcheck"]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "bilstm" in captured.err

    def test_single_component_runs_clean(self):
        """The full suite is exercised by the acceptance tests; one cheap
        seeded instance here keeps the wiring honest."""
        from conftest import check_grads
        from qsumm.tensor import as_tensor, mean_all, sigmoid

        rng = np.random.default_rng(0)
        x = as_tensor(rng.standard_normal((3, 4)))
        check_grads(lambda: mean_all(sigmoid(x)), {"x": x})
