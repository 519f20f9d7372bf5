"""Exit codes, config overlay, and round trips through the command line."""

import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import typing

import numpy as np
import pytest

from conftest import json_values
from test_training import write_repeated_meta, write_sections
from qsumm import cli
from qsumm.cli import run_cli
from qsumm.dataset import SynthConfig
from qsumm.discriminator import DiscriminatorConfig
from qsumm.errors import ConfigError, FormatError
from qsumm.generator import GeneratorConfig
from qsumm.matrix_io import matrix_bytes, matrix_from_bytes
from qsumm.training import ABLATIONS, TrainConfig

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


def read_sections(buf: bytes, source: str) -> dict:
    """Every section payload of an in-memory checkpoint, by name."""
    from qsumm import training

    index = training._index_sections(io.BytesIO(buf), len(buf), source)
    return {name: buf[off : off + n] for name, (off, n) in index.items()}


def stream_number(rng: dict, stream: str, field: str, value) -> dict:
    """rng with one integer of a stream's PCG64 state replaced by value;
    numpy's setter would truncate 1.5 to 1 and take True as 1."""
    rng["streams"][stream]["state"][field] = value
    return rng


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

    @pytest.mark.parametrize("command", ["synth", "train", "train-config", "gradcheck"])
    def test_negative_seed_is_runtime_error(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--out", str(out), "--seed", "-1"]
        elif command == "train":
            argv = ["train", "--corpus", workspace["corpus"], "--out", str(out), "--seed", "-1"]
        elif command == "train-config":
            # the config is checked before the (here missing) corpus is read
            cfg = write_config(tmp_path, {"train": {"seed": -5}})
            argv = ["train", "--corpus", str(tmp_path / "nowhere"), "--out", str(out),
                    "--config", cfg]
        else:
            argv = ["gradcheck", "--seed", "-1"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed must be >= 0" in err
        assert "Traceback" not in err
        assert not out.exists()

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
        sections = read_sections(open(workspace["checkpoint"], "rb").read(), "ckpt")
        cfg = json.loads(sections["cfg/gen"])
        sections["cfg/gen"] = json.dumps({**cfg, "d_h": 2**20}).encode()
        path = tmp_path / "huge.qsck"
        write_sections(path, sections)
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"], "--checkpoint", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "gparam/enc_fwd_wx" in err

    @pytest.mark.parametrize("section", ["gparam/fuse_w", "dparam/out_w", "gopt/acc/fuse_w"])
    def test_float32_tensor_section_is_runtime_error(self, workspace, tmp_path, capsys, section):
        sections = read_sections(open(workspace["checkpoint"], "rb").read(), "ckpt")
        sections[section] = matrix_bytes(matrix_from_bytes(sections[section]), version=1)
        path = tmp_path / "f32.qsck"
        write_sections(path, sections)
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"], "--checkpoint", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and section in err and "Traceback" not in err

    def test_repeated_checkpoint_section_is_runtime_error(self, workspace, tmp_path, capsys):
        from qsumm.training import load_checkpoint

        path = tmp_path / "repeated.qsck"
        write_repeated_meta(load_checkpoint(workspace["checkpoint"]), path)
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"], "--checkpoint", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "repeated checkpoint section 'meta'" in err

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
        ("meta", lambda b: b.replace(b'"step": ', b'"step": 1' + b"0" * 5000 + b", \"x\": ")),
        ("meta", lambda b: b"[" * 100_000 + b"]" * 100_000),
    ], ids=["cfg-unknown-key", "cfg-float-dim", "meta-not-utf8", "meta-bad-json", "cfg-bad-json",
            "rng-bad-json", "meta-without-step", "meta-int-of-5001-digits",
            "meta-nested-too-deep"])
    def test_malformed_checkpoint_section_is_runtime_error(
            self, workspace, tmp_path, capsys, section, edit):
        sections = read_sections(open(workspace["checkpoint"], "rb").read(), "ckpt")
        sections[section] = edit(sections[section])
        path = tmp_path / "bad.qsck"
        write_sections(path, sections)
        rc = run_cli(["evaluate", "--corpus", workspace["corpus"], "--checkpoint", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda rng: {},
        lambda rng: [],
        lambda rng: {"seed": 0, "streams": {"sampling": 3}},
        lambda rng: {"seed": 0, "streams": {"bogus": {}}},
        lambda rng: {"seed": 0, "streams": {}},
        lambda rng: {**rng, "seed": True},
        lambda rng: {**rng, "seed": -1},
        lambda rng: {**rng, "streams": {**rng["streams"], "dropout": {"bit_generator": "MT19937"}}},
        lambda rng: stream_number(rng, "sampling", "state", 1.5),
        lambda rng: stream_number(rng, "dropout", "inc", True),
    ], ids=["empty-object", "list", "int-stream", "unknown-stream", "no-streams", "bool-seed",
            "negative-seed", "foreign-stream", "float-in-stream", "bool-in-stream"])
    def test_malformed_rng_section_is_runtime_error(self, workspace, tmp_path, capsys, edit):
        from qsumm.training import load_checkpoint, load_generator

        sections = read_sections(open(workspace["checkpoint"], "rb").read(), "ckpt")
        sections["rng"] = json.dumps(edit(json.loads(sections["rng"]))).encode()
        path = tmp_path / "bad.qsck"
        write_sections(path, sections)
        for load in (load_checkpoint, load_generator):
            with pytest.raises(FormatError, match="rng"):
                load(path)
        rc = run_cli(["train", "--corpus", workspace["corpus"], "--out", str(tmp_path / "run"),
                      "--config", workspace["cfg"], "--checkpoint", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rng" in err and "Traceback" not in err

    def test_max_steps_below_checkpoint_step_is_runtime_error(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MINI, "train": {**MINI["train"], "max_steps": 2}})
        out = tmp_path / "run"
        rc = run_cli(["train", "--corpus", workspace["corpus"], "--out", str(out),
                      "--config", cfg, "--checkpoint", workspace["checkpoint"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_steps 2" in err and "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("value", [0.5, "1", True])
    def test_non_binary_gt_mask_is_runtime_error(self, workspace, tmp_path, capsys, value):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["corpus"], corpus)
        manifest = json.loads((corpus / "manifest.json").read_text())
        video = manifest["videos"][0]
        video["queries"][0]["gt_mask"][0] = value
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        rc = run_cli(["evaluate", "--corpus", str(corpus),
                      "--checkpoint", workspace["checkpoint"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"video {video['id']} query 0: gt mask" in err

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

    @pytest.mark.parametrize("key", ["frame_feat", "shot_feat"])
    def test_non_finite_features_are_runtime_error(self, workspace, tmp_path, capsys, key):
        from qsumm.matrix_io import load_feature_matrix, write_matrix

        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["corpus"], corpus)
        video = json.loads((corpus / "manifest.json").read_text())["videos"][1]
        path = corpus / video[key]
        feats = load_feature_matrix(path)
        feats[2, 3] = np.nan
        write_matrix(path, feats)
        rc = run_cli(["evaluate", "--corpus", str(corpus),
                      "--checkpoint", workspace["checkpoint"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"video {video['id']}" in err
        assert video[key] in err and "Traceback" not in err


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

    @pytest.mark.parametrize("doc, message", [
        ({"train": 3}, "section 'train' must be a JSON object"),
        ({"train": []}, "section 'train' must be a JSON object"),
        ({"synth": "x"}, "section 'synth' must be a JSON object"),
        # json writes and reads the NaN token
        ({"train": {"lr_gen": float("nan")}}, "lr_gen must be finite"),
        ({"train": {"clip_c": float("nan")}}, "clip_c must be finite"),
        ({"synth": {"relevance_strength": float("nan")}}, "relevance_strength must be finite"),
        # a JSON integer too large for a float
        ({"synth": {"relevance_strength": 10**400}}, "relevance_strength must be finite"),
    ], ids=["train-int", "train-list", "synth-str", "lr_gen-nan", "clip_c-nan",
            "relevance_strength-nan", "relevance_strength-int-1e400"])
    def test_bad_section_rejected(self, tmp_path, workspace, capsys, doc, message):
        if "synth" in doc:
            argv = ["synth", "--out", str(tmp_path / "c")]
        else:
            argv = ["train", "--corpus", workspace["corpus"], "--out", str(tmp_path / "r")]
        assert run_cli(argv + ["--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "c").exists() and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("raw", [
        b'{"synth": {"n_videos": "\xff"}}',
        b'{"synth": {"n_videos": 1' + b"0" * 5000 + b"}}",
        b'{"synth": {"n_videos": ' + b"[" * 100_000 + b"]" * 100_000 + b"}}",
    ], ids=["not-utf8", "int-of-5001-digits", "nested-too-deep"])
    def test_undecodable_config_rejected(self, tmp_path, capsys, raw):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        out = tmp_path / "c"
        assert run_cli(["synth", "--out", str(out), "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not valid JSON" in err
        assert not out.exists()

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


CONFIG_SECTIONS = {"synth": SynthConfig, "train": TrainConfig, "generator": GeneratorConfig}


def violates_type(kind, value) -> bool:
    """The type rule, written out apart from the library: an int field
    takes an int, and a float field an int or a float that is finite as
    a float."""
    if kind is int:
        return type(value) is not int
    try:
        return type(value) not in (int, float) or not math.isfinite(value)
    except OverflowError:
        return True


def test_any_json_value_builds_or_raises_config_error(workspace, tmp_path, capsys):
    """For any JSON value in one field of a config section, the config
    layer builds the config or raises ConfigError.  A value of the wrong
    type also fails end to end: exit 2, an error line, no output."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = [(section, name, kind) for section, cls in CONFIG_SECTIONS.items()
              for name, kind in typing.get_type_hints(cls).items()]

    @hypothesis.settings(max_examples=200, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(field=st.sampled_from(fields), value=json_values(st))
    def check(field, value):
        section, name, kind = field
        path = write_config(tmp_path, {section: {name: value}})
        cls = CONFIG_SECTIONS[section]
        doc = cli._load_config_file(path)
        try:
            cli._overlay(cls, dataclasses.asdict(cls()), doc[section], path)
            built = True
        except ConfigError:
            built = False
        if not violates_type(kind, value):
            return
        assert not built
        out = tmp_path / "out"
        if section == "synth":
            argv = ["synth", "--out", str(out)]
        else:
            argv = ["train", "--corpus", workspace["corpus"], "--out", str(out)]
        assert run_cli(argv + ["--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    check()


# every float field of the four config dataclasses; DiscriminatorConfig
# has only int fields
FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (SynthConfig, TrainConfig, GeneratorConfig, DiscriminatorConfig)
    for f in dataclasses.fields(cls)
    if isinstance(f.default, float)
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-too-large-for-a-float"])
@pytest.mark.parametrize("cls, field", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_non_finite_config_float_rejected(cls, field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        cls(**{field: value})


def test_float_field_list_covers_the_range_checked_fields():
    names = {(cls.__name__, name) for cls, name in FLOAT_FIELDS}
    assert ("SynthConfig", "relevance_strength") in names
    assert ("GeneratorConfig", "tau") in names
    assert {("TrainConfig", n) for n in ("clip_c", "lr_gen", "lr_critic", "decay", "omega",
                                         "tau", "lambda_summ", "lambda_len")} <= names


def run_module(module, tmp_path, cfg=MINI):
    """python -m module synth ... in a subprocess; returns the process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, "synth", "--out", str(tmp_path / "c"), "--seed", "1",
         "--config", write_config(tmp_path, cfg)],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestSynth:
    def test_module_entry_point_runs(self, tmp_path):
        # python -m qsumm.cli runs main() like the qsumm console script
        proc = run_module("qsumm.cli", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "c" / "manifest.json").is_file()

    def test_package_entry_point_runs(self, tmp_path):
        # python -m qsumm runs the same main()
        proc = run_module("qsumm", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "c" / "manifest.json").is_file()
        bad = tmp_path / "bad"
        bad.mkdir()
        proc = run_module("qsumm", bad, {"synth": 3})
        assert proc.returncode == 2 and proc.stderr.startswith("error:")

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

    def test_train_without_queries_is_runtime_error(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["corpus"], corpus)
        manifest = json.loads((corpus / "manifest.json").read_text())
        for video in manifest["videos"]:
            video["queries"] = []
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        rc = run_cli(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                      "--config", workspace["cfg"]])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_ablation_flags_change_the_run(self, workspace, tmp_path):
        outs = {}
        for name in ABLATIONS:
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

    def test_ablation_flag_sets_its_weights_over_the_file(self, workspace, tmp_path, capsys):
        assert run_cli(["train", "--help"]) == 0
        assert "{" + ",".join(ABLATIONS) + "}" in capsys.readouterr().out
        cfg = write_config(tmp_path, {"train": dict(MINI["train"], omega=0.3)})
        out = tmp_path / "run"
        assert run_cli(["train", "--corpus", workspace["corpus"], "--out", str(out),
                        "--config", cfg, "--ablation", "two-player"]) == 0
        sections = read_sections((out / "checkpoint.qsck").read_bytes(), "ckpt")
        assert json.loads(sections["cfg/train"])["omega"] == 1.0

    @pytest.mark.parametrize("flag", ["no_length", "no_summ", "two_player"])
    def test_old_ablation_flags_are_unknown_fields(self, workspace, tmp_path, capsys, flag):
        cfg = write_config(tmp_path, {"train": dict(MINI["train"], **{flag: True})})
        out = tmp_path / "run"
        assert run_cli(["train", "--corpus", workspace["corpus"], "--out", str(out),
                        "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "unknown TrainConfig fields" in err and flag in err
        assert not out.exists()

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

    def test_resume_keeps_the_run_config(self, workspace, tmp_path):
        # the resumed leg overlays its file on the checkpoint's cfg/train,
        # not on TrainConfig's defaults, and so continues the straight run
        run_cfg = dict(MINI["train"], seed=3, n_critic=1, max_steps=4)
        argv = ["train", "--corpus", workspace["corpus"], "--ablation", "two-player"]
        straight, split = tmp_path / "straight", tmp_path / "split"
        cfg = write_config(tmp_path, {"train": run_cfg})
        assert run_cli(argv + ["--out", str(straight), "--config", cfg]) == 0
        cfg = write_config(tmp_path, {"train": dict(run_cfg, max_steps=2)})
        assert run_cli(argv + ["--out", str(split), "--config", cfg]) == 0
        cfg = write_config(tmp_path, {"train": {"max_steps": 4}})
        assert run_cli(["train", "--corpus", workspace["corpus"], "--out", str(split),
                        "--config", cfg, "--checkpoint", str(split / "checkpoint.qsck")]) == 0
        assert (split / "metrics.csv").read_bytes() == (straight / "metrics.csv").read_bytes()
        cfgs = [read_sections((run / "checkpoint.qsck").read_bytes(), "ckpt")["cfg/train"]
                for run in (split, straight)]
        assert cfgs[0] == cfgs[1]
        assert json.loads(cfgs[0])["seed"] == 3 and json.loads(cfgs[0])["omega"] == 1.0

    @pytest.mark.parametrize("flag, omega", [(["--ablation", "none"], 0.5), ([], 1.0)])
    def test_resume_ablation_flag_resets_the_weights(self, workspace, tmp_path, flag, omega):
        # a given flag sets every ablation weight, its own or the default;
        # without it the checkpoint's weights stay
        out = tmp_path / "run"
        argv = ["train", "--corpus", workspace["corpus"], "--out", str(out)]
        cfg = write_config(tmp_path, {"train": dict(MINI["train"], max_steps=2)})
        assert run_cli(argv + ["--config", cfg, "--ablation", "two-player"]) == 0
        cfg = write_config(tmp_path, {"train": {"max_steps": 3}})
        assert run_cli(argv + ["--config", cfg, "--checkpoint", str(out / "checkpoint.qsck")]
                       + flag) == 0
        train_cfg = json.loads(read_sections((out / "checkpoint.qsck").read_bytes(),
                                             "ckpt")["cfg/train"])
        assert train_cfg["omega"] == omega

    def test_generator_section_sets_the_model_config(self, workspace, tmp_path):
        cfg = write_config(tmp_path, {"train": MINI["train"],
                                      "generator": {"dropout_p": 0.2, "d_h": 5}})
        out = tmp_path / "run"
        assert run_cli(["train", "--corpus", workspace["corpus"], "--out", str(out),
                        "--config", cfg]) == 0
        sections = read_sections((out / "checkpoint.qsck").read_bytes(), "ckpt")
        gen = json.loads(sections["cfg/gen"])
        want = dict(dataclasses.asdict(GeneratorConfig(
            d_frame=MINI["synth"]["d_frame"], d_shot=MINI["synth"]["d_shot"],
            d_text=MINI["synth"]["d_text"])), dropout_p=0.2, d_h=5)
        assert gen == want
        assert json.loads(sections["cfg/disc"]) == dataclasses.asdict(
            DiscriminatorConfig.for_generator(GeneratorConfig(**want)))

    def test_empty_generator_section_trains_as_without_one(self, workspace, tmp_path):
        cfg = write_config(tmp_path, dict(MINI, generator={}))
        out = tmp_path / "run"
        assert run_cli(["train", "--corpus", workspace["corpus"], "--out", str(out),
                        "--config", cfg]) == 0
        assert dir_bytes(out) == dir_bytes(workspace["run"])

    @pytest.mark.parametrize("section, message", [
        ({"d_h": "32"}, "d_h must be int"),
        ({"d_hidden": 32}, "unknown GeneratorConfig fields ['d_hidden']"),
        ({"d_frame": 9}, "generator d_frame=9 does not match corpus d_frame=8"),
        ({"tau": 0.2}, "generator tau 0.2 conflicts with training tau 0.1"),
    ], ids=["str-d_h", "unknown-field", "d_frame-off-corpus", "tau-off-train"])
    def test_bad_generator_section_rejected(self, workspace, tmp_path, capsys, section,
                                            message):
        cfg = write_config(tmp_path, {"train": MINI["train"], "generator": section})
        out = tmp_path / "run"
        assert run_cli(["train", "--corpus", workspace["corpus"], "--out", str(out),
                        "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not out.exists()

    def test_resume_rejects_generator_section(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path, {"generator": {"dropout_p": 0.2}})
        rc = run_cli(["train", "--corpus", workspace["corpus"], "--out", str(tmp_path / "run"),
                      "--config", cfg, "--checkpoint", workspace["checkpoint"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "generator section" in err
        assert "Traceback" not in err and not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("command", ["evaluate", "summarize"])
    @pytest.mark.parametrize("threshold", ["0", "1.5", "nan"])
    def test_bad_threshold_fails_before_the_checkpoint_loads(
            self, workspace, monkeypatch, capsys, command, threshold):
        from qsumm import training

        loads = []
        monkeypatch.setattr(training, "load_generator", lambda path: loads.append(path))
        argv = [command, "--corpus", workspace["corpus"], "--checkpoint",
                workspace["checkpoint"], "--threshold", threshold]
        if command == "summarize":
            argv += ["--video", "v000", "--query", "0"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: select_shots: threshold must be in (0, 1)")
        assert loads == []

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
