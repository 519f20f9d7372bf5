import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import check_grads
from test_discriminator import reference_critic_scores
from qsumm import discriminator
from qsumm import training
from qsumm.dataset import SynthConfig, sample_batch, synth_corpus
from qsumm.discriminator import (
    DiscriminatorConfig,
    critic,
    critic_scores,
    init_discriminator_params,
    summary_repr,
)
from qsumm.errors import (
    ConfigError,
    ContractError,
    DimensionError,
    FormatError,
    NumericError,
    QsummError,
    VersionError,
)
from qsumm.generator import GeneratorConfig, generator_forward, init_generator_params
from qsumm.layers import RunningStats
from qsumm.matrix_io import matrix_bytes, matrix_from_bytes
from qsumm.optim import OptimizerState, clip_weights, rmsprop_step
from qsumm.tensor import Tape, Tensor, mul
from qsumm.training import (
    _FILE_HEAD,
    _PAYLOAD_HEAD,
    _SECTION_HEAD,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    METRICS_HEADER,
    Checkpoint,
    TrainConfig,
    adversarial_losses,
    load_checkpoint,
    load_generator,
    loss_length,
    loss_summ,
    save_checkpoint,
    train,
)

def clear_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


MINI_SYNTH = SynthConfig(
    n_videos=3, n_shots=12, n_concepts=6, d_frame=8, d_shot=10, d_text=6
)
MINI_GEN = GeneratorConfig(
    d_frame=8, d_shot=10, d_text=6, d_fused=8, d_qenc=4, d_h=6, d_pred=6
)
MINI_TRAIN = TrainConfig(
    seed=0, max_steps=3, n_critic=2, segment_len=8, lr_gen=1e-3, lr_critic=1e-3
)


@pytest.fixture(scope="module")
def mini_corpus():
    return synth_corpus(MINI_SYNTH, seed=11)


class TestLossSumm:
    def test_perfect_alignment(self):
        g = np.array([1.0, 0.0, 1.0])
        assert float(loss_summ(g, g)) == 0.0

    def test_maximal_error(self):
        assert float(loss_summ(np.array([1.0, 0.0]), np.array([0.0, 1.0]))) == 1.0

    def test_halfway(self):
        assert float(loss_summ(np.array([0.5, 0.5]), np.array([1.0, 0.0]))) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            loss_summ(np.ones(3), np.ones(4))

    def test_empty(self):
        with pytest.raises(DimensionError):
            loss_summ(np.ones(0), np.ones(0))

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(0)
        s = Tensor(rng.uniform(0, 1, 7))
        g = rng.integers(0, 2, 7).astype(np.float64)
        with Tape(watch=[s]) as tape:
            loss = loss_summ(s, g)
        tape.backward(loss)
        assert_allclose(s.grad, 2.0 * (s.data - g) / 7.0, atol=1e-15)


class TestLossLength:
    def test_exact_fraction(self):
        assert float(loss_length(np.array([1.0, 0.0, 0.0, 0.0]), 0.25)) == 0.0

    def test_oversized_summary(self):
        val = float(loss_length(np.full(8, 0.999), 0.25))
        assert abs(val - 0.749) < 1e-12

    def test_bad_gamma(self):
        with pytest.raises(ContractError):
            loss_length(np.ones(3), 1.5)

    def test_empty(self):
        with pytest.raises(DimensionError):
            loss_length(np.ones(0), 0.5)

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            k = Tensor(rng.uniform(0.1, 0.9, 6))
            gamma = float(np.clip(k.data.mean() + 0.2, 0, 1))
            check_grads(lambda: loss_length(k, gamma), {"k": k}, tol=1e-6)

    def test_zero_subgradient_at_kink(self):
        k = Tensor(np.array([0.25, 0.75]))
        with Tape(watch=[k]) as tape:
            loss = loss_length(k, 0.5)
        tape.backward(loss)
        assert_allclose(k.grad, np.zeros(2))


class TestAdversarialLosses:
    def test_constant_critic_is_zero_value(self):
        c_loss, g_loss = adversarial_losses(0.8, 0.8, 0.8, 0.5)
        assert abs(float(c_loss)) < 1e-15
        assert abs(float(g_loss) + 0.4) < 1e-15

    def test_worked_example(self):
        c_loss, g_loss = adversarial_losses(1.0, 0.4, 0.2, 0.5)
        assert abs(float(c_loss) + 0.7) < 1e-12
        assert abs(float(g_loss) + 0.2) < 1e-12

    def test_two_player_drops_random_term(self):
        c_loss, g_loss = adversarial_losses(1.0, 0.4, None, 1.0)
        assert abs(float(c_loss) + 0.6) < 1e-12
        assert abs(float(g_loss) + 0.4) < 1e-12

    def test_missing_d_r_needs_omega_one(self):
        with pytest.raises(ContractError):
            adversarial_losses(1.0, 0.4, None, 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            adversarial_losses(np.nan, 0.4, 0.2, 0.5)
        with pytest.raises(NumericError):
            adversarial_losses(1.0, np.inf, 0.2, 0.5)

    def test_omega_out_of_range(self):
        with pytest.raises(ConfigError):
            adversarial_losses(1.0, 0.4, 0.2, 1.5)

    def test_taped_gradients(self):
        d_g, d_q, d_r = Tensor(1.0), Tensor(0.4), Tensor(0.2)
        with Tape(watch=[d_g, d_q, d_r]) as tape:
            c_loss, _ = adversarial_losses(d_g, d_q, d_r, 0.25)
        tape.backward(c_loss)
        assert_allclose(d_g.grad, -1.0)
        assert_allclose(d_q.grad, 0.25)
        assert_allclose(d_r.grad, 0.75)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            TrainConfig(n_critic=0)
        with pytest.raises(ConfigError):
            TrainConfig(clip_c=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(omega=1.2)
        with pytest.raises(ConfigError):
            TrainConfig(lambda_summ=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(max_steps=0)

    def test_two_player_forces_omega(self):
        cfg = TrainConfig(two_player=True, omega=0.5)
        assert cfg.effective_omega() == 1.0


class TestPhaseSeparation:
    """One critic phase and one generator phase, run by hand."""

    def setup_method(self):
        self.corpus = synth_corpus(MINI_SYNTH, seed=3)
        rng = np.random.default_rng(4)
        from qsumm.discriminator import init_discriminator_params
        from qsumm.generator import init_generator_params

        self.gparams = init_generator_params(MINI_GEN, rng)
        self.dparams = init_discriminator_params(
            DiscriminatorConfig.for_generator(MINI_GEN), rng
        )

    def test_gradients_stay_in_phase(self):
        batch = sample_batch(self.corpus, np.random.default_rng(5), 8)
        gen_tensors = self.gparams.tensors()
        disc_tensors = self.dparams.tensors()
        clear_grads(gen_tensors.values())
        clear_grads(disc_tensors.values())

        fwd = generator_forward(
            self.gparams, batch.frame, batch.shot, batch.query_emb,
            train=True, rng=np.random.default_rng(6),
        )
        with Tape(watch=disc_tensors.values()) as tape:
            summs = [
                summary_repr(fwd.f_eq, batch.gt, "ground-truth"),
                summary_repr(fwd.f_eq, fwd.s, "generated"),
                summary_repr(fwd.f_eq, np.ones(batch.length), "random"),
            ]
            d_g, d_q, d_r = critic_scores(summs, fwd.f_vq, self.dparams, train=True)
            c_loss, _ = adversarial_losses(d_g, d_q, d_r, 0.5)
        tape.backward(c_loss)
        assert all(t.grad is not None for t in disc_tensors.values())
        assert all(t.grad is None for t in gen_tensors.values())

        disc_grads = {k: t.grad.copy() for k, t in disc_tensors.items()}
        with Tape(watch=gen_tensors.values()) as tape:
            fwd = generator_forward(
                self.gparams, batch.frame, batch.shot, batch.query_emb,
                train=True, rng=np.random.default_rng(7),
            )
            d_q = critic(
                summary_repr(fwd.f_eq, fwd.s, "generated"),
                fwd.f_vq, self.dparams, train=True,
            )
            total = mul(d_q, -0.5) + loss_summ(fwd.s, batch.gt) + loss_length(fwd.k, batch.gamma)
        tape.backward(total)
        assert all(t.grad is not None for t in gen_tensors.values())
        # the generator backward ran through critic ops without touching
        # the critic's stored gradients
        for k, t in disc_tensors.items():
            assert np.array_equal(t.grad, disc_grads[k])

    def test_updates_do_not_cross(self):
        batch = sample_batch(self.corpus, np.random.default_rng(8), 8)
        gen_tensors = self.gparams.tensors()
        disc_tensors = self.dparams.tensors()
        from qsumm.optim import OptimizerState

        gen_before = {k: t.data.copy() for k, t in gen_tensors.items()}
        fwd = generator_forward(
            self.gparams, batch.frame, batch.shot, batch.query_emb,
            train=True, rng=np.random.default_rng(9),
        )
        with Tape(watch=disc_tensors.values()) as tape:
            d_q = critic(
                summary_repr(fwd.f_eq, fwd.s, "generated"),
                fwd.f_vq, self.dparams, train=True,
            )
        tape.backward(d_q)
        rmsprop_step(disc_tensors, OptimizerState.for_params(disc_tensors), 1e-3)
        clip_weights(disc_tensors, 0.01)
        for k, t in gen_tensors.items():
            assert np.array_equal(t.data, gen_before[k])

        disc_after_clip = {k: t.data.copy() for k, t in disc_tensors.items()}
        with Tape(watch=gen_tensors.values()) as tape:
            fwd = generator_forward(
                self.gparams, batch.frame, batch.shot, batch.query_emb,
                train=True, rng=np.random.default_rng(10),
            )
            d_q = critic(
                summary_repr(fwd.f_eq, fwd.s, "generated"),
                fwd.f_vq, self.dparams, train=True,
            )
        tape.backward(d_q)
        rmsprop_step(gen_tensors, OptimizerState.for_params(gen_tensors), 1e-3)
        for k, t in disc_tensors.items():
            assert np.array_equal(t.data, disc_after_clip[k])


class TestTrainLoop:
    def test_deterministic_metrics(self, mini_corpus):
        a = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN)
        b = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN)
        assert [r.format() for r in a.metrics] == [r.format() for r in b.metrics]

    def test_counters(self, mini_corpus):
        res = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN)
        assert res.counters["gen_updates"] == 3
        assert res.counters["critic_updates"] == 6
        assert res.counters["random_summaries"] == 6
        # three summaries per critic update, one per generator update
        assert res.counters["summary_branch_evals"] == 3 * 6 + 3

    def test_two_player_never_draws_random(self, mini_corpus):
        cfg = dataclasses.replace(MINI_TRAIN, two_player=True)
        res = train(mini_corpus, cfg, gen_cfg=MINI_GEN)
        assert res.counters["random_summaries"] == 0
        assert res.counters["summary_branch_evals"] == 2 * 6 + 3

    def test_critic_weights_clipped(self, mini_corpus):
        res = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN)
        for t in res.checkpoint.disc_params.tensors().values():
            assert np.abs(t.data).max() <= MINI_TRAIN.clip_c + 1e-15

    def test_total_equals_logged_components(self, mini_corpus, tmp_path):
        res = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN, out_dir=tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + MINI_TRAIN.max_steps
        for line, row in zip(lines[1:], res.metrics):
            cols = line.split(",")
            assert int(cols[0]) == row.step
            adv, ls, ll, total = map(float, cols[2:6])
            assert (adv + ls) + ll == total

    def test_ablations_zero_their_columns(self, mini_corpus):
        no_len = train(
            mini_corpus, dataclasses.replace(MINI_TRAIN, no_length=True), gen_cfg=MINI_GEN
        )
        assert all(r.loss_length == 0.0 for r in no_len.metrics)
        assert any(r.loss_summ != 0.0 for r in no_len.metrics)
        no_summ = train(
            mini_corpus, dataclasses.replace(MINI_TRAIN, no_summ=True), gen_cfg=MINI_GEN
        )
        assert all(r.loss_summ == 0.0 for r in no_summ.metrics)

    def test_nan_abort_names_step(self, mini_corpus):
        from qsumm.generator import init_generator_params
        from qsumm.rng import RngHub

        gparams = init_generator_params(MINI_GEN, RngHub(0)["init"])
        gparams.fuse_w.data[0, 0] = np.nan
        from qsumm.training import Checkpoint
        from qsumm.discriminator import init_discriminator_params
        from qsumm.optim import OptimizerState

        disc_cfg = DiscriminatorConfig.for_generator(MINI_GEN)
        hub = RngHub(0)
        ckpt = Checkpoint(
            step=0,
            train_cfg=MINI_TRAIN,
            gen_cfg=MINI_GEN,
            disc_cfg=disc_cfg,
            gen_params=gparams,
            disc_params=init_discriminator_params(disc_cfg, hub["init"]),
            gen_opt=OptimizerState.for_params(gparams.tensors()),
            disc_opt=OptimizerState.for_params(
                init_discriminator_params(disc_cfg, hub["init"]).tensors()
            ),
            rng_state=hub.state(),
        )
        with pytest.raises(NumericError, match="step 1"):
            train(mini_corpus, MINI_TRAIN, resume=ckpt)

    def test_dim_mismatch_rejected(self, mini_corpus):
        bad = GeneratorConfig(d_frame=9, d_shot=10, d_text=6, d_fused=8, d_qenc=4, d_h=6, d_pred=6)
        with pytest.raises(ConfigError):
            train(mini_corpus, MINI_TRAIN, gen_cfg=bad)

    def test_tau_conflict_rejected(self, mini_corpus):
        cfg = dataclasses.replace(MINI_TRAIN, tau=0.2)
        with pytest.raises(ConfigError):
            train(mini_corpus, cfg, gen_cfg=MINI_GEN)


class TestCriticAgainstReference:
    def test_recipe_run_logs_same_bytes(self, tmp_path, monkeypatch):
        """A recipe-config run logs the same metrics.csv bytes with the
        critic swapped for the two-call reference critic."""
        corpus = synth_corpus(SynthConfig(), seed=9)
        gen_cfg = GeneratorConfig(d_frame=corpus.dims["d_frame"], d_shot=corpus.dims["d_shot"],
                                  d_text=corpus.dims["d_text"], dropout_p=0.2)
        cfg = TrainConfig(seed=0, max_steps=20, n_critic=1, lr_gen=1e-3, lr_critic=1e-3,
                          segment_len=60)
        train(corpus, cfg, gen_cfg=gen_cfg, out_dir=tmp_path / "fused")

        calls = []

        def reference(*args, **kwargs):
            calls.append(1)
            return reference_critic_scores(*args, **kwargs)

        # training calls critic_scores directly and critic through it
        monkeypatch.setattr(training, "critic_scores", reference)
        monkeypatch.setattr(discriminator, "critic_scores", reference)
        train(corpus, cfg, gen_cfg=gen_cfg, out_dir=tmp_path / "reference")
        assert len(calls) == 2 * cfg.max_steps
        fused = (tmp_path / "fused" / "metrics.csv").read_bytes()
        assert fused == (tmp_path / "reference" / "metrics.csv").read_bytes()


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, mini_corpus, tmp_path):
        res = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN)
        p1 = tmp_path / "a.qsck"
        p2 = tmp_path / "b.qsck"
        save_checkpoint(res.checkpoint, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_state_matches(self, mini_corpus, tmp_path):
        res = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN)
        path = tmp_path / "c.qsck"
        save_checkpoint(res.checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.step == res.checkpoint.step
        assert loaded.train_cfg == res.checkpoint.train_cfg
        assert loaded.rng_state == res.checkpoint.rng_state
        for k, t in res.checkpoint.gen_params.tensors().items():
            assert np.array_equal(loaded.gen_params.tensors()[k].data, t.data)
        for k, t in res.checkpoint.disc_params.tensors().items():
            assert np.array_equal(loaded.disc_params.tensors()[k].data, t.data)
        for k, acc in res.checkpoint.gen_opt.acc.items():
            assert np.array_equal(loaded.gen_opt.acc[k], acc)
        for k, acc in res.checkpoint.disc_opt.acc.items():
            assert np.array_equal(loaded.disc_opt.acc[k], acc)

    def test_truncated_file(self, mini_corpus, tmp_path):
        res = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN)
        path = tmp_path / "d.qsck"
        save_checkpoint(res.checkpoint, path)
        blob = path.read_bytes()
        for cut in (3, 11, len(blob) // 2, len(blob) - 1):
            clipped = tmp_path / "cut.qsck"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(clipped)

    def test_version_mismatch(self, mini_corpus, tmp_path):
        res = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN)
        path = tmp_path / "e.qsck"
        save_checkpoint(res.checkpoint, path)
        blob = bytearray(path.read_bytes())
        blob[4] = CHECKPOINT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.qsck"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError):
            load_checkpoint(path)


# The checkpoint writer and the whole-buffer reader as they were before
# save and load streamed section by section, kept as the byte-level and
# state-level reference for the streaming code.  The writer still emits
# version 1, with the generator's running stats (gen_stats, now given by
# the caller) as gstats/* sections; the reader accepts versions 1 and 2
# and, like the loader, no longer reads gstats/*.

REFERENCE_VERSION = 1


def _config_json(cfg) -> bytes:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    return arr if arr.ndim == 2 else arr.reshape(1, arr.size)


def reference_sections_of(ckpt: Checkpoint, gen_stats: dict):
    meta = {
        "format": "qsumm-checkpoint",
        "step": ckpt.step,
        "best_val_f1": ckpt.best_val_f1,
        "best_val_step": ckpt.best_val_step,
        "gen_opt_step": ckpt.gen_opt.step,
        "disc_opt_step": ckpt.disc_opt.step,
    }
    yield "meta", json.dumps(meta, sort_keys=True).encode("utf-8")
    yield "cfg/train", _config_json(ckpt.train_cfg)
    yield "cfg/gen", _config_json(ckpt.gen_cfg)
    yield "cfg/disc", _config_json(ckpt.disc_cfg)
    for key, t in ckpt.gen_params.tensors().items():
        yield f"gparam/{key}", matrix_bytes(_as_matrix(t.data), version=2)
    for key, st in gen_stats.items():
        yield f"gstats/{key}/mean", matrix_bytes(_as_matrix(st.mean), version=2)
        yield f"gstats/{key}/var", matrix_bytes(_as_matrix(st.var), version=2)
    for key, t in ckpt.disc_params.tensors().items():
        yield f"dparam/{key}", matrix_bytes(_as_matrix(t.data), version=2)
    for key, st in ckpt.disc_params.stats().items():
        yield f"dstats/{key}/mean", matrix_bytes(_as_matrix(st.mean), version=2)
        yield f"dstats/{key}/var", matrix_bytes(_as_matrix(st.var), version=2)
    for key, acc in ckpt.gen_opt.acc.items():
        yield f"gopt/acc/{key}", matrix_bytes(_as_matrix(acc), version=2)
    for key, acc in ckpt.disc_opt.acc.items():
        yield f"dopt/acc/{key}", matrix_bytes(_as_matrix(acc), version=2)
    yield "rng", json.dumps(ckpt.rng_state, sort_keys=True).encode("utf-8")


def reference_save_checkpoint(ckpt: Checkpoint, path, gen_stats: dict) -> None:
    """Write the full training state, atomically."""
    sections = list(reference_sections_of(ckpt, gen_stats))
    blob = bytearray(_FILE_HEAD.pack(CHECKPOINT_MAGIC, REFERENCE_VERSION, len(sections)))
    for name, payload in sections:
        encoded = name.encode("utf-8")
        blob += _SECTION_HEAD.pack(len(encoded))
        blob += encoded
        blob += _PAYLOAD_HEAD.pack(len(payload))
        blob += payload
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(blob))
    os.replace(tmp, path)


def reference_read_sections(buf: bytes, source: str) -> dict:
    if len(buf) < _FILE_HEAD.size:
        raise FormatError(f"{source}: truncated checkpoint header ({len(buf)} bytes)")
    magic, version, n = _FILE_HEAD.unpack_from(buf, 0)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{source}: bad checkpoint magic {magic!r}")
    if version not in (REFERENCE_VERSION, CHECKPOINT_VERSION):
        raise VersionError(
            f"{source}: checkpoint version {version} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    sections = {}
    off = _FILE_HEAD.size
    for _ in range(n):
        if off + _SECTION_HEAD.size > len(buf):
            raise FormatError(f"{source}: truncated at section name length")
        (name_len,) = _SECTION_HEAD.unpack_from(buf, off)
        off += _SECTION_HEAD.size
        if off + name_len + _PAYLOAD_HEAD.size > len(buf):
            raise FormatError(f"{source}: truncated at section header")
        try:
            name = buf[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{source}: section name is not UTF-8") from None
        off += name_len
        (payload_len,) = _PAYLOAD_HEAD.unpack_from(buf, off)
        off += _PAYLOAD_HEAD.size
        if off + payload_len > len(buf):
            raise FormatError(f"{source}: truncated inside section {name!r}")
        sections[name] = buf[off : off + payload_len]
        off += payload_len
    if off != len(buf):
        raise FormatError(f"{source}: {len(buf) - off} trailing bytes after last section")
    return sections


def reference_fill_array(arr: np.ndarray, buf: bytes, name: str, source: str) -> None:
    m = matrix_from_bytes(buf, source=f"{source}:{name}")
    if m.size != arr.size:
        raise FormatError(
            f"{source}: section {name!r} holds {m.size} values, expected {arr.size}"
        )
    if not np.isfinite(m).all():
        raise FormatError(f"{source}: section {name!r} holds non-finite values")
    arr[...] = m.reshape(arr.shape)


def reference_load_checkpoint(path) -> Checkpoint:
    """Reconstruct a Checkpoint; resuming from it continues bit-exactly.

    Raises FormatError for malformed sections, including any tensor that
    holds a NaN or an infinity.
    """
    source = str(path)
    with open(path, "rb") as fh:
        buf = fh.read()
    sections = reference_read_sections(buf, source)

    def need(name: str) -> bytes:
        if name not in sections:
            raise FormatError(f"{source}: missing checkpoint section {name!r}")
        return sections[name]

    def parse(name: str):
        try:
            return json.loads(need(name).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{source}: section {name!r} is not UTF-8 JSON: {e}") from None

    def config(cls, name: str):
        fields = parse(name)
        if not isinstance(fields, dict):
            raise FormatError(f"{source}: section {name!r} is not a JSON object")
        try:
            return cls(**fields)
        except TypeError as e:
            raise FormatError(f"{source}: section {name!r}: {e}") from None

    meta = parse("meta")
    if not isinstance(meta, dict):
        raise FormatError(f"{source}: section 'meta' is not a JSON object")
    if meta.get("format") != "qsumm-checkpoint":
        raise FormatError(f"{source}: unexpected meta format tag {meta.get('format')!r}")
    try:
        counts = {k: int(meta[k])
                  for k in ("step", "best_val_step", "gen_opt_step", "disc_opt_step")}
        best_val_f1 = float(meta["best_val_f1"])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{source}: bad or missing meta field: {e!r}") from None
    train_cfg = config(TrainConfig, "cfg/train")
    gen_cfg = config(GeneratorConfig, "cfg/gen")
    disc_cfg = config(DiscriminatorConfig, "cfg/disc")

    try:
        gparams = init_generator_params(gen_cfg, np.random.default_rng(0))
        dparams = init_discriminator_params(disc_cfg, np.random.default_rng(0))
    except TypeError as e:
        raise FormatError(f"{source}: configs do not describe a model: {e}") from None
    for key, t in gparams.tensors().items():
        reference_fill_array(t.data, need(f"gparam/{key}"), f"gparam/{key}", source)
    for key, t in dparams.tensors().items():
        reference_fill_array(t.data, need(f"dparam/{key}"), f"dparam/{key}", source)
    for key, st in dparams.stats().items():
        reference_fill_array(st.mean, need(f"dstats/{key}/mean"), f"dstats/{key}/mean", source)
        reference_fill_array(st.var, need(f"dstats/{key}/var"), f"dstats/{key}/var", source)

    gen_opt = OptimizerState.for_params(gparams.tensors())
    gen_opt.step = counts["gen_opt_step"]
    for key, acc in gen_opt.acc.items():
        reference_fill_array(acc, need(f"gopt/acc/{key}"), f"gopt/acc/{key}", source)
    disc_opt = OptimizerState.for_params(dparams.tensors())
    disc_opt.step = counts["disc_opt_step"]
    for key, acc in disc_opt.acc.items():
        reference_fill_array(acc, need(f"dopt/acc/{key}"), f"dopt/acc/{key}", source)

    return Checkpoint(
        step=counts["step"],
        train_cfg=train_cfg,
        gen_cfg=gen_cfg,
        disc_cfg=disc_cfg,
        gen_params=gparams,
        disc_params=dparams,
        gen_opt=gen_opt,
        disc_opt=disc_opt,
        rng_state=parse("rng"),
        best_val_f1=best_val_f1,
        best_val_step=counts["best_val_step"],
    )


def write_sections(path, sections: dict) -> None:
    """Write (name -> payload) sections as a QSCK file, in dict order."""
    blob = bytearray(_FILE_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(sections)))
    for name, payload in sections.items():
        blob += _SECTION_HEAD.pack(len(name.encode())) + name.encode()
        blob += _PAYLOAD_HEAD.pack(len(payload)) + payload
    path.write_bytes(bytes(blob))


def bits(obj):
    """A value for == that compares every array bit for bit, with dtype and shape."""
    if isinstance(obj, Tensor):
        return ("Tensor", bits(obj.data))
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,
                tuple((f.name, bits(getattr(obj, f.name))) for f in dataclasses.fields(obj)))
    if isinstance(obj, dict):
        return tuple((k, bits(obj[k])) for k in sorted(obj))
    return obj


@pytest.fixture(scope="module")
def mini_checkpoint(mini_corpus):
    ckpt = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN).checkpoint
    return dataclasses.replace(ckpt, best_val_f1=0.25, best_val_step=2)


def stand_in_stats(gen_cfg, seed=0) -> dict:
    """Generator running stats as a version 1 file held them, made up."""
    rng = np.random.default_rng(seed)
    return {
        key: RunningStats(mean=rng.standard_normal(d), var=rng.uniform(0.5, 2.0, d))
        for key, d in (("enc_bn", 2 * gen_cfg.d_h), ("pred_bn", gen_cfg.d_pred))
    }


def write_v1(ckpt, path) -> None:
    reference_save_checkpoint(ckpt, path, stand_in_stats(ckpt.gen_cfg))


class TestCheckpointAgainstReference:
    def test_save_equals_reference_writer(self, mini_checkpoint, tmp_path):
        # version 2 is version 1 without the gstats/* sections
        save_checkpoint(mini_checkpoint, tmp_path / "a.qsck")
        write_v1(mini_checkpoint, tmp_path / "b.qsck")
        sections = reference_read_sections((tmp_path / "b.qsck").read_bytes(), "v1")
        assert any(name.startswith("gstats/") for name in sections)
        write_sections(tmp_path / "b2.qsck", {
            name: payload for name, payload in sections.items()
            if not name.startswith("gstats/")
        })
        assert (tmp_path / "a.qsck").read_bytes() == (tmp_path / "b2.qsck").read_bytes()
        assert not os.path.exists(tmp_path / "a.qsck.tmp")

    def test_load_equals_reference_reader(self, mini_checkpoint, tmp_path):
        path = tmp_path / "c.qsck"
        save_checkpoint(mini_checkpoint, path)
        loaded = load_checkpoint(path)
        assert bits(loaded) == bits(reference_load_checkpoint(path))
        assert bits(loaded) == bits(mini_checkpoint)

    def test_load_generator_equals_full_load(self, mini_checkpoint, tmp_path):
        path = tmp_path / "g.qsck"
        save_checkpoint(mini_checkpoint, path)
        assert bits(load_generator(path)) == bits(load_checkpoint(path).gen_params)

    @pytest.mark.parametrize("scratch_bytes", [64, training._SCRATCH_BYTES])
    def test_float32_sections_read_through_scratch(
            self, mini_checkpoint, tmp_path, monkeypatch, scratch_bytes):
        # 64 bytes of scratch split most tensors into several chunks
        monkeypatch.setattr(training, "_SCRATCH_BYTES", scratch_bytes)
        path = tmp_path / "a.qsck"
        save_checkpoint(mini_checkpoint, path)
        sections = reference_read_sections(path.read_bytes(), "ckpt")
        for name, payload in sections.items():
            if name not in ("meta", "rng") and not name.startswith("cfg/"):
                sections[name] = matrix_bytes(matrix_from_bytes(payload), version=1)
        write_sections(path, sections)
        loaded = load_checkpoint(path)
        assert bits(loaded) == bits(reference_load_checkpoint(path))
        assert bits(load_generator(path)) == bits(loaded.gen_params)

    @pytest.mark.parametrize("name", ["dparam/out_w", "dopt/acc/fc1_w", "gopt/acc/fuse_w"])
    def test_non_finite_training_state_rejected_by_both_loaders(
            self, mini_checkpoint, tmp_path, monkeypatch, name):
        monkeypatch.setattr(training, "_SCRATCH_BYTES", 64)
        path = tmp_path / "a.qsck"
        save_checkpoint(mini_checkpoint, path)
        sections = reference_read_sections(path.read_bytes(), "ckpt")
        m = matrix_from_bytes(sections[name])
        m.flat[-1] = np.inf  # the last value sits in the last scratch chunk
        sections[name] = matrix_bytes(m, version=2)
        write_sections(path, sections)
        for load in (load_checkpoint, load_generator):
            with pytest.raises(FormatError, match=name):
                load(path)


class TestCheckpointV1:
    """Version 1 files, with their gstats/* sections, still load and resume."""

    def test_v1_loads_to_the_v2_state(self, mini_checkpoint, tmp_path):
        v1, v2 = tmp_path / "v1.qsck", tmp_path / "v2.qsck"
        write_v1(mini_checkpoint, v1)
        save_checkpoint(mini_checkpoint, v2)
        assert v1.read_bytes()[4] == 1 and v2.read_bytes()[4] == 2
        assert bits(load_checkpoint(v1)) == bits(load_checkpoint(v2))
        assert bits(load_checkpoint(v1)) == bits(mini_checkpoint)
        assert bits(load_generator(v1)) == bits(load_generator(v2))

    def test_resume_from_v1_logs_identical_metrics(self, mini_corpus, tmp_path):
        full_dir, split_dir = tmp_path / "full", tmp_path / "split"
        train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=4),
              gen_cfg=MINI_GEN, out_dir=full_dir)
        half = train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=2),
                     gen_cfg=MINI_GEN, out_dir=split_dir)
        write_v1(half.checkpoint, tmp_path / "v1.qsck")
        ckpt = load_checkpoint(tmp_path / "v1.qsck")
        train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=4),
              out_dir=split_dir, resume=ckpt)
        assert (full_dir / "metrics.csv").read_bytes() == (split_dir / "metrics.csv").read_bytes()
        assert (full_dir / "checkpoint.qsck").read_bytes() == (
            split_dir / "checkpoint.qsck").read_bytes()

    def test_version_zero_rejected(self, mini_checkpoint, tmp_path):
        # TestCheckpoint.test_version_mismatch covers the version above
        path = tmp_path / "v.qsck"
        save_checkpoint(mini_checkpoint, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 0
        path.write_bytes(bytes(blob))
        for load in (load_checkpoint, load_generator):
            with pytest.raises(VersionError):
                load(path)


class TestCheckpointSizes:
    def _with_gen_cfg(self, mini_checkpoint, tmp_path, **fields):
        path = tmp_path / "dims.qsck"
        save_checkpoint(mini_checkpoint, path)
        sections = reference_read_sections(path.read_bytes(), "ckpt")
        cfg = {**json.loads(sections["cfg/gen"]), **fields}
        sections["cfg/gen"] = json.dumps(cfg, sort_keys=True).encode("utf-8")
        write_sections(path, sections)
        return path

    def test_huge_config_dims_rejected_before_allocation(self, mini_checkpoint, tmp_path):
        # d_h = 2**20 makes enc_fwd_wh 2**20 x 2**22 float64 (32 TiB): any
        # allocation from the config before the size check fails with
        # MemoryError at once, and even its bias vectors would show here
        path = self._with_gen_cfg(mini_checkpoint, tmp_path, d_h=2**20)
        for load in (load_checkpoint, load_generator):
            tracemalloc.start()
            try:
                with pytest.raises(FormatError, match="gparam/enc_fwd_wx.*expected"):
                    load(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_section_size_disagreeing_with_config_rejected(self, mini_checkpoint, tmp_path):
        path = self._with_gen_cfg(mini_checkpoint, tmp_path, d_pred=7)
        for load in (load_checkpoint, load_generator):
            with pytest.raises(FormatError, match="gparam/pred_w1"):
                load(path)

    def test_missing_critic_section_rejected_by_generator_load(self, mini_checkpoint, tmp_path):
        path = tmp_path / "a.qsck"
        save_checkpoint(mini_checkpoint, path)
        sections = reference_read_sections(path.read_bytes(), "ckpt")
        del sections["dopt/acc/out_b"]
        write_sections(path, sections)
        for load in (load_checkpoint, load_generator):
            with pytest.raises(FormatError, match="missing checkpoint section 'dopt/acc/out_b'"):
                load(path)


class TestCheckpointFuzz:
    """Truncated or bit-flipped checkpoint bytes raise only QsummError.

    The generator-only load raises exactly when the full load does.
    """

    @pytest.fixture(scope="class")
    def blob(self, mini_corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "c.qsck"
        save_checkpoint(train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN).checkpoint, path)
        return path.read_bytes()

    def test_damaged_bytes_raise_typed_errors(self, blob, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # most of the file is tensor payload; half the flips aim at the
        # headers and JSON sections at the front
        position = st.one_of(st.integers(0, 2047), st.integers(0, len(blob) - 1))

        @hypothesis.settings(max_examples=150, deadline=None, database=None,
                             suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(cut=st.booleans(), pos=position, bit=st.integers(0, 7))
        def check(cut, pos, bit):
            data = bytearray(blob[:pos] if cut else blob)
            if not cut:
                data[pos] ^= 1 << bit
            path = tmp_path / "damaged.qsck"
            path.write_bytes(bytes(data))
            failed = []
            for load in (load_checkpoint, load_generator):
                try:
                    load(path)
                    failed.append(False)
                except QsummError:
                    failed.append(True)
            assert failed[0] == failed[1]

        check()


class TestResume:
    def test_split_run_metrics_byte_identical(self, mini_corpus, tmp_path):
        full_dir = tmp_path / "full"
        split_dir = tmp_path / "split"
        cfg_full = dataclasses.replace(MINI_TRAIN, max_steps=4)
        train(mini_corpus, cfg_full, gen_cfg=MINI_GEN, out_dir=full_dir)

        cfg_half = dataclasses.replace(MINI_TRAIN, max_steps=2)
        train(mini_corpus, cfg_half, gen_cfg=MINI_GEN, out_dir=split_dir)
        ckpt = load_checkpoint(split_dir / "checkpoint.qsck")
        assert ckpt.step == 2
        train(mini_corpus, cfg_full, out_dir=split_dir, resume=ckpt)

        full_csv = (full_dir / "metrics.csv").read_bytes()
        split_csv = (split_dir / "metrics.csv").read_bytes()
        assert full_csv == split_csv

    def test_resumed_checkpoint_matches_uninterrupted(self, mini_corpus, tmp_path):
        full_dir = tmp_path / "full"
        split_dir = tmp_path / "split"
        cfg_full = dataclasses.replace(MINI_TRAIN, max_steps=4)
        train(mini_corpus, cfg_full, gen_cfg=MINI_GEN, out_dir=full_dir)
        cfg_half = dataclasses.replace(MINI_TRAIN, max_steps=2)
        train(mini_corpus, cfg_half, gen_cfg=MINI_GEN, out_dir=split_dir)
        ckpt = load_checkpoint(split_dir / "checkpoint.qsck")
        train(mini_corpus, cfg_full, out_dir=split_dir, resume=ckpt)
        a = (full_dir / "checkpoint.qsck").read_bytes()
        b = (split_dir / "checkpoint.qsck").read_bytes()
        ca, cb = load_checkpoint(full_dir / "checkpoint.qsck"), load_checkpoint(
            split_dir / "checkpoint.qsck"
        )
        assert ca.step == cb.step == 4
        for k, t in ca.gen_params.tensors().items():
            assert np.array_equal(cb.gen_params.tensors()[k].data, t.data)
        assert ca.rng_state == cb.rng_state
        assert a == b

    def test_tau_conflict_on_resume_rejected(self, mini_corpus, tmp_path):
        result = train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=2),
                       gen_cfg=MINI_GEN)
        assert result.checkpoint.gen_cfg.tau == 0.1
        cfg = dataclasses.replace(MINI_TRAIN, max_steps=4, tau=0.5)
        with pytest.raises(ConfigError, match="generator tau 0.1 conflicts with training tau 0.5"):
            train(mini_corpus, cfg, out_dir=tmp_path, resume=result.checkpoint)
        assert not os.path.exists(tmp_path / "checkpoint.qsck")

    def test_periodic_checkpoints_written(self, mini_corpus, tmp_path):
        cfg = dataclasses.replace(MINI_TRAIN, max_steps=4, checkpoint_every=2)
        train(mini_corpus, cfg, gen_cfg=MINI_GEN, out_dir=tmp_path)
        assert os.path.exists(tmp_path / "checkpoint.qsck")
