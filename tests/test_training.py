import ast
import dataclasses
import inspect
import json
import os
import textwrap
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import check_grads, json_values, qsfm_bytes
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
from qsumm.evaluation import evaluate
from qsumm.generator import GeneratorConfig, generator_forward, init_generator_params
from qsumm.matrix_io import matrix_from_bytes
from qsumm.optim import OptimizerState, clip_weights, rmsprop_step
from qsumm.rng import RngHub
from qsumm.tensor import Tape, Tensor, mul
from qsumm.training import (
    _FILE_HEAD,
    _PAYLOAD_HEAD,
    _SECTION_HEAD,
    ABLATIONS,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    METRICS_HEADER,
    THRESHOLD_GRID,
    Checkpoint,
    CheckpointMeta,
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
MINI_EVAL = dataclasses.replace(MINI_TRAIN, max_steps=6, eval_every=1)


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


class TestFieldTypes:
    """Every config field holds its annotated type, and nothing is converted."""

    @pytest.mark.parametrize("make, message", [
        (lambda: TrainConfig(max_steps=True), "max_steps must be int, got True"),
        (lambda: TrainConfig(seed=1.5), "seed must be int, got 1.5"),
        (lambda: GeneratorConfig(d_h=32.0), "d_h must be int, got 32.0"),
        (lambda: GeneratorConfig(d_h="32"), "d_h must be int, got '32'"),
        (lambda: SynthConfig(n_shots=60.0), "n_shots must be int, got 60.0"),
        (lambda: DiscriminatorConfig(d_fc1=None), "d_fc1 must be int, got None"),
    ], ids=["bool-max_steps", "float-seed", "float-d_h", "str-d_h",
            "float-n_shots", "null-d_fc1"])
    def test_wrong_type_rejected(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()

    def test_int_in_float_field_stays_int(self):
        cfg = TrainConfig(clip_c=1, tau=2)
        assert type(cfg.clip_c) is int and type(cfg.tau) is int


# record, field, {bound: accepted just below, at and just above it}, -0.0
# accepted.  The neighbours are bound -/+ 1 for an int field and the
# nearest floats for a float field.
BOUNDARY_TABLE = [
    (TrainConfig, "seed", {0: "-++"}, False),
    (TrainConfig, "max_steps", {1: "-++"}, False),
    (TrainConfig, "n_critic", {1: "-++"}, False),
    (TrainConfig, "clip_c", {0: "--+"}, False),
    (TrainConfig, "lr_gen", {0: "--+"}, False),
    (TrainConfig, "lr_critic", {0: "--+"}, False),
    (TrainConfig, "decay", {0: "--+", 1: "+--"}, False),
    (TrainConfig, "omega", {0: "-++", 1: "++-"}, True),
    (TrainConfig, "tau", {0: "--+"}, False),
    (TrainConfig, "lambda_summ", {0: "-++"}, True),
    (TrainConfig, "lambda_len", {0: "-++"}, True),
    (TrainConfig, "segment_len", {1: "-++"}, False),
    (TrainConfig, "checkpoint_every", {0: "-++"}, False),
    (TrainConfig, "eval_every", {0: "-++"}, False),
    (CheckpointMeta, "step", {0: "-++"}, False),
    (CheckpointMeta, "best_val_f1", {0: "-++", 1: "++-"}, True),
    (CheckpointMeta, "best_val_step", {0: "-++"}, False),
    (CheckpointMeta, "gen_opt_step", {0: "-++"}, False),
    (CheckpointMeta, "disc_opt_step", {0: "-++"}, False),
    (SynthConfig, "n_videos", {1: "-++"}, False),
    (SynthConfig, "n_shots", {1: "-++"}, False),
    (SynthConfig, "n_concepts", {4: "-++"}, False),
    (SynthConfig, "n_queries", {4: "-++"}, False),
    (SynthConfig, "d_frame", {1: "-++"}, False),
    (SynthConfig, "d_shot", {1: "-++"}, False),
    (SynthConfig, "d_text", {1: "-++"}, False),
    (SynthConfig, "relevance_strength", {0: "-++"}, True),
    (GeneratorConfig, "d_frame", {1: "-++"}, False),
    (GeneratorConfig, "d_shot", {1: "-++"}, False),
    (GeneratorConfig, "d_text", {1: "-++"}, False),
    (GeneratorConfig, "d_fused", {1: "-++"}, False),
    (GeneratorConfig, "d_qenc", {1: "-++"}, False),
    (GeneratorConfig, "d_h", {1: "-++"}, False),
    (GeneratorConfig, "d_pred", {1: "-++"}, False),
    (GeneratorConfig, "tau", {0: "--+"}, False),
    (GeneratorConfig, "dropout_p", {0: "-++", 1: "+--"}, True),
    (DiscriminatorConfig, "d_summ_in", {1: "-++"}, False),
    (DiscriminatorConfig, "d_vid_in", {1: "-++"}, False),
    (DiscriminatorConfig, "d_h", {1: "-++"}, False),
    (DiscriminatorConfig, "d_fc1", {1: "-++"}, False),
    (DiscriminatorConfig, "d_fc2", {1: "-++"}, False),
    (DiscriminatorConfig, "d_fc3", {1: "-++"}, False),
]
META_FIELDS = dict(step=0, best_val_f1=0.0, best_val_step=0, gen_opt_step=0, disc_opt_step=0)
RECORDS = (TrainConfig, CheckpointMeta, SynthConfig, GeneratorConfig, DiscriminatorConfig)


def _field_kinds(record) -> dict:
    return {f.name: getattr(f.type, "__name__", f.type) for f in dataclasses.fields(record)}


def make_record(record, **fields):
    return record(**{**(META_FIELDS if record is CheckpointMeta else {}), **fields})


def _boundary_cases():
    for record, field, edges, neg_zero in BOUNDARY_TABLE:
        is_int = _field_kinds(record)[field] == "int"
        for bound, accepted in edges.items():
            b = float(bound)
            values = ((bound - 1, bound, bound + 1) if is_int else
                      (float(np.nextafter(b, -np.inf)), b, float(np.nextafter(b, np.inf))))
            for value, mark in zip(values, accepted):
                yield pytest.param(record, field, value, mark == "+",
                                   id=f"{record.__name__}-{field}={value!r}")
        yield pytest.param(record, field, -0.0, neg_zero, id=f"{record.__name__}-{field}=-0.0")


class TestFieldBounds:
    """Each int and float field declares its range beside it, and the
    range holds exactly at its edges."""

    @pytest.mark.parametrize("record, field, value, accepted", list(_boundary_cases()))
    def test_boundary_table(self, record, field, value, accepted):
        if accepted:
            assert getattr(make_record(record, **{field: value}), field) == value
        else:
            with pytest.raises(ConfigError):
                make_record(record, **{field: value})

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
    def test_ranges_are_declared_beside_the_fields(self, record):
        numeric = {n for n, kind in _field_kinds(record).items() if kind in ("int", "float")}
        assert numeric == {field for r, field, _, _ in BOUNDARY_TABLE if r is record}
        assert all("bounds" in f.metadata for f in dataclasses.fields(record)
                   if f.name in numeric)
        tree = ast.parse(textwrap.dedent(inspect.getsource(record.__post_init__)))
        ops = [op for n in ast.walk(tree) if isinstance(n, ast.Compare) for op in n.ops]
        assert not any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in ops)

    @pytest.mark.parametrize("record, fields, message", [
        (TrainConfig, {"lr_critic": 0.0}, "train: lr_critic must be > 0, got 0.0"),
        (TrainConfig, {"decay": 1.0}, "train: decay must be in (0, 1), got 1.0"),
        (TrainConfig, {"eval_every": -1}, "train: eval_every must be >= 0, got -1"),
        (GeneratorConfig, {"dropout_p": 1.0}, "generator: dropout_p must be in [0, 1), got 1.0"),
        (SynthConfig, {"n_queries": 3}, "synth: n_queries must be >= 4, got 3"),
        (CheckpointMeta, {"best_val_f1": 1.5}, "meta: best_val_f1 must be in [0, 1], got 1.5"),
        # every type is checked before any bound
        (CheckpointMeta, {"step": -1, "best_val_f1": float("nan")},
         "meta: best_val_f1 must be finite float, got nan"),
    ], ids=["gt", "open", "ge", "half-open", "ge-4", "closed", "type-first"])
    def test_message_form(self, record, fields, message):
        with pytest.raises(ConfigError) as e:
            make_record(record, **fields)
        assert str(e.value) == message


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
                summary_repr(fwd.f_eq, batch.gt[None]),
                summary_repr(fwd.f_eq, fwd.s),
                summary_repr(fwd.f_eq, np.ones((1, batch.length))),
            ]
            d_g, d_q, d_r = critic_scores(summs, fwd.f_vq, self.dparams)
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
                summary_repr(fwd.f_eq, fwd.s),
                fwd.f_vq, self.dparams,
            )
            total = mul(d_q, -0.5) + loss_summ(fwd.s, batch.gt[None]) + loss_length(fwd.k, batch.gamma)
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
                summary_repr(fwd.f_eq, fwd.s),
                fwd.f_vq, self.dparams,
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
                summary_repr(fwd.f_eq, fwd.s),
                fwd.f_vq, self.dparams,
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

    def test_summaries_per_update(self, mini_corpus, monkeypatch):
        counts = []

        def recording(summs, *args):
            counts.append(len(summs))
            return critic_scores(summs, *args)

        # the critic phase calls critic_scores directly, the generator's critic through it
        monkeypatch.setattr(training, "critic_scores", recording)
        monkeypatch.setattr(discriminator, "critic_scores", recording)
        for omega, per_critic_update in ((0.5, 3), (0.99, 3), (1.0, 2)):
            counts.clear()
            cfg = dataclasses.replace(MINI_TRAIN, omega=omega)
            train(mini_corpus, cfg, gen_cfg=MINI_GEN)
            assert counts == ([per_critic_update] * cfg.n_critic + [1]) * cfg.max_steps

    def test_two_player_never_draws_random(self, mini_corpus):
        initial = RngHub(MINI_TRAIN.seed).state()["streams"]["random-summary"]
        three = train(mini_corpus, MINI_TRAIN, gen_cfg=MINI_GEN).checkpoint
        cfg = dataclasses.replace(MINI_TRAIN, omega=1.0)
        two = train(mini_corpus, cfg, gen_cfg=MINI_GEN).checkpoint
        assert two.rng_state["streams"]["random-summary"] == initial
        assert three.rng_state["streams"]["random-summary"] != initial

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

    def test_ablations_zero_their_columns(self, mini_corpus, monkeypatch):
        # a term whose lambda is 0 is skipped, not computed and scaled by 0
        calls = []

        def counting(name):
            fn = getattr(training, name)
            return lambda *args: calls.append(name) or fn(*args)

        for name in ("loss_summ", "loss_length"):
            monkeypatch.setattr(training, name, counting(name))
        no_len = train(
            mini_corpus, dataclasses.replace(MINI_TRAIN, lambda_len=0.0), gen_cfg=MINI_GEN
        )
        assert all(r.loss_length == 0.0 for r in no_len.metrics)
        assert any(r.loss_summ != 0.0 for r in no_len.metrics)
        no_summ = train(
            mini_corpus, dataclasses.replace(MINI_TRAIN, lambda_summ=0.0), gen_cfg=MINI_GEN
        )
        assert all(r.loss_summ == 0.0 for r in no_summ.metrics)
        steps = MINI_TRAIN.max_steps
        assert calls == ["loss_summ"] * steps + ["loss_length"] * steps

    def test_nan_abort_names_step(self, mini_corpus):
        from qsumm.generator import init_generator_params

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

    def test_video_without_queries_never_sampled(self, mini_corpus, monkeypatch):
        corpus = dataclasses.replace(
            mini_corpus,
            videos=[dataclasses.replace(v, queries=[]) if v.video_id == "v001" else v
                    for v in mini_corpus.videos],
            splits={**mini_corpus.splits, "train": ["v000", "v001"]},
        )
        sampled = []

        def recording(*args, **kwargs):
            batch = sample_batch(*args, **kwargs)
            sampled.append(batch.video_id)
            return batch

        monkeypatch.setattr(training, "sample_batch", recording)
        res = train(corpus, MINI_TRAIN, gen_cfg=MINI_GEN)
        assert res.checkpoint.step == MINI_TRAIN.max_steps
        assert sampled == ["v000"] * (MINI_TRAIN.n_critic + 1) * MINI_TRAIN.max_steps

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


    def test_generator_tape_nodes_pinned(self, monkeypatch):
        """Each recipe generator step records 58 tape nodes: the one
        summary's critic value is reshaped to a scalar, not sliced first,
        and the visual FC and its join with the query are one node."""
        corpus = synth_corpus(SynthConfig(), seed=9)
        gen_cfg = GeneratorConfig(d_frame=corpus.dims["d_frame"], d_shot=corpus.dims["d_shot"],
                                  d_text=corpus.dims["d_text"], dropout_p=0.2)
        cfg = TrainConfig(seed=0, max_steps=3, n_critic=1, lr_gen=1e-3, lr_critic=1e-3,
                          segment_len=60)
        nodes, inside = [], []
        real_backward, real_update = Tape.backward, training._generator_update

        def backward(tape, loss):
            if inside:
                nodes.append(len(tape.nodes))
            return real_backward(tape, loss)

        def update(*args, **kwargs):
            inside.append(1)
            try:
                return real_update(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(Tape, "backward", backward)
        monkeypatch.setattr(training, "_generator_update", update)
        train(corpus, cfg, gen_cfg=gen_cfg)
        assert nodes == [58] * 3


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

    def test_repeated_section_rejected(self, mini_checkpoint, tmp_path):
        # a second meta section appended at step 999 must not replace the first
        path = tmp_path / "g.qsck"
        write_repeated_meta(mini_checkpoint, path)
        for load in (load_checkpoint, load_generator):
            with pytest.raises(FormatError, match="repeated checkpoint section 'meta'"):
                load(path)


# The checkpoint writer and the whole-buffer reader as they were before
# save and load streamed section by section, kept as the byte-level and
# state-level reference for the streaming code.  The writer still emits
# the older versions: the generator's and the critic's running stats,
# now given by the caller as key -> (mean, var), go to gstats/* and
# dstats/* sections, and the caller names the version.  The reader
# accepts versions 1 to 3 and, like the loader, reads neither.


def _config_json(cfg) -> bytes:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    return arr if arr.ndim == 2 else arr.reshape(1, arr.size)


def reference_sections_of(ckpt: Checkpoint, gen_stats: dict, disc_stats: dict):
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
        yield f"gparam/{key}", qsfm_bytes(_as_matrix(t.data), version=2)
    for key, (mean, var) in gen_stats.items():
        yield f"gstats/{key}/mean", qsfm_bytes(_as_matrix(mean), version=2)
        yield f"gstats/{key}/var", qsfm_bytes(_as_matrix(var), version=2)
    for key, t in ckpt.disc_params.tensors().items():
        yield f"dparam/{key}", qsfm_bytes(_as_matrix(t.data), version=2)
    for key, (mean, var) in disc_stats.items():
        yield f"dstats/{key}/mean", qsfm_bytes(_as_matrix(mean), version=2)
        yield f"dstats/{key}/var", qsfm_bytes(_as_matrix(var), version=2)
    for key, acc in ckpt.gen_opt.acc.items():
        yield f"gopt/acc/{key}", qsfm_bytes(_as_matrix(acc), version=2)
    for key, acc in ckpt.disc_opt.acc.items():
        yield f"dopt/acc/{key}", qsfm_bytes(_as_matrix(acc), version=2)
    yield "rng", json.dumps(ckpt.rng_state, sort_keys=True).encode("utf-8")


def reference_save_checkpoint(ckpt: Checkpoint, path, version: int, gen_stats: dict,
                              disc_stats: dict) -> None:
    """Write the full training state, atomically."""
    sections = list(reference_sections_of(ckpt, gen_stats, disc_stats))
    blob = bytearray(_FILE_HEAD.pack(CHECKPOINT_MAGIC, version, len(sections)))
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
    if not 1 <= version <= CHECKPOINT_VERSION:
        raise VersionError(
            f"{source}: checkpoint version {version} unsupported "
            f"(expected 1 to {CHECKPOINT_VERSION})"
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


def write_sections(path, sections) -> None:
    """Write sections, a name -> payload dict or a list of (name, payload)
    pairs that may repeat a name, as a QSCK file, in order."""
    pairs = list(sections.items() if isinstance(sections, dict) else sections)
    blob = bytearray(_FILE_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(pairs)))
    for name, payload in pairs:
        blob += _SECTION_HEAD.pack(len(name.encode())) + name.encode()
        blob += _PAYLOAD_HEAD.pack(len(payload)) + payload
    path.write_bytes(bytes(blob))


def write_repeated_meta(ckpt, path) -> None:
    """ckpt saved to path with a second meta section, at step 999, appended."""
    save_checkpoint(ckpt, path)
    sections = reference_read_sections(path.read_bytes(), "ckpt")
    meta = dict(json.loads(sections["meta"]), step=999)
    write_sections(path, [*sections.items(), ("meta", json.dumps(meta).encode())])


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


def stand_in_stats(widths: dict, seed) -> dict:
    """Running stats as an older file held them, made up: key -> (mean, var)."""
    rng = np.random.default_rng(seed)
    return {key: (rng.standard_normal(d), rng.uniform(0.5, 2.0, d)) for key, d in widths.items()}


def write_old(ckpt, path, version: int) -> None:
    """A version 1 file (generator and critic stats) or 2 (critic stats only)."""
    gen = {"enc_bn": 2 * ckpt.gen_cfg.d_h, "pred_bn": ckpt.gen_cfg.d_pred}
    disc = {"summ_bn": 2 * ckpt.disc_cfg.d_h, "vid_bn": 2 * ckpt.disc_cfg.d_h}
    reference_save_checkpoint(ckpt, path, version,
                              stand_in_stats(gen, seed=0) if version == 1 else {},
                              stand_in_stats(disc, seed=1))


class TestCheckpointAgainstReference:
    def test_save_equals_reference_writer(self, mini_checkpoint, tmp_path):
        # version 3 is version 1 without the gstats/* and dstats/* sections
        save_checkpoint(mini_checkpoint, tmp_path / "a.qsck")
        write_old(mini_checkpoint, tmp_path / "b.qsck", version=1)
        sections = reference_read_sections((tmp_path / "b.qsck").read_bytes(), "v1")
        stats = ("gstats/", "dstats/")
        assert {name[:7] for name in sections if name.startswith(stats)} == set(stats)
        write_sections(tmp_path / "b3.qsck", {
            name: payload for name, payload in sections.items() if not name.startswith(stats)
        })
        assert (tmp_path / "a.qsck").read_bytes() == (tmp_path / "b3.qsck").read_bytes()
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
    def test_generator_load_through_scratch(
            self, mini_checkpoint, tmp_path, monkeypatch, scratch_bytes):
        # 64 bytes of scratch split most critic and optimizer tensors into
        # several chunks
        monkeypatch.setattr(training, "_SCRATCH_BYTES", scratch_bytes)
        path = tmp_path / "a.qsck"
        save_checkpoint(mini_checkpoint, path)
        assert bits(load_generator(path)) == bits(load_checkpoint(path).gen_params)

    @pytest.mark.parametrize("name", ["gparam/fuse_w", "dparam/out_w", "gopt/acc/fuse_w"])
    def test_float32_section_rejected(
            self, mini_checkpoint, tmp_path, monkeypatch, name):
        # every writer stores float64, and a float32 copy of the state
        # could not resume bit-exactly
        path = tmp_path / "a.qsck"
        save_checkpoint(mini_checkpoint, path)
        sections = reference_read_sections(path.read_bytes(), "ckpt")
        sections[name] = qsfm_bytes(matrix_from_bytes(sections[name]), version=1)
        write_sections(path, sections)

        def allocate(*args):
            raise AssertionError("arrays allocated before every section was checked")

        monkeypatch.setattr(training, "init_generator_params", allocate)
        for load in (load_checkpoint, load_generator):
            with pytest.raises(FormatError, match=f"section '{name}' holds <f4 values"):
                load(path)

    @pytest.mark.parametrize("name", ["dparam/out_w", "dopt/acc/fc1_w", "gopt/acc/fuse_w",
                                      "gparam/fuse_w"])
    def test_non_finite_training_state_rejected_by_both_loaders(
            self, mini_checkpoint, tmp_path, monkeypatch, name):
        monkeypatch.setattr(training, "_SCRATCH_BYTES", 64)
        path = tmp_path / "a.qsck"
        save_checkpoint(mini_checkpoint, path)
        sections = reference_read_sections(path.read_bytes(), "ckpt")
        m = matrix_from_bytes(sections[name])
        m.flat[-1] = np.inf  # the last value sits in the last scratch chunk
        sections[name] = qsfm_bytes(m, version=2)
        write_sections(path, sections)
        for load in (load_checkpoint, load_generator):
            with pytest.raises(FormatError, match=name):
                load(path)

    def test_generator_load_holds_no_whole_array_mask(self, tmp_path, monkeypatch):
        # fuse_w's 512 Ki values would need a 512 KiB finiteness mask if
        # checked whole; in chunks the load holds the scratch buffer and
        # one chunk's mask above what it keeps
        scratch = 256 << 10
        monkeypatch.setattr(training, "_SCRATCH_BYTES", scratch)
        gen_cfg = dataclasses.replace(MINI_GEN, d_frame=256, d_shot=256, d_fused=1024)
        disc_cfg = DiscriminatorConfig.for_generator(gen_cfg)
        path = tmp_path / "wide.qsck"
        save_checkpoint(training._initial_state(MINI_TRAIN, gen_cfg, disc_cfg), path)
        tracemalloc.start()
        try:
            gparams = load_generator(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gparams.fuse_w.data.size > scratch
        assert peak - kept < 2 * scratch, (peak - kept) / scratch


class TestCheckpointV1:
    """Version 1 and 2 files, with their running stats sections, still
    load and resume."""

    def test_v1_loads_to_the_v2_state(self, mini_checkpoint, tmp_path):
        # ... and both load to the state of the version 3 file
        paths = [tmp_path / f"v{v}.qsck" for v in (1, 2, 3)]
        write_old(mini_checkpoint, paths[0], version=1)
        write_old(mini_checkpoint, paths[1], version=2)
        save_checkpoint(mini_checkpoint, paths[2])
        assert [p.read_bytes()[4] for p in paths] == [1, 2, 3]
        v3 = bits(load_checkpoint(paths[2]))
        assert v3 == bits(mini_checkpoint)
        for path in paths[:2]:
            assert bits(load_checkpoint(path)) == v3
            assert bits(load_generator(path)) == bits(load_generator(paths[2]))

    @staticmethod
    def resume_from_old(mini_corpus, tmp_path, version):
        full_dir, split_dir = tmp_path / "full", tmp_path / "split"
        train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=4),
              gen_cfg=MINI_GEN, out_dir=full_dir)
        half = train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=2),
                     gen_cfg=MINI_GEN, out_dir=split_dir)
        write_old(half.checkpoint, tmp_path / "old.qsck", version)
        ckpt = load_checkpoint(tmp_path / "old.qsck")
        train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=4),
              out_dir=split_dir, resume=ckpt)
        assert (full_dir / "metrics.csv").read_bytes() == (split_dir / "metrics.csv").read_bytes()
        assert (full_dir / "checkpoint.qsck").read_bytes() == (
            split_dir / "checkpoint.qsck").read_bytes()

    def test_resume_from_v1_logs_identical_metrics(self, mini_corpus, tmp_path):
        self.resume_from_old(mini_corpus, tmp_path, version=1)

    def test_resume_from_v2_logs_identical_metrics(self, mini_corpus, tmp_path):
        self.resume_from_old(mini_corpus, tmp_path, version=2)

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


def with_json_fields(ckpt, path, section: str, **fields):
    """Save ckpt to path with fields set in one JSON section."""
    save_checkpoint(ckpt, path)
    sections = reference_read_sections(path.read_bytes(), "ckpt")
    edited = {**json.loads(sections[section]), **fields}
    sections[section] = json.dumps(edited, sort_keys=True).encode("utf-8")
    write_sections(path, sections)
    return path


class TestCheckpointFieldTypes:
    """Each value of the meta and cfg/* sections is checked against its
    record's annotation and range; both loaders raise FormatError."""

    @pytest.mark.parametrize("section, fields, message", [
        ("meta", {"step": 2.9}, "step must be int"),
        ("meta", {"step": "7"}, "step must be int"),
        ("meta", {"step": True}, "step must be int"),
        ("meta", {"best_val_f1": float("nan")}, "best_val_f1 must be finite"),
        ("meta", {"best_val_f1": 1.5}, r"best_val_f1 must be in \[0, 1\]"),
        ("meta", {"gen_opt_step": -1}, "gen_opt_step must be >= 0"),
        ("meta", {"format": "other"}, "unexpected format tag"),
        ("cfg/train", {"max_steps": 2.5}, "max_steps must be int"),
        ("cfg/gen", {"d_h": 0}, "d_h must be >= 1"),
        ("cfg/gen", {"dropout_p": True}, "dropout_p must be finite"),
    ], ids=["meta-float-step", "meta-str-step", "meta-bool-step", "meta-nan-f1",
            "meta-f1-above-1", "meta-negative-opt-step", "meta-format", "train-float-int",
            "gen-zero-width", "gen-bool-float"])
    def test_bad_field_is_format_error(self, mini_checkpoint, tmp_path, section, fields,
                                       message):
        path = with_json_fields(mini_checkpoint, tmp_path / "bad.qsck", section, **fields)
        for load in (load_checkpoint, load_generator):
            with pytest.raises(FormatError, match=f"'{section}': .*{message}"):
                load(path)

    def test_any_json_value_loads_or_raises_format_error(self, mini_checkpoint, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = tmp_path / "drawn.qsck"
        save_checkpoint(mini_checkpoint, path)
        base = reference_read_sections(path.read_bytes(), "ckpt")
        keys = [(section, key) for section in ("meta", "cfg/train", "cfg/gen", "cfg/disc")
                for key in json.loads(base[section])]

        @hypothesis.settings(max_examples=200, deadline=None, database=None,
                             suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(key=st.sampled_from(keys), value=json_values(st))
        def check(key, value):
            section, name = key
            sections = dict(base)
            edited = {**json.loads(base[section]), name: value}
            sections[section] = json.dumps(edited).encode("utf-8")
            write_sections(path, sections)
            for load in (load_checkpoint, load_generator):
                try:
                    load(path)
                except FormatError:
                    pass

        check()


class TestLegacyAblationFlags:
    """A version 3 cfg/train written while the ablations were the flags
    no_length, no_summ and two_player loads with each true flag as its
    ABLATIONS weights."""

    FLAGS = {"no_length": "no-length", "no_summ": "no-summ", "two_player": "two-player"}

    @pytest.mark.parametrize("on", [None, *FLAGS], ids=["all-false", *FLAGS])
    def test_flags_load_as_weights(self, mini_checkpoint, tmp_path, on):
        flags = {flag: flag == on for flag in self.FLAGS}
        path = with_json_fields(mini_checkpoint, tmp_path / "old.qsck", "cfg/train", **flags)
        weights = ABLATIONS[self.FLAGS[on]] if on else {}
        want = dataclasses.replace(
            mini_checkpoint,
            train_cfg=dataclasses.replace(mini_checkpoint.train_cfg, **weights))
        assert bits(load_checkpoint(path)) == bits(want)
        assert bits(load_generator(path)) == bits(mini_checkpoint.gen_params)

    @pytest.mark.parametrize("value", [1, None, "true"], ids=["int", "null", "str"])
    def test_non_bool_flag_is_format_error(self, mini_checkpoint, tmp_path, value):
        path = with_json_fields(mini_checkpoint, tmp_path / "bad.qsck", "cfg/train",
                                no_length=value)
        for load in (load_checkpoint, load_generator):
            with pytest.raises(FormatError, match="'cfg/train': .*no_length must be bool"):
                load(path)


class TestCheckpointSizes:
    def _with_gen_cfg(self, mini_checkpoint, tmp_path, **fields):
        return with_json_fields(mini_checkpoint, tmp_path / "dims.qsck", "cfg/gen", **fields)

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

    def test_corpus_dims_checked_on_resume(self, mini_corpus, tmp_path):
        result = train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=2),
                       gen_cfg=MINI_GEN)
        wider = synth_corpus(dataclasses.replace(MINI_SYNTH, d_text=7), seed=11)
        cfg = dataclasses.replace(MINI_TRAIN, max_steps=4)
        with pytest.raises(ConfigError, match="d_text=6 does not match corpus d_text=7"):
            train(wider, cfg, out_dir=tmp_path, resume=result.checkpoint)
        assert not os.path.exists(tmp_path / "metrics.csv")

    def test_critic_widths_checked_on_resume(self, mini_corpus, tmp_path):
        # a resume resolves its checkpoint's configs as a fresh run does
        ckpt = train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=2),
                     gen_cfg=MINI_GEN).checkpoint
        wide = dataclasses.replace(ckpt.disc_cfg, d_vid_in=ckpt.disc_cfg.d_vid_in + 1)
        cfg = dataclasses.replace(MINI_TRAIN, max_steps=4)
        with pytest.raises(ConfigError, match="discriminator branch widths"):
            train(mini_corpus, cfg, out_dir=tmp_path,
                  resume=dataclasses.replace(ckpt, disc_cfg=wide))
        assert not os.path.exists(tmp_path / "metrics.csv")

    def test_tau_conflict_on_resume_rejected(self, mini_corpus, tmp_path):
        result = train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=2),
                       gen_cfg=MINI_GEN)
        assert result.checkpoint.gen_cfg.tau == 0.1
        cfg = dataclasses.replace(MINI_TRAIN, max_steps=4, tau=0.5)
        with pytest.raises(ConfigError, match="generator tau 0.1 conflicts with training tau 0.5"):
            train(mini_corpus, cfg, out_dir=tmp_path, resume=result.checkpoint)
        assert not os.path.exists(tmp_path / "checkpoint.qsck")

    def test_model_configs_differing_from_the_checkpoint_rejected(self, mini_corpus, tmp_path):
        ckpt = train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=2),
                     gen_cfg=MINI_GEN).checkpoint
        cfg = dataclasses.replace(MINI_TRAIN, max_steps=4)
        wider = dataclasses.replace(MINI_GEN, d_h=10, dropout_p=0.1)
        with pytest.raises(ConfigError, match="d_h=10.*differs from the checkpoint's Gen"):
            train(mini_corpus, cfg, gen_cfg=wider, out_dir=tmp_path, resume=ckpt)
        wide = dataclasses.replace(ckpt.disc_cfg, d_h=ckpt.disc_cfg.d_h + 1)
        with pytest.raises(ConfigError, match="differs from the checkpoint's Disc"):
            train(mini_corpus, cfg, disc_cfg=wide, out_dir=tmp_path, resume=ckpt)
        assert not os.path.exists(tmp_path / "metrics.csv")
        assert ckpt.step == 2
        # equal configs pass, as a caller that hands them to every leg does
        train(mini_corpus, cfg, gen_cfg=MINI_GEN, disc_cfg=ckpt.disc_cfg, resume=ckpt)
        assert ckpt.step == 4

    def test_resume_advances_the_given_checkpoint(self, mini_corpus):
        cfg = dataclasses.replace(MINI_EVAL, max_steps=4)
        full = train(mini_corpus, cfg, gen_cfg=MINI_GEN).checkpoint
        ckpt = train(mini_corpus, dataclasses.replace(cfg, max_steps=2), gen_cfg=MINI_GEN).checkpoint
        assert train(mini_corpus, cfg, resume=ckpt).checkpoint is ckpt
        assert ckpt.step == 4 and ckpt.train_cfg == cfg
        assert ckpt.rng_state == full.rng_state
        assert (ckpt.best_val_f1, ckpt.best_val_step) == (full.best_val_f1, full.best_val_step)

    def test_max_steps_below_checkpoint_step_rejected(self, mini_corpus, tmp_path):
        ckpt = train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=4),
                     gen_cfg=MINI_GEN).checkpoint
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="max_steps 2 is below the checkpoint's step 4"):
            train(mini_corpus, dataclasses.replace(MINI_TRAIN, max_steps=2), out_dir=out,
                  resume=ckpt)
        assert not out.exists()
        assert ckpt.step == 4

    def test_resume_drops_log_rows_past_its_step(self, mini_corpus, tmp_path):
        cfg = dataclasses.replace(MINI_TRAIN, max_steps=4)
        train(mini_corpus, cfg, gen_cfg=MINI_GEN, out_dir=tmp_path / "a")
        uninterrupted = (tmp_path / "a" / "metrics.csv").read_bytes()
        half = train(mini_corpus, dataclasses.replace(cfg, max_steps=2), gen_cfg=MINI_GEN)
        train(mini_corpus, cfg, out_dir=tmp_path / "a", resume=half.checkpoint)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == uninterrupted

    def test_fresh_run_starts_the_log_over(self, mini_corpus, tmp_path):
        cfg = dataclasses.replace(MINI_TRAIN, max_steps=2)
        train(mini_corpus, cfg, gen_cfg=MINI_GEN, out_dir=tmp_path / "a")
        first = (tmp_path / "a" / "metrics.csv").read_bytes()
        train(mini_corpus, dataclasses.replace(cfg, max_steps=4), gen_cfg=MINI_GEN,
              out_dir=tmp_path / "a")
        train(mini_corpus, cfg, gen_cfg=MINI_GEN, out_dir=tmp_path / "a")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == first

    def test_periodic_checkpoints_written(self, mini_corpus, tmp_path):
        cfg = dataclasses.replace(MINI_TRAIN, max_steps=4, checkpoint_every=2)
        train(mini_corpus, cfg, gen_cfg=MINI_GEN, out_dir=tmp_path)
        assert os.path.exists(tmp_path / "checkpoint.qsck")


class TestValidation:
    # Seed 0's mean val F1 only falls after step 1 (measured through step
    # 600), so no run length shows selection; seed 2's peaks at step 4 of
    # 6.  The split run takes both: seed 0's best falls before its split
    # at step 2, seed 2's after it.
    RUN = dataclasses.replace(MINI_EVAL, seed=2)

    def test_best_val_is_the_best_replayed_evaluation(self, mini_corpus, tmp_path):
        run = self.RUN
        result = train(mini_corpus, run, gen_cfg=MINI_GEN, out_dir=tmp_path)
        # replay the run one step at a time, scoring val after each eval
        # step at every grid threshold, one evaluate call each
        best_f1, best_step, best_params, state = 0.0, 0, None, None
        for step in range(1, run.max_steps + 1):
            cfg = dataclasses.replace(run, max_steps=step, eval_every=0)
            state = train(mini_corpus, cfg, gen_cfg=MINI_GEN, resume=state).checkpoint
            if step % run.eval_every == 0:
                f1 = float(np.mean([evaluate(state.gen_params, mini_corpus, "val",
                                             threshold=t).f1 for t in THRESHOLD_GRID]))
                if f1 > best_f1:
                    best_params = {k: t.data.copy()
                                   for k, t in state.gen_params.tensors().items()}
                    best_f1, best_step = f1, step
        # the best is neither the first nor the last step, so selection shows
        assert 1 < best_step < run.max_steps
        assert (result.checkpoint.best_val_f1, result.checkpoint.best_val_step) == (
            best_f1, best_step)

        saved = load_checkpoint(tmp_path / "checkpoint_best.qsck")
        assert saved.step == saved.best_val_step == best_step
        assert saved.best_val_f1 == best_f1
        for k, t in saved.gen_params.tensors().items():
            assert np.array_equal(t.data, best_params[k])

    @pytest.mark.parametrize("seed", [0, 2])
    def test_split_run_writes_the_same_checkpoints(self, mini_corpus, tmp_path, seed):
        run = dataclasses.replace(self.RUN, seed=seed)
        full, split = tmp_path / "full", tmp_path / "split"
        train(mini_corpus, run, gen_cfg=MINI_GEN, out_dir=full)
        train(mini_corpus, dataclasses.replace(run, max_steps=2), gen_cfg=MINI_GEN,
              out_dir=split)
        ckpt = load_checkpoint(split / "checkpoint.qsck")
        train(mini_corpus, run, out_dir=split, resume=ckpt)
        for name in ("metrics.csv", "checkpoint.qsck", "checkpoint_best.qsck"):
            assert (split / name).read_bytes() == (full / name).read_bytes(), name
        best = load_checkpoint(full / "checkpoint_best.qsck")
        assert best.train_cfg == dataclasses.replace(run, max_steps=best.step)

    @pytest.mark.parametrize("splits, error", [
        ({"train": ["v000"], "test": ["v002"]}, ConfigError),
        ({"train": ["v000"], "val": [], "test": ["v002"]}, ContractError),
        ({"val": ["v001"], "test": ["v002"]}, ConfigError),
        ({"train": [], "val": ["v001"], "test": ["v002"]}, ContractError),
    ], ids=["no-val", "empty-val", "no-train", "empty-train"])
    def test_missing_split_writes_nothing(self, mini_corpus, tmp_path, splits, error):
        corpus = dataclasses.replace(mini_corpus, splits=splits)
        cfg = dataclasses.replace(MINI_TRAIN, eval_every=3)
        with pytest.raises(error):
            train(corpus, cfg, gen_cfg=MINI_GEN, out_dir=tmp_path / "run")
        assert not os.path.exists(tmp_path / "run")
