"""Package-level acceptance checks, one test per headline property.

Covered in order: gradient trustworthiness of every building block, the
gate's closed-form algebra, exactness of the matcher against brute
force, metric behavior at its bounds, end-to-end learning on the
planted corpus, the length-regularizer study, the ablation ordering
study, and byte-level reproducibility of training runs.

The learning tests pin their own recipe (corpus seed, learning rates,
critic steps, dropout, validation interval); library defaults
stay at the conservative values.  Budgets: the gradient suite must
finish under 2 minutes, the matcher comparison under 30 seconds, and
the main training run under 10 minutes.
"""

import math
import os
import time

import numpy as np
import pytest

from test_evaluation import brute_force_best
from qsumm.dataset import SynthConfig, embed_query, synth_corpus
from qsumm.discriminator import DiscriminatorConfig
from qsumm.evaluation import evaluate, evaluate_grid, max_weight_matching
from qsumm.generator import GeneratorConfig, g_g_gate, generator_forward
from qsumm.gradcheck import SUITE_TOLERANCE, component_suite
from qsumm.training import (
    ABLATIONS,
    THRESHOLD_GRID,
    TrainConfig,
    load_checkpoint,
    load_generator,
    train,
)

# Recipe for the learning tests.  The corpus seed and hyperparameters
# are pinned so the runs are reproducible; dropout is mild, the learning
# rate is aggressive because the desk-scale nets are tiny, and a single
# critic update per generator step is enough at clip 0.01.  Training
# scores val every EVAL_EVERY steps, and the library keeps the step with
# the best mean F1 across its threshold grid in checkpoint_best.qsck.
CORPUS_SEED = 9
TRAIN_SEED = 0
EVAL_EVERY = 100
MAX_STEPS = 2000
RECIPE = dict(
    n_critic=1,
    lr_gen=1e-3,
    lr_critic=1e-3,
    segment_len=60,
)
DROPOUT_P = 0.2


def _desk_gen_cfg(corpus) -> GeneratorConfig:
    return GeneratorConfig(
        d_frame=corpus.dims["d_frame"],
        d_shot=corpus.dims["d_shot"],
        d_text=corpus.dims["d_text"],
        dropout_p=DROPOUT_P,
    )


def _val_tuned_threshold(params, corpus) -> float:
    """Pick the decision threshold on the validation split only."""
    scored = [(r.f1, r.threshold) for r in evaluate_grid(params, corpus, "val", THRESHOLD_GRID)]
    return max(scored)[1]


def _train_selected(corpus, out_dir):
    """Train with the library's validation-based checkpoint selection.

    Returns (selected generator params, step the selection landed on,
    wall seconds).
    """
    gen_cfg = _desk_gen_cfg(corpus)
    t0 = time.perf_counter()
    result = train(
        corpus,
        TrainConfig(seed=TRAIN_SEED, max_steps=MAX_STEPS, eval_every=EVAL_EVERY, **RECIPE),
        gen_cfg=gen_cfg,
        disc_cfg=DiscriminatorConfig.for_generator(gen_cfg),
        out_dir=out_dir,
    )
    wall = time.perf_counter() - t0
    params = load_generator(os.path.join(out_dir, "checkpoint_best.qsck"))
    return params, result.checkpoint.best_val_step, wall


@pytest.fixture(scope="module")
def accept_corpus():
    return synth_corpus(SynthConfig(), seed=CORPUS_SEED)


@pytest.fixture(scope="module")
def trained_full(accept_corpus, tmp_path_factory):
    return _train_selected(accept_corpus, str(tmp_path_factory.mktemp("trained_full")))


@pytest.fixture(scope="module")
def trained_no_length(accept_corpus, trained_full):
    # The ablation trains without the length term for exactly as many
    # steps as the full model's selected checkpoint, so the pair is
    # compared at an identical training budget.
    _, steps, _ = trained_full
    gen_cfg = _desk_gen_cfg(accept_corpus)
    disc_cfg = DiscriminatorConfig.for_generator(gen_cfg)
    result = train(
        accept_corpus,
        TrainConfig(
            seed=TRAIN_SEED, max_steps=steps, **ABLATIONS["no-length"], **RECIPE
        ),
        gen_cfg=gen_cfg,
        disc_cfg=disc_cfg,
    )
    return result.checkpoint.gen_params


class TestNumericsAcceptance:
    def test_gradient_suite_within_tolerance(self):
        t0 = time.perf_counter()
        errors = component_suite(seed=0)
        wall = time.perf_counter() - t0
        expected = {
            "linear", "sigmoid", "tanh", "relu", "batchnorm", "dropout",
            "lstm-cell", "lstm-sequence", "bilstm",
            "generator", "critic", "generator-critic",
        }
        assert expected <= set(errors)
        for name, err in errors.items():
            assert err < SUITE_TOLERANCE, f"{name}: {err:.3e} >= {SUITE_TOLERANCE}"
        assert wall < 120.0, f"gradient suite took {wall:.1f}s"

    def test_gate_closed_form_and_symmetry(self):
        for tau in (0.05, 0.1, 0.5, 1.0):
            assert float(g_g_gate(np.array([0.5]), tau).data[0]) == 0.5
        s = np.linspace(0.0, 1.0, 101)
        for tau in (0.05, 0.1, 0.5, 1.0):
            k = g_g_gate(s, tau).data
            k_mirror = g_g_gate(1.0 - s, tau).data
            assert np.max(np.abs(k + k_mirror - 1.0)) <= 1e-12
        oracle = 1.0 / (1.0 + math.exp(-10.0))  # sigmoid((2*1-1)/0.1)
        got = float(g_g_gate(np.array([1.0]), 0.1).data[0])
        assert abs(got - 0.9999546) < 1e-6
        assert abs(got - oracle) < 1e-12


class TestMatchingAcceptance:
    def test_matching_equals_enumeration(self):
        rng = np.random.default_rng(3)
        t0 = time.perf_counter()
        for _ in range(200):
            n_gen = int(rng.integers(1, 7))
            n_gt = int(rng.integers(1, 7))
            w = rng.uniform(0.0, 1.0, (n_gen, n_gt))
            w[rng.random((n_gen, n_gt)) < 0.3] = 0.0
            pairs = max_weight_matching(w)
            total = sum(w[i, j] for i, j in pairs)
            best_total, best_count = brute_force_best(w)
            assert abs(total - best_total) < 1e-9
            assert len(pairs) == best_count
        wall = time.perf_counter() - t0
        assert wall < 30.0, f"matching comparison took {wall:.1f}s"


class TestMetricAcceptance:
    def test_metric_bounds_at_extremes(self, accept_corpus):
        for split in ("train", "val", "test"):
            perfect = evaluate(
                None, accept_corpus, split, predict=lambda v, q: q.gt_mask
            )
            assert perfect.f1 == 1.0
            empty = evaluate(
                None, accept_corpus, split,
                predict=lambda v, q: np.zeros(v.n_shots, dtype=np.uint8),
            )
            assert empty.f1 == 0.0
            for row in empty.rows:
                if row.n_gt > 0:
                    assert row.f1 == 0.0


class TestLearningAcceptance:
    def test_planted_corpus_learning(self, accept_corpus, trained_full):
        params, _, wall = trained_full
        threshold = _val_tuned_threshold(params, accept_corpus)
        report = evaluate(params, accept_corpus, "test", threshold=threshold)
        assert report.f1 >= 0.75, f"test F1 {report.f1:.3f} < 0.75"
        assert wall <= 600.0, f"training took {wall:.1f}s"

    def test_length_regularizer_controls_summary_length(
        self, accept_corpus, trained_full, trained_no_length
    ):
        # Length distance in gate units: the mean gate mass over the
        # test queries must sit within 0.05 of the mean key-shot
        # fraction, which is the quantity the length term drives.
        full_params, _, _ = trained_full
        gate_means, gammas = [], []
        for video in accept_corpus.split_videos("test"):
            for q in video.queries:
                fwd = generator_forward(
                    full_params, video.frame_feats, video.shot_feats,
                    embed_query(q, accept_corpus.concepts), train=False,
                )
                gate_means.append(float(fwd.k.data.mean()))
                gammas.append(float(q.gt_mask.mean()))
        length_distance = abs(float(np.mean(gate_means)) - float(np.mean(gammas)))
        assert length_distance <= 0.05, f"|mean(k) - gamma| = {length_distance:.3f}"
        # Dropping the length term must widen the shot-count distance,
        # both models binarized at the library's default threshold.
        d_full = evaluate(full_params, accept_corpus, "test").d
        d_nolen = evaluate(trained_no_length, accept_corpus, "test").d
        assert d_nolen > d_full, f"no-length d {d_nolen:.2f} <= full d {d_full:.2f}"


class TestAblationAcceptance:
    def test_ablation_ordering_over_seeds(self):
        # Four loss configurations, each averaged over five paired
        # (corpus, training seed) draws on small fast corpora.
        synth = SynthConfig(
            n_videos=5, n_shots=24, n_concepts=8, d_frame=12, d_shot=16, d_text=8
        )
        means = {}
        for name, weights in ABLATIONS.items():
            scores = []
            for seed in range(5):
                corpus = synth_corpus(synth, seed=100 + seed)
                cfg = TrainConfig(
                    seed=seed, max_steps=400, n_critic=1, lr_gen=1e-3,
                    lr_critic=1e-3, segment_len=24, **weights,
                )
                result = train(corpus, cfg)
                rep = evaluate(result.checkpoint.gen_params, corpus, "test")
                scores.append(rep.f1)
            means[name] = float(np.mean(scores))
        assert means["none"] >= means["two-player"], means
        assert means["none"] >= means["no-length"], means
        worst = min(means, key=means.get)
        assert worst == "no-summ", means


class TestDeterminismAcceptance:
    def test_seeded_runs_reproduce_byte_identically(self, tmp_path):
        synth = SynthConfig(
            n_videos=3, n_shots=12, n_concepts=6, n_queries=4,
            d_frame=8, d_shot=10, d_text=6,
        )
        corpus = synth_corpus(synth, seed=11)
        gen_cfg = GeneratorConfig(
            d_frame=8, d_shot=10, d_text=6, d_fused=8, d_qenc=4, d_h=6, d_pred=6
        )
        disc_cfg = DiscriminatorConfig.for_generator(gen_cfg)

        def cfg(steps):
            return TrainConfig(
                seed=4, max_steps=steps, n_critic=2, segment_len=8,
                lr_gen=1e-3, lr_critic=1e-3,
            )

        a1 = tmp_path / "straight"
        a2 = tmp_path / "again"
        b = tmp_path / "resumed"
        r1 = train(corpus, cfg(30), gen_cfg=gen_cfg, disc_cfg=disc_cfg, out_dir=str(a1))
        r2 = train(corpus, cfg(30), gen_cfg=gen_cfg, disc_cfg=disc_cfg, out_dir=str(a2))
        train(corpus, cfg(12), gen_cfg=gen_cfg, disc_cfg=disc_cfg, out_dir=str(b))
        ckpt = load_checkpoint(str(b / "checkpoint.qsck"))
        r3 = train(corpus, cfg(30), resume=ckpt, out_dir=str(b))

        straight = (a1 / "metrics.csv").read_bytes()
        assert (a2 / "metrics.csv").read_bytes() == straight
        assert (b / "metrics.csv").read_bytes() == straight

        rep1 = evaluate(r1.checkpoint.gen_params, corpus, "test")
        rep2 = evaluate(r2.checkpoint.gen_params, corpus, "test")
        rep3 = evaluate(r3.checkpoint.gen_params, corpus, "test")
        assert rep1 == rep2 == rep3
