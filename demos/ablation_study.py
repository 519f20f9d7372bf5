"""
Ablating the loss terms
=======================

Trains the four model variants of training.ABLATIONS on one small
corpus and compares held-out F1 and summary-length distance: the full
objective, the two-player game (omega = 1, no random summaries), and
the objective without the length term (lambda_len = 0) or the supervised
score loss (lambda_summ = 0).
"""

import numpy as np

from qsumm.dataset import SynthConfig, synth_corpus
from qsumm.discriminator import DiscriminatorConfig
from qsumm.evaluation import evaluate
from qsumm.generator import GeneratorConfig
from qsumm.training import ABLATIONS, TrainConfig, train

corpus = synth_corpus(
    SynthConfig(n_videos=5, n_shots=24, n_concepts=8, d_frame=16, d_shot=20, d_text=8),
    seed=1,
)
gen_cfg = GeneratorConfig(
    d_frame=16, d_shot=20, d_text=8, d_fused=24, d_qenc=8, d_h=12, d_pred=12
)
disc_cfg = DiscriminatorConfig.for_generator(gen_cfg)

print(f"{'variant':12s} {'F1':>6s} {'d':>6s}")
table = {}
for name, weights in ABLATIONS.items():
    scores, dists = [], []
    # A few training seeds smooth out run-to-run noise.
    for seed in range(3):
        cfg = TrainConfig(
            seed=seed, max_steps=400, n_critic=2, segment_len=24,
            lr_gen=1e-3, lr_critic=1e-3, **weights,
        )
        result = train(corpus, cfg, gen_cfg=gen_cfg, disc_cfg=disc_cfg)
        report = evaluate(result.checkpoint.gen_params, corpus, "test")
        scores.append(report.f1)
        dists.append(report.d)
    table[name] = (np.mean(scores), np.mean(dists))
    print(f"{name:12s} {table[name][0]:6.3f} {table[name][1]:6.2f}")

best_f1 = max(table, key=lambda name: table[name][0])
best_d = min(table, key=lambda name: table[name][1])
print(f"\nhighest F1: {best_f1}; smallest d: {best_d}")
