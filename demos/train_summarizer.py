"""
Training the adversarial summarizer
===================================

Runs a short alternating min-max session on a small corpus: several
critic updates with weight clipping per generator update, supervised
score and length losses on top of the adversarial term, and a resumable
checkpoint at the end.

The command line equivalent is:
    qsumm synth --out corpus/ --seed 0
    qsumm train --corpus corpus/ --out run/ --seed 0
"""

import dataclasses
import os
import tempfile

from qsumm.dataset import SynthConfig, synth_corpus
from qsumm.discriminator import DiscriminatorConfig
from qsumm.generator import GeneratorConfig
from qsumm.training import TrainConfig, load_checkpoint, train

# A small corpus keeps this demo quick; the defaults train far longer.
corpus = synth_corpus(
    SynthConfig(n_videos=4, n_shots=24, n_concepts=8, d_frame=16, d_shot=20, d_text=8),
    seed=3,
)
gen_cfg = GeneratorConfig(
    d_frame=16, d_shot=20, d_text=8, d_fused=24, d_qenc=8, d_h=12, d_pred=12
)
disc_cfg = DiscriminatorConfig.for_generator(gen_cfg)
cfg = TrainConfig(
    seed=0, max_steps=120, n_critic=2, segment_len=24,
    lr_gen=1e-3, lr_critic=1e-3, eval_every=40,
)

with tempfile.TemporaryDirectory() as out:
    result = train(corpus, cfg, gen_cfg=gen_cfg, disc_cfg=disc_cfg, out_dir=out)

    # The metrics log has one row per generator step; total_gen is the
    # exact sum of the three generator components on that row.
    with open(os.path.join(out, "metrics.csv")) as fh:
        lines = fh.read().splitlines()
    print(lines[0])
    for row in lines[-3:]:
        print(row)

    # Validation ran every 40 steps, scoring val at each threshold of the
    # grid; the step with the best mean F1 was kept separately, and every
    # checkpoint records that mean and its step.
    print(f"\nbest mean validation F1 {result.checkpoint.best_val_f1:.3f} "
          f"at step {result.checkpoint.best_val_step}")

    # Checkpoints restore bit-exactly, so a run can stop and continue.
    ckpt = load_checkpoint(os.path.join(out, "checkpoint.qsck"))
    print(f"checkpoint holds step {ckpt.step}, "
          f"{len(ckpt.gen_params.tensors())} generator tensors, "
          f"{len(ckpt.disc_params.tensors())} critic tensors")
    more = train(corpus, dataclasses.replace(cfg, max_steps=160), resume=ckpt)
    print(f"resumed to step {more.checkpoint.step}")
