"""
Summarizing one video for one query
===================================

Trains briefly, then walks a single (video, query) pair through the
generator: fused features, per-shot confidence scores, the temperature
gate, and the final key-shot selection.
"""

import numpy as np

from qsumm.dataset import SynthConfig, embed_query, synth_corpus
from qsumm.discriminator import DiscriminatorConfig
from qsumm.generator import GeneratorConfig, generator_forward, select_shots
from qsumm.training import TrainConfig, train

corpus = synth_corpus(
    SynthConfig(n_videos=4, n_shots=24, n_concepts=8, d_frame=16, d_shot=20, d_text=8),
    seed=3,
)
gen_cfg = GeneratorConfig(
    d_frame=16, d_shot=20, d_text=8, d_fused=24, d_qenc=8, d_h=12, d_pred=12
)
result = train(
    corpus,
    TrainConfig(seed=0, max_steps=300, n_critic=2, segment_len=24,
                lr_gen=1e-3, lr_critic=1e-3),
    gen_cfg=gen_cfg,
    disc_cfg=DiscriminatorConfig.for_generator(gen_cfg),
)
params = result.checkpoint.gen_params

# Pick the held-out video and a query whose concepts are both present.
video = corpus.split_videos("test")[0]
query = video.queries[0]
names = corpus.concepts.names
print(f"{video.video_id}, query ({names[query.concept_a]}, {names[query.concept_b]}), "
      f"scenario {query.scenario}")

# One forward pass in inference mode: no dropout, per-sequence norms.
fwd = generator_forward(
    params, video.frame_feats, video.shot_feats,
    embed_query(query, corpus.concepts), train=False,
)
# Scores and gates are (1, T): one sequence for the one query.
s = fwd.s.data[0]
k = fwd.k.data[0]
mask = select_shots(s, threshold=0.5)

# The gate sharpens scores toward a binary keep/drop decision.
print("\nshot  score  gate  picked  gt")
for t in range(video.n_shots):
    print(f"{t:4d}  {s[t]:.3f} {k[t]:.3f}   {mask[t]}     {query.gt_mask[t]}")

agree = int(np.sum(mask == query.gt_mask))
print(f"\nselected {int(mask.sum())} shots vs {int(query.gt_mask.sum())} gt; "
      f"{agree}/{video.n_shots} shots agree")
