"""Reference figures that no workload covers, for the benchmark README.

    python3 perfbench/reference.py [--seed N]

Prints the median time of one generator step of the acceptance recipe at
n_critic=1 and at the library default n_critic=5, and the time of
`evaluation.max_weight_matching` on square concept-IoU matrices of side
60, 120 and 200 (paper-scale queries select hundreds of shots).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import run


def _step_ms(corpus, n_critic, seed, legs=5, leg=5):
    from qsumm import training
    import workloads

    gen_cfg, disc_cfg = workloads.recipe_configs(corpus)
    recipe = dict(workloads.RECIPE, n_critic=n_critic)
    result, times = None, []
    for k in range(1, legs + 1):
        cfg = training.TrainConfig(seed=seed, max_steps=k * leg, **recipe)
        t0 = time.perf_counter()
        result = training.train(corpus, cfg, gen_cfg=gen_cfg, disc_cfg=disc_cfg,
                                resume=result.checkpoint if result else None)
        times.append((time.perf_counter() - t0) * 1e3 / leg)
    return statistics.median(times)


def _iou_matrix(rng, n, pool=6):
    """IoU between n shots annotated like the synthetic corpus: 0-2
    concepts each from a small pool, so equal weights are common."""
    import oracles

    annotations = [tuple(rng.choice(pool, size=rng.integers(0, 3), replace=False))
                   for _ in range(2 * n)]
    return oracles.iou_matrix(annotations, range(n), range(n, 2 * n))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    threads = run._cap_blas_threads()
    sys.path.insert(0, run.SRC)

    import numpy as np

    from qsumm.dataset import SynthConfig, synth_corpus
    from qsumm.evaluation import max_weight_matching
    import workloads

    print(f"machine: {run._machine(threads)}")
    corpus = synth_corpus(SynthConfig(), seed=workloads.CORPUS_SEED)
    for n_critic in (1, 5):
        print(f"generator step, recipe, n_critic={n_critic}: "
              f"{_step_ms(corpus, n_critic, args.seed):.1f} ms (median of 5 legs of 5 steps)")
    rng = np.random.default_rng(args.seed)
    for n, reps in ((60, 5), (120, 3), (200, 3)):
        w = _iou_matrix(rng, n)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            max_weight_matching(w)
            times.append(time.perf_counter() - t0)
        print(f"max_weight_matching n={n}: {statistics.median(times):.3f} s (median of {reps})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
