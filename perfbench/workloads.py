"""The three workloads: set-up, one round of operations, output checks.

A workload's `setup` builds its inputs on disk; `run.py` times it in
`setup_repeats` child processes and reports the median.  `start` loads
what the rounds need, untimed.  `round` runs one round of operations and
returns (attempted, failed, seconds), where seconds covers only the
calls into qsumm.  `op_ms` turns the rounds into milliseconds per
operation, and `headline` derives from it the figure users of that
workload quote.  `check` returns the messages of the output checks that
failed; a failed operation is counted, reported on standard error, and
is not a failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

import oracles
from tracing import replaced

from qsumm import cli, evaluation, training
from qsumm.dataset import SynthConfig, load_corpus, synth_corpus, write_corpus
from qsumm.discriminator import DiscriminatorConfig, init_discriminator_params
from qsumm.errors import QsummError
from qsumm.generator import GeneratorConfig, init_generator_params
from qsumm.optim import OptimizerState
from qsumm.rng import RngHub

# The acceptance recipe: the one configuration known to reach the F1 gate.
CORPUS_SEED = 9
RECIPE = dict(n_critic=1, lr_gen=1e-3, lr_critic=1e-3, segment_len=60, eval_every=0)
DROPOUT_P = 0.2
THRESHOLD_GRID = (0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60)
SPLITS = ("val", "test")


def recipe_configs(corpus):
    gen_cfg = GeneratorConfig(
        d_frame=corpus.dims["d_frame"], d_shot=corpus.dims["d_shot"],
        d_text=corpus.dims["d_text"], dropout_p=DROPOUT_P,
    )
    return gen_cfg, DiscriminatorConfig.for_generator(gen_cfg)


def _write_recipe_corpus(work):
    corpus = synth_corpus(SynthConfig(), seed=CORPUS_SEED)
    write_corpus(corpus, os.path.join(work, "corpus"))
    return corpus


def _load(work):
    return load_corpus(os.path.join(work, "corpus", "manifest.json"))


class Train:
    """Generator steps of the acceptance recipe, in legs of LEG steps.

    Each leg is one `train` call resumed from the previous leg's
    in-memory checkpoint; it appends LEG rows to metrics.csv and ends by
    writing checkpoint.qsck, so checkpoints are written every LEG steps.
    --seed is the training seed; every step covers one whole 60-shot
    video, so the work per step does not depend on it.
    """

    name = "train"
    headline = ("train_steps_per_s", "1/s", lambda op_ms: 1e3 / op_ms)
    min_rounds = 4
    setup_repeats = 9  # set-up takes ~30 ms; more samples steady its median
    LEG = 10

    def setup(self, work, seed):
        _write_recipe_corpus(work)

    def start(self, work, seed):
        corpus = _load(work)
        gen_cfg, disc_cfg = recipe_configs(corpus)
        return SimpleNamespace(work=work, seed=seed, corpus=corpus, gen_cfg=gen_cfg,
                               disc_cfg=disc_cfg, out=os.path.join(work, "run"),
                               result=None, step=0)

    def _cfg(self, st, max_steps):
        return training.TrainConfig(seed=st.seed, max_steps=max_steps, **RECIPE)

    def round(self, st):
        resume = st.result.checkpoint if st.result is not None else None
        t0 = time.perf_counter()
        st.result = training.train(
            st.corpus, self._cfg(st, st.step + self.LEG),
            gen_cfg=st.gen_cfg, disc_cfg=st.disc_cfg, out_dir=st.out, resume=resume,
        )
        seconds = time.perf_counter() - t0
        st.step += self.LEG
        # keep the previous leg's checkpoint: the resume check starts there
        last, prev = (os.path.join(st.work, n) for n in ("last.qsck", "prev.qsck"))
        if os.path.exists(last):
            os.replace(last, prev)
        shutil.copyfile(os.path.join(st.out, "checkpoint.qsck"), last)
        return self.LEG, 0, seconds

    def op_ms(self, st, rounds):
        # Over the whole run: the machine's speed drifts in phases of
        # several seconds, and a median of per-leg times jumps between
        # those phases where the overall rate does not.
        return 1e3 * sum(sec for _, _, sec in rounds) / sum(ops for ops, _, _ in rounds)

    def check(self, st):
        errors = []
        metrics_path = os.path.join(st.out, "metrics.csv")
        with open(metrics_path, "rb") as fh:
            log = fh.read()
        lines = log.decode("utf-8").splitlines()
        if lines[0] != "step,critic_loss,gen_adv,loss_summ,loss_length,total_gen":
            errors.append(f"metrics.csv: unexpected header {lines[0]!r}")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(1, st.step + 1)):
            errors.append(f"metrics.csv: steps are not 1..{st.step}")
        for r in rows:
            if not all(np.isfinite(r)):
                errors.append(f"metrics.csv: step {int(r[0])} has a non-finite value")
            if (r[2] + r[3]) + r[4] != r[5]:
                errors.append(f"metrics.csv: step {int(r[0])}: total_gen is not the sum")
        head = np.mean([r[3] for r in rows[:10]])
        tail = np.mean([r[3] for r in rows[-10:]])
        if not tail < head:
            errors.append(f"loss_summ did not fall: first rows {head:.4f}, last rows {tail:.4f}")

        clip_c = self._cfg(st, 1).clip_c
        for key, arr in oracles.checkpoint_tensors(
                os.path.join(st.out, "checkpoint.qsck"), "dparam/").items():
            if np.abs(arr).max() > clip_c:
                errors.append(f"critic tensor {key} exceeds the clip bound {clip_c}")

        # every leg after the first resumes in memory: an uninterrupted run
        # of the first two legs must log the same rows
        fresh = os.path.join(st.work, "fresh")
        training.train(st.corpus, self._cfg(st, 2 * self.LEG), gen_cfg=st.gen_cfg,
                       disc_cfg=st.disc_cfg, out_dir=fresh)
        with open(os.path.join(fresh, "metrics.csv"), encoding="utf-8") as fh:
            if fh.read().splitlines() != lines[: 2 * self.LEG + 1]:
                errors.append("an uninterrupted run logs different rows than the resumed legs")

        # resume from the checkpoint before the last leg; the log must match
        ckpt = training.load_checkpoint(os.path.join(st.work, "prev.qsck"))
        replay = os.path.join(st.work, "replay")
        os.makedirs(replay)
        with open(os.path.join(replay, "metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines[: ckpt.step + 1]))
        training.train(st.corpus, self._cfg(st, st.step), out_dir=replay, resume=ckpt)
        with open(os.path.join(replay, "metrics.csv"), "rb") as fh:
            if fh.read() != log:
                errors.append(f"resume from step {ckpt.step}: metrics.csv differs")
        return errors


class EvalSweep:
    """`evaluate` on val and test at each threshold of the acceptance grid.

    The checkpoint is trained in set-up for CKPT_STEPS recipe steps at
    the recipe's training seed.  How much matching work a sweep does
    depends on how many shots the model selects, which varies by up to
    2x across training seeds after this little training; a fixed model
    keeps that work the same in every run.  --seed sets the order of the
    14 calls in each sweep.
    """

    name = "eval-sweep"
    headline = ("eval_sweep_s", "s", lambda op_ms: op_ms * 14 / 1e3)
    min_rounds = 2
    setup_repeats = 3
    CKPT_STEPS = 60
    CKPT_TRAIN_SEED = 0
    CALLS = [(split, th) for split in SPLITS for th in THRESHOLD_GRID]

    def setup(self, work, seed):
        corpus = _write_recipe_corpus(work)
        gen_cfg, disc_cfg = recipe_configs(corpus)
        cfg = training.TrainConfig(seed=self.CKPT_TRAIN_SEED, max_steps=self.CKPT_STEPS, **RECIPE)
        training.train(corpus, cfg, gen_cfg=gen_cfg, disc_cfg=disc_cfg,
                       out_dir=os.path.join(work, "ckpt"))

    def start(self, work, seed):
        st = SimpleNamespace(
            corpus=_load(work), manifest=oracles.read_manifest(os.path.join(work, "corpus")),
            params=training.load_checkpoint(
                os.path.join(work, "ckpt", "checkpoint.qsck")).gen_params,
            rng=np.random.default_rng(seed), call_times={}, errors=[],
        )
        st.reference = self._checked_sweep(st)
        return st

    @staticmethod
    def _summary(report):
        return (report.f1, report.precision, report.recall,
                [r.n_selected for r in report.rows])

    def round(self, st):
        failed, seconds = 0, 0.0
        for k in st.rng.permutation(len(self.CALLS)):
            split, th = self.CALLS[k]
            t0 = time.perf_counter()
            try:
                report = evaluation.evaluate(st.params, st.corpus, split, threshold=th)
            except QsummError as e:
                failed += 1
                print(f"operation failed: evaluate({split}, {th}): {e}", file=sys.stderr)
                continue
            finally:
                dt = time.perf_counter() - t0
                seconds += dt
                st.call_times.setdefault((split, th), []).append(dt)
            if self._summary(report) != self._summary(st.reference[split, th]):
                st.errors.append(f"evaluate({split}, {th}) differs from the checked sweep")
        return len(self.CALLS), failed, seconds

    def op_ms(self, st, rounds):
        """A fourteenth of one sweep, where a sweep is the sum over the 14
        calls of each call's median time."""
        sweep = sum(statistics.median(times) for times in st.call_times.values())
        return 1e3 * sweep / len(self.CALLS)

    def _checked_sweep(self, st):
        """One untimed sweep that records every mask and matching and checks
        them against scipy, recomputed IoU matrices and recomputed P/R/F1."""
        seen = []
        real_select, real_match = evaluation.select_shots, evaluation.max_weight_matching

        def select(s, threshold=0.5):
            mask = real_select(s, threshold)
            seen.append([mask.copy()])
            return mask

        def match(weights):
            pairs = real_match(weights)
            seen[-1] += [np.array(weights, dtype=np.float64), pairs]
            return pairs

        reports = {}
        with replaced(evaluation, "select_shots", select), \
                replaced(evaluation, "max_weight_matching", match):
            for split, th in self.CALLS:
                seen.clear()
                reports[split, th] = report = evaluation.evaluate(
                    st.params, st.corpus, split, threshold=th)
                self._check_report(st, report, seen)
        for split in SPLITS:
            rows = [reports[split, th].rows for th in THRESHOLD_GRID]
            for per_query in zip(*rows):
                n_sel = [r.n_selected for r in per_query]
                if any(b > a for a, b in zip(n_sel, n_sel[1:])):
                    st.errors.append(
                        f"{split} {per_query[0].video_id} q{per_query[0].query_index}: "
                        f"n_selected rises with the threshold: {n_sel}")
            best = max(reports[split, th].f1 for th in THRESHOLD_GRID)
            base = oracles.all_shots_f1(st.manifest, split)
            if not best > base:
                st.errors.append(f"{split}: best grid F1 {best:.4f} <= all-shots F1 {base:.4f}")
        return reports

    def _check_report(self, st, report, seen):
        videos = {v["id"]: v for v in st.manifest["videos"]}
        where = f"evaluate({report.split}, {report.threshold})"
        if len(seen) != len(report.rows):
            st.errors.append(f"{where}: {len(seen)} matchings for {len(report.rows)} rows")
            return
        for row, (mask, weights, pairs) in zip(report.rows, seen):
            video = videos[row.video_id]
            gen_idx = np.flatnonzero(mask)
            gt_idx = np.flatnonzero(video["queries"][row.query_index]["gt_mask"])
            tag = f"{where} {row.video_id} q{row.query_index}"
            w = oracles.iou_matrix(video["annotations"], gen_idx, gt_idx)
            if not np.array_equal(w, weights):
                st.errors.append(f"{tag}: IoU matrix differs from the recomputed one")
            rows_used = {i for i, _ in pairs}
            cols_used = {j for _, j in pairs}
            if len(rows_used) != len(pairs) or len(cols_used) != len(pairs):
                st.errors.append(f"{tag}: matching reuses a shot")
            total = sum(w[i, j] for i, j in pairs)
            if not oracles.close(total, oracles.optimal_weight(w), 1e-9):
                st.errors.append(f"{tag}: matching weight {total} is not optimal")
            p, r, f1 = oracles.prf(len(pairs), gen_idx.size, gt_idx.size)
            if row.n_selected != gen_idx.size or not (
                    oracles.close(p, row.precision) and oracles.close(r, row.recall)
                    and oracles.close(f1, row.f1)):
                st.errors.append(f"{tag}: P/R/F1 do not follow from {len(pairs)} matches")

    def check(self, st):
        return list(st.errors)


class PaperSummarize:
    """`qsumm summarize` for one query of one paper-scale video, in process.

    Set-up writes a one-video paper-scale corpus (1000 shots, 2048/4096/300
    features) and a checkpoint of freshly initialised paper-scale
    generator and critic, both from --seed; --seed also orders the queries.
    """

    name = "paper-summarize"
    headline = ("paper_summarize_s", "s", lambda op_ms: op_ms / 1e3)
    min_rounds = 2
    setup_repeats = 3
    SCORE_TOL = 1e-9

    def setup(self, work, seed):
        corpus = synth_corpus(SynthConfig.paper_scale(n_videos=1), seed=seed)
        write_corpus(corpus, os.path.join(work, "corpus"))
        gen_cfg = GeneratorConfig.paper_scale()
        disc_cfg = DiscriminatorConfig.paper_scale(gen_cfg)
        hub = RngHub(seed)
        gparams = init_generator_params(gen_cfg, hub["init"])
        dparams = init_discriminator_params(disc_cfg, hub["init"])
        training.save_checkpoint(
            training.Checkpoint(
                step=0, train_cfg=training.TrainConfig(seed=seed, tau=gen_cfg.tau),
                gen_cfg=gen_cfg, disc_cfg=disc_cfg, gen_params=gparams, disc_params=dparams,
                gen_opt=OptimizerState.for_params(gparams.tensors()),
                disc_opt=OptimizerState.for_params(dparams.tensors()),
                rng_state=hub.state(),
            ),
            os.path.join(work, "paper.qsck"),
        )

    def start(self, work, seed):
        corpus_dir = os.path.join(work, "corpus")
        manifest = oracles.read_manifest(corpus_dir)
        ckpt = os.path.join(work, "paper.qsck")
        cfg = oracles.read_checkpoint(ckpt, ["cfg/gen"])["cfg/gen"]
        video = manifest["videos"][0]
        return SimpleNamespace(
            corpus_dir=corpus_dir, ckpt=ckpt, video=video, out=os.path.join(work, "summary.csv"),
            tau=float(json.loads(cfg)["tau"]),
            order=np.random.default_rng(seed).permutation(len(video["queries"])),
            calls=0, first=None, errors=[],
        )

    def round(self, st):
        q = int(st.order[st.calls % len(st.order)])
        st.calls += 1
        argv = ["summarize", "--corpus", st.corpus_dir, "--checkpoint", st.ckpt,
                "--video", st.video["id"], "--query", str(q), "--out", st.out]
        said = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(said):
            rc = cli.run_cli(argv)
        seconds = time.perf_counter() - t0
        if rc != 0:
            print(f"operation failed: summarize query {q}: exit code {rc}", file=sys.stderr)
            return 1, 1, seconds
        self._check_output(st, q, said.getvalue())
        return 1, 0, seconds

    def op_ms(self, st, rounds):
        return 1e3 * statistics.median(sec for _, _, sec in rounds)

    def _check_output(self, st, q, said):
        with open(st.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        tag = f"summarize query {q}"
        if lines[0] != "shot,score,gate,selected" or len(lines) != st.video["n_shots"] + 1:
            st.errors.append(f"{tag}: unexpected header or row count")
            return
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        shot, score, gate, selected = table.T
        if not np.array_equal(shot, np.arange(st.video["n_shots"])):
            st.errors.append(f"{tag}: shot column is not 0..T-1")
        z = (2.0 * score - 1.0) / st.tau
        if not np.allclose(gate, 1.0 / (1.0 + np.exp(-z)), rtol=0.0, atol=1e-12):
            st.errors.append(f"{tag}: gate is not sigmoid((2s-1)/tau)")
        if not np.array_equal(selected, (score > 0.5).astype(float)):
            st.errors.append(f"{tag}: selected is not score > 0.5")
        if f"wrote {int(selected.sum())} selected shots" not in said:
            st.errors.append(f"{tag}: reported selection count disagrees with the file")
        if st.first is None:
            st.first = (q, score)

    def check(self, st):
        errors = list(st.errors)
        if st.first is not None:
            q, score = st.first
            ref = oracles.generator_scores(st.ckpt, st.corpus_dir, 0, q)
            gap = float(np.abs(ref - score).max())
            print(f"summarize query {q}: max |score - numpy recomputation| = {gap:.3g}")
            if gap > self.SCORE_TOL:
                errors.append(f"summarize query {q}: scores differ from the numpy "
                              f"recomputation by {gap:.3g} > {self.SCORE_TOL}")
        return errors


WORKLOADS = {w.name: w for w in (Train(), EvalSweep(), PaperSummarize())}
