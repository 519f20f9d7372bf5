"""Losses and the alternating min-max training loop.

Each generator step runs n_critic critic updates on fresh batches, then
one generator update.  The critic ascends

    L = d_g - omega*d_q - (1-omega)*d_r

over the (ground-truth, generated, random) summary scores, with weight
clipping after every update.  The generator descends -omega*d_q plus the
lambda-weighted supervised alignment and length terms.  Each ablation in
ABLATIONS is a setting of those weights: omega = 1 is the two-player
game, which never draws a random summary, and a lambda of 0 drops its
term.  Metrics go to a CSV log, model state to a versioned binary
checkpoint that round-trips bit-exactly, RNG streams included.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import evaluation
from .dataset import Corpus, sample_batch
from .discriminator import (
    DiscriminatorConfig,
    DiscriminatorParams,
    critic,
    critic_scores,
    discriminator_shapes,
    init_discriminator_params,
    random_scores,
    summary_repr,
)
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    FormatError,
    NumericError,
    VersionError,
    bounded,
    check_fields,
)
from .generator import (
    GeneratorConfig,
    GeneratorParams,
    generator_forward,
    generator_shapes,
    init_generator_params,
)
# matrix_from_bytes stays importable here: perfbench/tracing.py wraps this name
from .matrix_io import (  # noqa: F401
    HEADER_SIZE, encode_matrix, matrix_from_bytes, parse_json, parse_matrix_header, read_exact,
    readinto, write_atomic)
from .optim import OptimizerState, clip_weights, rmsprop_step
from .rng import RngHub
from .tensor import Tape, Tensor, absolute, as_tensor, mean_all, mul, sub

__all__ = [
    "METRICS_HEADER",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "THRESHOLD_GRID",
    "ABLATIONS",
    "TrainConfig",
    "Checkpoint",
    "MetricsRow",
    "TrainResult",
    "loss_summ",
    "loss_length",
    "adversarial_losses",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "load_generator",
]

CHECKPOINT_MAGIC = b"QSCK"
# Versions 1 and 2 also held batchnorm running stats that nothing read:
# v1 the generator's and the critic's, v2 the critic's only.  Older files
# still load: the loader never asks for those sections, so they are
# skipped.
CHECKPOINT_VERSION = 3
# The decision thresholds validation scores val at; the best checkpoint
# is the one with the highest mean F1 over them.
THRESHOLD_GRID = (0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60)
# The loss ablations, each as the TrainConfig weights it sets.
ABLATIONS = {
    "none": {},
    "two-player": {"omega": 1.0},
    "no-length": {"lambda_len": 0.0},
    "no-summ": {"lambda_summ": 0.0},
}


@dataclass(frozen=True)
class TrainConfig:
    seed: int = bounded(0, ge=0)
    max_steps: int = bounded(2000, ge=1)
    n_critic: int = bounded(5, ge=1)
    clip_c: float = bounded(0.01, gt=0)
    lr_gen: float = bounded(5e-5, gt=0)
    lr_critic: float = bounded(5e-5, gt=0)
    decay: float = bounded(0.9, gt=0, lt=1)
    omega: float = bounded(0.5, ge=0, le=1)
    tau: float = bounded(0.1, gt=0)
    lambda_summ: float = bounded(1.0, ge=0)
    lambda_len: float = bounded(1.0, ge=0)
    segment_len: int = bounded(60, ge=1)
    checkpoint_every: int = bounded(0, ge=0)
    eval_every: int = bounded(0, ge=0)

    def __post_init__(self):
        check_fields(self, "train")


@dataclass(frozen=True)
class CheckpointMeta:
    """A checkpoint's "meta" section: step counts and the best val F1."""

    step: int = bounded(ge=0)
    best_val_f1: float = bounded(ge=0, le=1)
    best_val_step: int = bounded(ge=0)
    gen_opt_step: int = bounded(ge=0)
    disc_opt_step: int = bounded(ge=0)
    format: str = "qsumm-checkpoint"

    def __post_init__(self):
        check_fields(self, "meta")
        if self.format != "qsumm-checkpoint":
            raise ConfigError(f"meta: unexpected format tag {self.format!r}")


def loss_summ(s, s_g) -> Tensor:
    """Mean squared gap between predicted scores and the ground-truth mask."""
    s = as_tensor(s)
    s_g = as_tensor(s_g)
    if s.data.shape != s_g.data.shape or s.data.size == 0:
        raise DimensionError(
            f"loss_summ: scores {s.data.shape} and mask {s_g.data.shape} "
            f"must be equal nonempty shapes"
        )
    d = sub(s, s_g)
    return mean_all(mul(d, d))


def loss_length(k, gamma: float) -> Tensor:
    """|mean(k) - gamma|, the summary-length regularizer."""
    k = as_tensor(k)
    if k.data.size == 0:
        raise DimensionError("loss_length: empty summary mask")
    if not 0.0 <= gamma <= 1.0:
        raise ContractError(f"loss_length: gamma must be in [0, 1], got {gamma}")
    return absolute(sub(mean_all(k), gamma))


def adversarial_losses(d_g, d_q, d_r, omega: float):
    """Critic and generator objectives from the three summary scores.

    The min-max value is L = d_g - omega*d_q - (1-omega)*d_r.  The critic
    maximizes L, so its descent target is -L; of the three terms only d_q
    depends on the generator, so the generator's adversarial loss is
    -omega*d_q.  d_r may be None exactly when omega = 1 (the two-player
    game, which never scores a random summary).
    """
    if not 0.0 <= omega <= 1.0:
        raise ConfigError(f"adversarial_losses: omega must be in [0, 1], got {omega}")
    if d_r is None and omega != 1.0:
        raise ContractError("adversarial_losses: d_r may be omitted only at omega = 1")
    d_g = as_tensor(d_g)
    d_q = as_tensor(d_q)
    d_r = as_tensor(d_r) if d_r is not None else None
    for name, t in (("d_g", d_g), ("d_q", d_q), ("d_r", d_r)):
        if t is not None and not np.isfinite(t.data).all():
            raise NumericError(f"adversarial_losses: {name} is non-finite")
    fake = mul(d_q, omega)
    if d_r is not None and omega != 1.0:
        fake = fake + mul(d_r, 1.0 - omega)
    critic_loss = sub(fake, d_g)
    gen_loss = mul(d_q, -omega)
    return critic_loss, gen_loss


@dataclass
class MetricsRow:
    step: int
    critic_loss: float
    gen_adv: float
    loss_summ: float
    loss_length: float
    total_gen: float

    def format(self) -> str:
        return ",".join(repr(getattr(self, f.name)) for f in dataclasses.fields(self))


METRICS_HEADER = ",".join(f.name for f in dataclasses.fields(MetricsRow))


@dataclass
class Checkpoint:
    """The whole training state after `step` generator steps.

    train() runs on one of these: a fresh run on the step-0 state that
    the seed initializes, a resume on the state it is given.
    """

    step: int
    train_cfg: TrainConfig
    gen_cfg: GeneratorConfig
    disc_cfg: DiscriminatorConfig
    gen_params: GeneratorParams
    disc_params: DiscriminatorParams
    gen_opt: OptimizerState
    disc_opt: OptimizerState
    rng_state: dict
    best_val_f1: float = 0.0
    best_val_step: int = 0


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics: list
    checkpoint_path: str | None = None


def _check_finite(value: float, step: int, term: str) -> float:
    if not np.isfinite(value):
        raise NumericError(f"training aborted at step {step}: {term} is non-finite ({value})")
    return value


def _resolve_configs(corpus, cfg, gen_cfg, disc_cfg):
    """The given model configs, checked against the corpus, cfg and each
    other; a missing one is built to fit them."""
    if gen_cfg is None:
        gen_cfg = GeneratorConfig(**corpus.dims, tau=cfg.tau)
    elif gen_cfg.tau != cfg.tau:
        raise ConfigError(
            f"train: generator tau {gen_cfg.tau} conflicts with training tau {cfg.tau}"
        )
    for name, want in corpus.dims.items():
        if getattr(gen_cfg, name) != want:
            raise ConfigError(
                f"train: generator {name}={getattr(gen_cfg, name)} does not match "
                f"corpus {name}={want}"
            )
    expect = DiscriminatorConfig.for_generator(gen_cfg)
    if disc_cfg is None:
        disc_cfg = expect
    if (disc_cfg.d_summ_in, disc_cfg.d_vid_in) != (expect.d_summ_in, expect.d_vid_in):
        raise ConfigError(
            "train: discriminator branch widths do not match the generator's outputs"
        )
    return gen_cfg, disc_cfg


def _initial_state(cfg, gen_cfg, disc_cfg) -> Checkpoint:
    """Step 0 of cfg.seed: weights drawn from the seed's init stream, and
    zero optimizer state."""
    hub = RngHub(cfg.seed)
    gparams = init_generator_params(gen_cfg, hub["init"])
    dparams = init_discriminator_params(disc_cfg, hub["init"])
    return Checkpoint(
        step=0,
        train_cfg=cfg,
        gen_cfg=gen_cfg,
        disc_cfg=disc_cfg,
        gen_params=gparams,
        disc_params=dparams,
        gen_opt=OptimizerState.for_params(gparams.tensors()),
        disc_opt=OptimizerState.for_params(dparams.tensors()),
        rng_state=hub.state(),
    )


def _critic_update(state: Checkpoint, corpus, hub: RngHub, step: int) -> float:
    """n_critic critic updates, each on a fresh batch: RMSProp, then clipping.

    Returns the loss of the last update.
    """
    cfg = state.train_cfg
    disc_tensors = state.disc_params.tensors()
    for _ in range(cfg.n_critic):
        batch = sample_batch(corpus, hub["sampling"], cfg.segment_len)
        # generator runs outside the tape: its outputs are constants here
        fwd = generator_forward(
            state.gen_params, batch.frame, batch.shot, batch.query_emb,
            train=True, rng=hub["dropout"],
        )
        # omega = 1 gives the random summary no weight, so none is drawn
        r = None if cfg.omega == 1.0 else random_scores(batch.length, hub["random-summary"])
        with Tape(watch=disc_tensors.values()) as tape:
            # ground-truth, generated, then random: d_g, d_q, d_r
            summs = [summary_repr(fwd.f_eq, batch.gt[None]), summary_repr(fwd.f_eq, fwd.s)]
            if r is not None:
                summs.append(summary_repr(fwd.f_eq, r[None]))
            scores = critic_scores(summs, fwd.f_vq, state.disc_params)
            d_r = scores[2] if r is not None else None
            try:
                c_loss, _ = adversarial_losses(scores[0], scores[1], d_r, cfg.omega)
            except NumericError as e:
                raise NumericError(f"training aborted at step {step}: {e}") from None
        loss = _check_finite(float(c_loss), step, "critic_loss")
        tape.backward(c_loss)
        rmsprop_step(disc_tensors, state.disc_opt, cfg.lr_critic, cfg.decay)
        clip_weights(disc_tensors, cfg.clip_c)
    return loss


def _generator_update(state: Checkpoint, corpus, hub: RngHub, step: int,
                      critic_loss: float) -> MetricsRow:
    """One generator update on a fresh batch; returns the step's log row.

    The loss_summ and loss_length columns hold the lambda-weighted terms,
    so total_gen is exactly the float sum of the three logged components.
    A term whose lambda is 0 is not computed, and its column reads 0.0.
    """
    cfg = state.train_cfg
    gen_tensors = state.gen_params.tensors()
    batch = sample_batch(corpus, hub["sampling"], cfg.segment_len)
    with Tape(watch=gen_tensors.values()) as tape:
        fwd = generator_forward(
            state.gen_params, batch.frame, batch.shot, batch.query_emb,
            train=True, rng=hub["dropout"],
        )
        # only the generated-summary branch feeds the generator update
        d_q = critic(summary_repr(fwd.f_eq, fwd.s), fwd.f_vq, state.disc_params)
        total = gen_adv = mul(d_q, -cfg.omega)
        ls_w = ll_w = 0.0
        if cfg.lambda_summ > 0:
            ls = mul(loss_summ(fwd.s, batch.gt[None]), cfg.lambda_summ)
            ls_w = _check_finite(float(ls), step, "loss_summ")
            total = total + ls
        if cfg.lambda_len > 0:
            ll = mul(loss_length(fwd.k, batch.gamma), cfg.lambda_len)
            ll_w = _check_finite(float(ll), step, "loss_length")
            total = total + ll
    adv_val = _check_finite(float(gen_adv), step, "gen_adv")
    total_val = _check_finite(float(total), step, "total_gen")
    tape.backward(total)
    rmsprop_step(gen_tensors, state.gen_opt, cfg.lr_gen, cfg.decay)
    return MetricsRow(step, critic_loss, adv_val, ls_w, ll_w, total_val)


def _validate(state: Checkpoint, corpus, best_path) -> None:
    """Score the val split at every THRESHOLD_GRID value and keep a new
    best mean F1, saved to best_path when there is one, with max_steps
    set to its step: a fresh run's config, wherever the run was split."""
    reports = evaluation.evaluate_grid(state.gen_params, corpus, "val", THRESHOLD_GRID)
    f1 = float(np.mean([r.f1 for r in reports]))
    if f1 > state.best_val_f1:
        state.best_val_f1, state.best_val_step = f1, state.step
        cfg = dataclasses.replace(state.train_cfg, max_steps=state.step)
        _save(dataclasses.replace(state, train_cfg=cfg), best_path)


def _save(state: Checkpoint, path) -> None:
    if path is not None:
        save_checkpoint(state, path)


def _row_step(line: bytes) -> int:
    """The step of a metrics.csv row; -1 for the header."""
    head = line.split(b",", 1)[0]
    return int(head) if head.isdigit() else -1


def _open_log(path, step: int):
    """metrics.csv, opened to append the rows after `step`.

    The file keeps its header and its rows up to `step`; rows above it,
    left by a run that went further, are dropped.  A step-0 state keeps
    no rows, so its file starts over.  The last row tells whether any
    must go, so a resume onto its own log rewrites nothing.
    """
    if step == 0 or not os.path.exists(path):
        write_atomic(path, METRICS_HEADER + "\n")
        return open(path, "a", encoding="utf-8")
    with open(path, "rb") as fh:
        fh.seek(max(0, os.fstat(fh.fileno()).st_size - 4096))
        tail = fh.read().splitlines()
        if tail and _row_step(tail[-1]) > step:
            fh.seek(0)
            write_atomic(path, *(line for line in fh if _row_step(line) <= step))
    return open(path, "a", encoding="utf-8")


def train(
    corpus: Corpus,
    cfg: TrainConfig,
    gen_cfg: GeneratorConfig | None = None,
    disc_cfg: DiscriminatorConfig | None = None,
    out_dir=None,
    resume: Checkpoint | None = None,
) -> TrainResult:
    """Run generator steps state.step+1 .. cfg.max_steps of the alternating loop.

    The state is `resume`, with its model configs, or else the step-0
    state of cfg.seed.  A resume advances the Checkpoint it is given in
    place (parameters, optimizer state, step, rng_state and best-val
    fields) and returns that same object as result.checkpoint.  Raises
    ConfigError or ContractError before any file is touched when
    cfg.max_steps is below the resumed step, when a gen_cfg or disc_cfg
    passed with a resume differs from the checkpoint's, or when the
    corpus lacks what the run reads: a train video with a query, and a
    nonempty val split when eval_every > 0.  Each step is _critic_update,
    _generator_update, then _validate every eval_every steps (mean val F1
    over THRESHOLD_GRID).

    With out_dir set, appends one row per step to out_dir/metrics.csv,
    first dropping any rows above the state's step (all of them for a
    fresh run), so a split run logs the bytes of an uninterrupted one.
    Writes checkpoint.qsck every checkpoint_every steps and at the end,
    and the state of each new best mean val F1 to checkpoint_best.qsck;
    a resume compares against the best_val_f1 its checkpoint holds.
    """
    # the splits the loop will read are checked before any file is written
    if not any(v.queries for v in corpus.split_videos("train")):
        raise ContractError("train: split 'train' has no video with a query")
    if cfg.eval_every > 0 and not corpus.split_videos("val"):
        raise ContractError("train: split 'val' is empty")
    if resume is not None:
        for given, held in ((gen_cfg, resume.gen_cfg), (disc_cfg, resume.disc_cfg)):
            if given not in (None, held):
                raise ConfigError(f"train: {given} differs from the checkpoint's {held}")
        gen_cfg, disc_cfg = resume.gen_cfg, resume.disc_cfg
    gen_cfg, disc_cfg = _resolve_configs(corpus, cfg, gen_cfg, disc_cfg)
    state = resume if resume is not None else _initial_state(cfg, gen_cfg, disc_cfg)
    if cfg.max_steps < state.step:
        raise ConfigError(
            f"train: max_steps {cfg.max_steps} is below the checkpoint's step {state.step}"
        )
    state.train_cfg = cfg
    hub = RngHub.from_state(state.rng_state)
    metrics: list[MetricsRow] = []
    metrics_path = ckpt_path = best_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path, ckpt_path, best_path = (os.path.join(out_dir, name) for name in (
            "metrics.csv", "checkpoint.qsck", "checkpoint_best.qsck"))
    # without an out_dir the rows go to the null device
    with _open_log(metrics_path, state.step) if metrics_path else open(os.devnull, "w") as log:
        for step in range(state.step + 1, cfg.max_steps + 1):
            critic_loss = _critic_update(state, corpus, hub, step)
            row = _generator_update(state, corpus, hub, step, critic_loss)
            state.step, state.rng_state = step, hub.state()
            metrics.append(row)
            log.write(row.format() + "\n")
            log.flush()
            if cfg.eval_every > 0 and step % cfg.eval_every == 0:
                _validate(state, corpus, best_path)
            if cfg.checkpoint_every > 0 and step % cfg.checkpoint_every == 0:
                _save(state, ckpt_path)
    _save(state, ckpt_path)
    return TrainResult(state, metrics, ckpt_path)


# checkpoint serialization: magic, version, section count, then
# length-prefixed named sections in a fixed order

_SECTION_HEAD = struct.Struct("<I")
_PAYLOAD_HEAD = struct.Struct("<Q")
_FILE_HEAD = struct.Struct("<4sII")
# size of the chunks in which a load reads and checks every payload
_SCRATCH_BYTES = 8 << 20


# TrainConfig flags that files written before the ablations became loss
# weights still hold; a true flag stands for its ABLATIONS entry
_LEGACY_TRAIN_FLAGS = ("no_length", "no_summ", "two_player")


def _legacy_train_fields(fields):
    """cfg/train fields with any old ablation flag replaced by its weights."""
    if not isinstance(fields, dict):
        return fields
    weights = {}
    for flag in _LEGACY_TRAIN_FLAGS:
        on = fields.pop(flag, False)
        if not isinstance(on, bool):
            raise ConfigError(f"train: {flag} must be bool, got {on!r}")
        if on:
            weights.update(ABLATIONS[flag.replace("_", "-")])
    return {**fields, **weights}


def _config_json(cfg) -> bytes:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    return arr if arr.ndim == 2 else arr.reshape(1, arr.size)


def _tensor_sections(gen: dict, disc: dict, gen_acc: dict, disc_acc: dict) -> dict:
    """Section name -> value for every tensor section, in file order.

    All four are keyed as tensors() keys them.
    """
    out = {f"gparam/{k}": v for k, v in gen.items()}
    out.update((f"dparam/{k}", v) for k, v in disc.items())
    out.update((f"gopt/acc/{k}", v) for k, v in gen_acc.items())
    out.update((f"dopt/acc/{k}", v) for k, v in disc_acc.items())
    return out


def _arrays(params) -> dict:
    return {k: t.data for k, t in params.tensors().items()}


def _checkpoint_arrays(ckpt: Checkpoint) -> dict:
    return _tensor_sections(_arrays(ckpt.gen_params), _arrays(ckpt.disc_params),
                            ckpt.gen_opt.acc, ckpt.disc_opt.acc)


def _config_sizes(gen_cfg, disc_cfg) -> dict:
    """Element count of every tensor section the two configs imply."""
    gt = generator_shapes(gen_cfg)
    dt = discriminator_shapes(disc_cfg)
    shapes = _tensor_sections(gt, dt, gt, dt)
    return {name: math.prod(shape) for name, shape in shapes.items()}


def _sections_of(ckpt: Checkpoint):
    """(name, payload parts) in file order; tensors yield (header, array)."""
    meta = CheckpointMeta(
        step=ckpt.step,
        best_val_f1=ckpt.best_val_f1,
        best_val_step=ckpt.best_val_step,
        gen_opt_step=ckpt.gen_opt.step,
        disc_opt_step=ckpt.disc_opt.step,
    )
    yield "meta", (_config_json(meta),)
    yield "cfg/train", (_config_json(ckpt.train_cfg),)
    yield "cfg/gen", (_config_json(ckpt.gen_cfg),)
    yield "cfg/disc", (_config_json(ckpt.disc_cfg),)
    for name, arr in _checkpoint_arrays(ckpt).items():
        yield name, encode_matrix(_as_matrix(arr), version=2)
    yield "rng", (json.dumps(ckpt.rng_state, sort_keys=True).encode("utf-8"),)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the full training state, atomically, one section at a time."""
    # the parts are the arrays themselves, so listing them copies nothing
    sections = list(_sections_of(ckpt))
    out = [_FILE_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(sections))]
    for name, parts in sections:
        encoded = name.encode("utf-8")
        size = sum(memoryview(p).nbytes for p in parts)
        out += [_SECTION_HEAD.pack(len(encoded)) + encoded + _PAYLOAD_HEAD.pack(size), *parts]
    write_atomic(path, *out)


def _index_sections(fh, size: int, source: str) -> dict:
    """Walk the section headers of an open checkpoint of `size` bytes.

    Returns name -> (payload offset, payload length).  Only the headers
    are read; every payload is skipped with a seek.
    """
    head = fh.read(_FILE_HEAD.size)
    if len(head) < _FILE_HEAD.size:
        raise FormatError(f"{source}: truncated checkpoint header ({len(head)} bytes)")
    magic, version, n = _FILE_HEAD.unpack(head)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{source}: bad checkpoint magic {magic!r}")
    if not 1 <= version <= CHECKPOINT_VERSION:
        raise VersionError(
            f"{source}: checkpoint version {version} unsupported "
            f"(expected 1 to {CHECKPOINT_VERSION})"
        )
    index = {}
    off = _FILE_HEAD.size
    for _ in range(n):
        if off + _SECTION_HEAD.size > size:
            raise FormatError(f"{source}: truncated at section name length")
        fh.seek(off)
        (name_len,) = _SECTION_HEAD.unpack(read_exact(fh, _SECTION_HEAD.size, source))
        off += _SECTION_HEAD.size
        if off + name_len + _PAYLOAD_HEAD.size > size:
            raise FormatError(f"{source}: truncated at section header")
        raw = read_exact(fh, name_len + _PAYLOAD_HEAD.size, source)
        try:
            name = raw[:name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{source}: section name is not UTF-8") from None
        (payload_len,) = _PAYLOAD_HEAD.unpack_from(raw, name_len)
        off += name_len + _PAYLOAD_HEAD.size
        if off + payload_len > size:
            raise FormatError(f"{source}: truncated inside section {name!r}")
        if name in index:
            raise FormatError(f"{source}: repeated checkpoint section {name!r}")
        index[name] = (off, payload_len)
        off += payload_len
    if off != size:
        raise FormatError(f"{source}: {size - off} trailing bytes after last section")
    return index


def _read_tensor(fh, name, count, out, scratch, source) -> None:
    """Read one float64 payload of `count` values in chunks the size of
    `scratch`: into views of `out`, a C-contiguous array the loader
    allocated, or, when out is None, into scratch to be dropped.  The
    first chunk holding a non-finite value raises FormatError.
    """
    buf = scratch.view(np.float64)
    for start in range(0, count, buf.size):
        n = min(buf.size, count - start)
        chunk = buf[:n] if out is None else out.reshape(-1)[start:start + n]
        readinto(fh, chunk, source)
        if not np.isfinite(chunk).all():
            raise FormatError(f"{source}: section {name!r} holds non-finite values")


def _read_checkpoint(path, generator_only: bool) -> Checkpoint:
    """Walk, check and read a checkpoint file section by section.

    Every section the configs imply is validated in both modes; any
    other section, such as an older file's running stats, is skipped.
    An older cfg/train's ablation flags load as the weights they set.
    With generator_only, only the generator's arrays are kept, and
    disc_params, gen_opt and disc_opt are None.
    """
    source = str(path)
    with open(path, "rb") as fh:
        index = _index_sections(fh, os.fstat(fh.fileno()).st_size, source)

        def need(name: str) -> tuple[int, int]:
            if name not in index:
                raise FormatError(f"{source}: missing checkpoint section {name!r}")
            return index[name]

        def parse(name: str):
            off, n = need(name)
            fh.seek(off)
            return parse_json(read_exact(fh, n, source), FormatError,
                              f"{source}: section {name!r} is not UTF-8 JSON")

        def config(cls, name: str, upgrade=lambda fields: fields):
            try:
                return cls(**upgrade(parse(name)))
            except (ConfigError, TypeError) as e:
                raise FormatError(f"{source}: section {name!r}: {e}") from None

        meta = config(CheckpointMeta, "meta")
        train_cfg = config(TrainConfig, "cfg/train", _legacy_train_fields)
        gen_cfg = config(GeneratorConfig, "cfg/gen")
        disc_cfg = config(DiscriminatorConfig, "cfg/disc")
        rng_state = parse("rng")
        try:
            RngHub.from_state(rng_state)
        except FormatError as e:
            raise FormatError(f"{source}: {e}") from None

        # every tensor section is checked before any array is allocated: its
        # size against the configs, so a config with huge dims cannot
        # allocate, and its dtype, since the reads copy payload bytes as is
        sizes = _config_sizes(gen_cfg, disc_cfg)
        for name, count in sizes.items():
            off, n = need(name)
            fh.seek(off)
            head = fh.read(min(n, HEADER_SIZE))
            dtype, rows, cols = parse_matrix_header(
                head, n - HEADER_SIZE, source=f"{source}:{name}")
            if dtype != np.float64:
                raise FormatError(f"{source}: section {name!r} holds {dtype.str} values, "
                                  f"expected float64 ({np.dtype(np.float64).str})")
            if rows * cols != count:
                raise FormatError(
                    f"{source}: section {name!r} holds {rows * cols} values, expected {count}"
                )

        # arrays allocated from the shape tables, undrawn, for the reads to fill
        gparams = init_generator_params(gen_cfg, None)
        ckpt = Checkpoint(meta.step, train_cfg, gen_cfg, disc_cfg, gparams, disc_params=None,
                          gen_opt=None, disc_opt=None, rng_state=rng_state,
                          best_val_f1=meta.best_val_f1, best_val_step=meta.best_val_step)
        arrays = _tensor_sections(_arrays(gparams), {}, {}, {})
        if not generator_only:
            ckpt.disc_params = init_discriminator_params(disc_cfg, None)
            ckpt.gen_opt = OptimizerState.for_params(gparams.tensors())
            ckpt.disc_opt = OptimizerState.for_params(ckpt.disc_params.tensors())
            ckpt.gen_opt.step, ckpt.disc_opt.step = meta.gen_opt_step, meta.disc_opt_step
            arrays = _checkpoint_arrays(ckpt)
        scratch = np.empty(_SCRATCH_BYTES, dtype=np.uint8)
        for name, count in sizes.items():
            fh.seek(index[name][0] + HEADER_SIZE)
            _read_tensor(fh, name, count, arrays.get(name), scratch, source)
    return ckpt


def load_checkpoint(path) -> Checkpoint:
    """Reconstruct a Checkpoint; resuming from it continues bit-exactly.

    Raises FormatError for malformed sections, including any tensor that
    holds a NaN or an infinity, and for tensor sections that are not
    float64 or whose sizes disagree with the configs (both checked
    before anything is allocated).
    """
    return _read_checkpoint(path, generator_only=False)


def load_generator(path) -> GeneratorParams:
    """The generator of a checkpoint, equal to load_checkpoint(path).gen_params.

    Runs every check load_checkpoint runs, on every section, but keeps
    only the generator's arrays: critic and optimizer payloads are read
    through a fixed scratch buffer and dropped.
    """
    return _read_checkpoint(path, generator_only=True).gen_params
