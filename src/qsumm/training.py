"""Losses and the alternating min-max training loop.

Each generator step runs n_critic critic updates on fresh batches, then
one generator update.  The critic ascends

    L = d_g - omega*d_q - (1-omega)*d_r

over the (ground-truth, generated, random) summary scores, with weight
clipping after every update.  The generator descends -omega*d_q plus the
supervised alignment and length terms.  Ablation flags drop individual
terms; the two-player flag sets omega = 1 and never draws a random
summary.  Metrics go to a CSV log, model state to a versioned binary
checkpoint that round-trips bit-exactly, RNG streams included.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

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
from .errors import ConfigError, ContractError, DimensionError, FormatError, NumericError, VersionError
from .generator import (
    GeneratorConfig,
    GeneratorParams,
    generator_forward,
    generator_shapes,
    init_generator_params,
)
# matrix_from_bytes stays importable here: perfbench/tracing.py wraps this name
from .matrix_io import HEADER_SIZE, encode_matrix, matrix_from_bytes, parse_matrix_header  # noqa: F401
from .optim import OptimizerState, clip_weights, rmsprop_step
from .rng import RngHub
from .tensor import Tape, Tensor, absolute, as_tensor, mean_all, mul, sub

__all__ = [
    "METRICS_HEADER",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
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

METRICS_HEADER = "step,critic_loss,gen_adv,loss_summ,loss_length,total_gen"
CHECKPOINT_MAGIC = b"QSCK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    max_steps: int = 2000
    n_critic: int = 5
    clip_c: float = 0.01
    lr_gen: float = 5e-5
    lr_critic: float = 5e-5
    decay: float = 0.9
    omega: float = 0.5
    tau: float = 0.1
    lambda_summ: float = 1.0
    lambda_len: float = 1.0
    segment_len: int = 60
    no_length: bool = False
    no_summ: bool = False
    two_player: bool = False
    checkpoint_every: int = 0
    eval_every: int = 0

    def __post_init__(self):
        if self.max_steps < 1:
            raise ConfigError(f"train: max_steps must be >= 1, got {self.max_steps}")
        if self.n_critic < 1:
            raise ConfigError(f"train: n_critic must be >= 1, got {self.n_critic}")
        if self.clip_c <= 0:
            raise ConfigError(f"train: clip_c must be positive, got {self.clip_c}")
        if self.lr_gen <= 0 or self.lr_critic <= 0:
            raise ConfigError(
                f"train: learning rates must be positive, got {self.lr_gen}/{self.lr_critic}"
            )
        if not 0.0 < self.decay < 1.0:
            raise ConfigError(f"train: decay must be in (0, 1), got {self.decay}")
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError(f"train: omega must be in [0, 1], got {self.omega}")
        if self.tau <= 0:
            raise ConfigError(f"train: tau must be positive, got {self.tau}")
        if self.lambda_summ < 0 or self.lambda_len < 0:
            raise ConfigError(
                f"train: loss weights must be >= 0, got {self.lambda_summ}/{self.lambda_len}"
            )
        if self.segment_len < 1:
            raise ConfigError(f"train: segment_len must be >= 1, got {self.segment_len}")
        if self.checkpoint_every < 0 or self.eval_every < 0:
            raise ConfigError("train: checkpoint_every and eval_every must be >= 0")

    def effective_omega(self) -> float:
        return 1.0 if self.two_player else self.omega


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
    -omega*d_q.  d_r may be None exactly when omega = 1 (two-player mode
    never evaluates the random branch).
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
        return (
            f"{self.step},{self.critic_loss!r},{self.gen_adv!r},"
            f"{self.loss_summ!r},{self.loss_length!r},{self.total_gen!r}"
        )


@dataclass
class Checkpoint:
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
    counters: dict = field(default_factory=dict)
    metrics_path: str | None = None
    checkpoint_path: str | None = None
    best_val_f1: float = 0.0
    best_val_step: int = 0


def _check_finite(value: float, step: int, term: str) -> float:
    if not np.isfinite(value):
        raise NumericError(f"training aborted at step {step}: {term} is non-finite ({value})")
    return value


def _check_tau(gen_cfg, cfg) -> None:
    if gen_cfg.tau != cfg.tau:
        raise ConfigError(
            f"train: generator tau {gen_cfg.tau} conflicts with training tau {cfg.tau}"
        )


def _resolve_configs(corpus, cfg, gen_cfg, disc_cfg):
    if gen_cfg is None:
        gen_cfg = GeneratorConfig(
            d_frame=corpus.dims["d_frame"],
            d_shot=corpus.dims["d_shot"],
            d_text=corpus.dims["d_text"],
            tau=cfg.tau,
        )
    else:
        _check_tau(gen_cfg, cfg)
    for name in ("d_frame", "d_shot", "d_text"):
        if getattr(gen_cfg, name) != corpus.dims[name]:
            raise ConfigError(
                f"train: generator {name}={getattr(gen_cfg, name)} does not match "
                f"corpus {name}={corpus.dims[name]}"
            )
    if disc_cfg is None:
        disc_cfg = DiscriminatorConfig.for_generator(gen_cfg)
    expect = DiscriminatorConfig.for_generator(gen_cfg)
    if (disc_cfg.d_summ_in, disc_cfg.d_vid_in) != (expect.d_summ_in, expect.d_vid_in):
        raise ConfigError(
            "train: discriminator branch widths do not match the generator's outputs"
        )
    return gen_cfg, disc_cfg


def train(
    corpus: Corpus,
    cfg: TrainConfig,
    gen_cfg: GeneratorConfig | None = None,
    disc_cfg: DiscriminatorConfig | None = None,
    out_dir=None,
    resume: Checkpoint | None = None,
    eval_threshold: float = 0.5,
) -> TrainResult:
    """Run the alternating loop from scratch or from a checkpoint.

    With out_dir set, appends one CSV row per generator step to
    out_dir/metrics.csv (creating it with a header when absent, so a
    resumed run extends the original file byte-for-byte) and writes
    checkpoint.qsck at the end and every checkpoint_every steps.  With
    eval_every > 0, runs validation-split evaluation and keeps the best
    F1 in checkpoint_best.qsck.  Critic-loss logging uses the last of
    the step's n_critic updates; the loss_summ/loss_length columns hold
    the lambda-weighted contributions, so total_gen is exactly the float
    sum of the three logged generator components.
    """
    if not corpus.videos:
        raise ContractError("train: corpus has no videos")
    if resume is not None:
        gen_cfg, disc_cfg = resume.gen_cfg, resume.disc_cfg
        _check_tau(gen_cfg, cfg)
        gparams, dparams = resume.gen_params, resume.disc_params
        gen_opt, disc_opt = resume.gen_opt, resume.disc_opt
        hub = RngHub.from_state(resume.rng_state)
        start_step = resume.step
        best_f1, best_step = resume.best_val_f1, resume.best_val_step
    else:
        gen_cfg, disc_cfg = _resolve_configs(corpus, cfg, gen_cfg, disc_cfg)
        hub = RngHub(cfg.seed)
        gparams = init_generator_params(gen_cfg, hub["init"])
        dparams = init_discriminator_params(disc_cfg, hub["init"])
        gen_opt = OptimizerState.for_params(gparams.tensors())
        disc_opt = OptimizerState.for_params(dparams.tensors())
        start_step = 0
        best_f1, best_step = 0.0, 0

    gen_tensors = gparams.tensors()
    disc_tensors = dparams.tensors()
    omega = cfg.effective_omega()
    counters = {
        "critic_updates": 0,
        "gen_updates": 0,
        "random_summaries": 0,
        "summary_branch_evals": 0,
    }
    metrics: list[MetricsRow] = []

    metrics_path = ckpt_path = best_path = None
    log = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.csv")
        ckpt_path = os.path.join(out_dir, "checkpoint.qsck")
        best_path = os.path.join(out_dir, "checkpoint_best.qsck")
        # resumed runs extend the existing log; fresh runs start it over
        append = resume is not None and os.path.exists(metrics_path)
        log = open(metrics_path, "a" if append else "w", encoding="utf-8")
        if not append:
            log.write(METRICS_HEADER + "\n")
            log.flush()

    def snapshot(step):
        return Checkpoint(
            step=step,
            train_cfg=cfg,
            gen_cfg=gen_cfg,
            disc_cfg=disc_cfg,
            gen_params=gparams,
            disc_params=dparams,
            gen_opt=gen_opt,
            disc_opt=disc_opt,
            rng_state=hub.state(),
            best_val_f1=best_f1,
            best_val_step=best_step,
        )

    try:
        for step in range(start_step + 1, cfg.max_steps + 1):
            critic_loss_val = 0.0
            for _ in range(cfg.n_critic):
                batch = sample_batch(corpus, hub["sampling"], cfg.segment_len)
                # generator runs outside the tape: its outputs are constants here
                fwd = generator_forward(
                    gparams, batch.frame, batch.shot, batch.query_emb,
                    train=True, rng=hub["dropout"],
                )
                if cfg.two_player:
                    r = None
                else:
                    r = random_scores(batch.length, hub["random-summary"])
                    counters["random_summaries"] += 1
                with Tape(watch=disc_tensors.values()) as tape:
                    summs = [
                        summary_repr(fwd.f_eq, batch.gt, "ground-truth"),
                        summary_repr(fwd.f_eq, fwd.s, "generated"),
                    ]
                    if r is not None:
                        summs.append(summary_repr(fwd.f_eq, r, "random"))
                    scores = critic_scores(summs, fwd.f_vq, dparams, train=True)
                    counters["summary_branch_evals"] += len(summs)
                    d_g, d_q = scores[0], scores[1]
                    d_r = scores[2] if r is not None else None
                    try:
                        c_loss, _ = adversarial_losses(d_g, d_q, d_r, omega)
                    except NumericError as e:
                        raise NumericError(f"training aborted at step {step}: {e}") from None
                critic_loss_val = _check_finite(float(c_loss), step, "critic_loss")
                tape.backward(c_loss)
                rmsprop_step(disc_tensors, disc_opt, cfg.lr_critic, cfg.decay)
                clip_weights(disc_tensors, cfg.clip_c)
                counters["critic_updates"] += 1

            batch = sample_batch(corpus, hub["sampling"], cfg.segment_len)
            with Tape(watch=gen_tensors.values()) as tape:
                fwd = generator_forward(
                    gparams, batch.frame, batch.shot, batch.query_emb,
                    train=True, rng=hub["dropout"],
                )
                # only the generated-summary branch feeds the generator update
                q_summ = summary_repr(fwd.f_eq, fwd.s, "generated")
                d_q = critic(q_summ, fwd.f_vq, dparams, train=True)
                counters["summary_branch_evals"] += 1
                total = gen_adv = mul(d_q, -omega)
                ls_w = ll_w = 0.0
                if not cfg.no_summ:
                    ls = mul(loss_summ(fwd.s, batch.gt), cfg.lambda_summ)
                    ls_w = _check_finite(float(ls), step, "loss_summ")
                    total = total + ls
                if not cfg.no_length:
                    ll = mul(loss_length(fwd.k, batch.gamma), cfg.lambda_len)
                    ll_w = _check_finite(float(ll), step, "loss_length")
                    total = total + ll
            adv_val = _check_finite(float(gen_adv), step, "gen_adv")
            total_val = _check_finite(float(total), step, "total_gen")
            tape.backward(total)
            rmsprop_step(gen_tensors, gen_opt, cfg.lr_gen, cfg.decay)
            counters["gen_updates"] += 1

            row = MetricsRow(
                step=step,
                critic_loss=critic_loss_val,
                gen_adv=adv_val,
                loss_summ=ls_w,
                loss_length=ll_w,
                total_gen=total_val,
            )
            metrics.append(row)
            if log is not None:
                log.write(row.format() + "\n")
                log.flush()

            if cfg.eval_every > 0 and step % cfg.eval_every == 0:
                from .evaluation import evaluate

                report = evaluate(gparams, corpus, "val", threshold=eval_threshold)
                if report.f1 > best_f1:
                    best_f1, best_step = report.f1, step
                    if best_path is not None:
                        save_checkpoint(snapshot(step), best_path)

            if (
                ckpt_path is not None
                and cfg.checkpoint_every > 0
                and step % cfg.checkpoint_every == 0
            ):
                save_checkpoint(snapshot(step), ckpt_path)
    finally:
        if log is not None:
            log.close()

    final = snapshot(cfg.max_steps)
    if ckpt_path is not None:
        save_checkpoint(final, ckpt_path)
    return TrainResult(
        checkpoint=final,
        metrics=metrics,
        counters=counters,
        metrics_path=metrics_path,
        checkpoint_path=ckpt_path,
        best_val_f1=best_f1,
        best_val_step=best_step,
    )


# checkpoint serialization: magic, version, section count, then
# length-prefixed named sections in a fixed order

_SECTION_HEAD = struct.Struct("<I")
_PAYLOAD_HEAD = struct.Struct("<Q")
_FILE_HEAD = struct.Struct("<4sII")
# size of the save buffer, and of the scratch buffer that float32
# payloads and payloads that are only validated pass through on load
_SCRATCH_BYTES = 8 << 20


def _config_json(cfg) -> bytes:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    return arr if arr.ndim == 2 else arr.reshape(1, arr.size)


def _tensor_sections(gen, disc, gen_acc: dict, disc_acc: dict) -> dict:
    """Section name -> value for every tensor section, in file order.

    gen and disc are (tensors, stats) pairs of dicts keyed as tensors()
    and stats() key them; a stats value is a (mean, var) pair.
    """
    out = {}
    for prefix, (tensors, stats) in (("g", gen), ("d", disc)):
        out.update((f"{prefix}param/{k}", v) for k, v in tensors.items())
        for k, (mean, var) in stats.items():
            out[f"{prefix}stats/{k}/mean"] = mean
            out[f"{prefix}stats/{k}/var"] = var
    out.update((f"gopt/acc/{k}", v) for k, v in gen_acc.items())
    out.update((f"dopt/acc/{k}", v) for k, v in disc_acc.items())
    return out


def _param_arrays(params) -> tuple[dict, dict]:
    return (
        {k: t.data for k, t in params.tensors().items()},
        {k: (st.mean, st.var) for k, st in params.stats().items()},
    )


def _checkpoint_arrays(ckpt: Checkpoint) -> dict:
    return _tensor_sections(
        _param_arrays(ckpt.gen_params), _param_arrays(ckpt.disc_params),
        ckpt.gen_opt.acc, ckpt.disc_opt.acc,
    )


def _config_sizes(gen_cfg, disc_cfg) -> dict:
    """Element count of every tensor section the two configs imply."""
    gt, gs = generator_shapes(gen_cfg)
    dt, ds = discriminator_shapes(disc_cfg)
    shapes = _tensor_sections(
        (gt, {k: (s, s) for k, s in gs.items()}),
        (dt, {k: (s, s) for k, s in ds.items()}),
        gt, dt,
    )
    return {name: math.prod(shape) for name, shape in shapes.items()}


def _sections_of(ckpt: Checkpoint):
    """(name, payload parts) in file order; tensors yield (header, array)."""
    meta = {
        "format": "qsumm-checkpoint",
        "step": ckpt.step,
        "best_val_f1": ckpt.best_val_f1,
        "best_val_step": ckpt.best_val_step,
        "gen_opt_step": ckpt.gen_opt.step,
        "disc_opt_step": ckpt.disc_opt.step,
    }
    yield "meta", (json.dumps(meta, sort_keys=True).encode("utf-8"),)
    yield "cfg/train", (_config_json(ckpt.train_cfg),)
    yield "cfg/gen", (_config_json(ckpt.gen_cfg),)
    yield "cfg/disc", (_config_json(ckpt.disc_cfg),)
    for name, arr in _checkpoint_arrays(ckpt).items():
        yield name, encode_matrix(_as_matrix(arr), version=2)
    yield "rng", (json.dumps(ckpt.rng_state, sort_keys=True).encode("utf-8"),)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the full training state, atomically, one section at a time."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb", buffering=_SCRATCH_BYTES) as fh:
        fh.write(_FILE_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 0))
        n = 0
        for name, parts in _sections_of(ckpt):
            encoded = name.encode("utf-8")
            size = sum(memoryview(p).nbytes for p in parts)
            fh.write(_SECTION_HEAD.pack(len(encoded)) + encoded + _PAYLOAD_HEAD.pack(size))
            for p in parts:
                fh.write(p)
            n += 1
        # the section count is known only now; patch it into the header
        fh.seek(0)
        fh.write(_FILE_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, n))
    os.replace(tmp, path)


def _read_exact(fh, n: int, source: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"{source}: file ended early; it changed while being read")
    return data


def _readinto(fh, arr: np.ndarray, source: str) -> None:
    view = memoryview(arr).cast("B")
    if fh.readinto(view) != len(view):
        raise FormatError(f"{source}: file ended early; it changed while being read")


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
    if version != CHECKPOINT_VERSION:
        raise VersionError(
            f"{source}: checkpoint version {version} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    index = {}
    off = _FILE_HEAD.size
    for _ in range(n):
        if off + _SECTION_HEAD.size > size:
            raise FormatError(f"{source}: truncated at section name length")
        fh.seek(off)
        (name_len,) = _SECTION_HEAD.unpack(_read_exact(fh, _SECTION_HEAD.size, source))
        off += _SECTION_HEAD.size
        if off + name_len + _PAYLOAD_HEAD.size > size:
            raise FormatError(f"{source}: truncated at section header")
        raw = _read_exact(fh, name_len + _PAYLOAD_HEAD.size, source)
        try:
            name = raw[:name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{source}: section name is not UTF-8") from None
        (payload_len,) = _PAYLOAD_HEAD.unpack_from(raw, name_len)
        off += name_len + _PAYLOAD_HEAD.size
        if off + payload_len > size:
            raise FormatError(f"{source}: truncated inside section {name!r}")
        index[name] = (off, payload_len)
        off += payload_len
    if off != size:
        raise FormatError(f"{source}: {size - off} trailing bytes after last section")
    return index


def _read_sections(buf: bytes, source: str) -> dict:
    """Every section payload of an in-memory checkpoint, by name."""
    index = _index_sections(io.BytesIO(buf), len(buf), source)
    return {name: buf[off : off + n] for name, (off, n) in index.items()}


class _NoDraws:
    """Stands in for an rng when every drawn array is overwritten at once."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def _read_tensor(fh, name, dtype, count, out, scratch, source) -> None:
    """Read one payload into `out`, or only validate it when out is None.

    A float64 payload goes straight into `out`; any other payload passes
    through `scratch` in chunks.  Non-finite values raise FormatError.
    """
    if out is not None and dtype == out.dtype:
        _readinto(fh, out, source)
        finite = bool(np.isfinite(out).all())
    else:
        flat = None if out is None else out.reshape(-1)
        step = scratch.size // dtype.itemsize
        finite = True
        for start in range(0, count, step):
            chunk = scratch[: min(step, count - start) * dtype.itemsize].view(dtype)
            _readinto(fh, chunk, source)
            finite = finite and bool(np.isfinite(chunk).all())
            if flat is not None:
                flat[start : start + chunk.size] = chunk
    if not finite:
        raise FormatError(f"{source}: section {name!r} holds non-finite values")


def _read_checkpoint(path, generator_only: bool) -> Checkpoint:
    """Walk, check and read a checkpoint file section by section.

    Every section is validated in both modes.  With generator_only, only
    the generator's arrays are kept, and disc_params, gen_opt and
    disc_opt are None.
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
            raw = _read_exact(fh, n, source)
            try:
                return json.loads(raw.decode("utf-8"))
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
        rng_state = parse("rng")

        # every tensor section's size is checked against the configs before
        # any array is allocated, so a config with huge dims cannot allocate
        sizes = _config_sizes(gen_cfg, disc_cfg)
        if not all(isinstance(n, int) for n in sizes.values()):
            raise FormatError(f"{source}: configs do not describe a model (non-integer dims)")
        dtypes = {}
        for name, count in sizes.items():
            off, n = need(name)
            fh.seek(off)
            head = fh.read(min(n, HEADER_SIZE))
            dtype, rows, cols = parse_matrix_header(
                head, n - HEADER_SIZE, source=f"{source}:{name}")
            if rows * cols != count:
                raise FormatError(
                    f"{source}: section {name!r} holds {rows * cols} values, expected {count}"
                )
            dtypes[name] = dtype

        gparams = init_generator_params(gen_cfg, _NoDraws)
        ckpt = Checkpoint(
            step=counts["step"],
            train_cfg=train_cfg,
            gen_cfg=gen_cfg,
            disc_cfg=disc_cfg,
            gen_params=gparams,
            disc_params=None,
            gen_opt=None,
            disc_opt=None,
            rng_state=rng_state,
            best_val_f1=best_val_f1,
            best_val_step=counts["best_val_step"],
        )
        if generator_only:
            arrays = _tensor_sections(_param_arrays(gparams), ({}, {}), {}, {})
        else:
            ckpt.disc_params = init_discriminator_params(disc_cfg, _NoDraws)
            ckpt.gen_opt = OptimizerState.for_params(gparams.tensors())
            ckpt.gen_opt.step = counts["gen_opt_step"]
            ckpt.disc_opt = OptimizerState.for_params(ckpt.disc_params.tensors())
            ckpt.disc_opt.step = counts["disc_opt_step"]
            arrays = _checkpoint_arrays(ckpt)
        scratch = np.empty(_SCRATCH_BYTES, dtype=np.uint8)
        for name, count in sizes.items():
            fh.seek(index[name][0] + HEADER_SIZE)
            _read_tensor(fh, name, dtypes[name], count, arrays.get(name), scratch, source)
    return ckpt


def load_checkpoint(path) -> Checkpoint:
    """Reconstruct a Checkpoint; resuming from it continues bit-exactly.

    Raises FormatError for malformed sections, including any tensor that
    holds a NaN or an infinity, and for tensor sections whose sizes
    disagree with the configs (checked before anything is allocated).
    """
    return _read_checkpoint(path, generator_only=False)


def load_generator(path) -> GeneratorParams:
    """The generator of a checkpoint, equal to load_checkpoint(path).gen_params.

    Runs every check load_checkpoint runs, on every section, but keeps
    only the generator's arrays: critic and optimizer payloads are read
    through a fixed scratch buffer and dropped.
    """
    return _read_checkpoint(path, generator_only=True).gen_params
