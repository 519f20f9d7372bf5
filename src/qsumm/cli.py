"""Command-line front end.

Subcommands: synth (write a synthetic corpus), train (corpus to
checkpoint plus metrics log), evaluate (checkpoint to matching report),
summarize (per-shot scores for one video and query), gradcheck (the
finite-difference verification suite).  Exit codes: 0 success, 1 usage
error, 2 runtime failure.  Config files are JSON with optional "synth",
"train" and "generator" objects; explicit flags win over file values,
which win over defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .dataset import SynthConfig, load_corpus, synth_corpus, write_corpus
from .discriminator import DiscriminatorConfig
from .errors import ConfigError, ContractError, QsummError
from .generator import GeneratorConfig, check_threshold, generator_forward, select_shots
from .gradcheck import SUITE_TOLERANCE, component_suite
from .matrix_io import parse_json, write_atomic
from .training import ABLATIONS

__all__ = ["run_cli", "main"]


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qsumm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("synth", help="generate a synthetic corpus", add_help=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--paper-scale", action="store_true",
                   help="use paper-scale feature widths as the defaults")

    p = sub.add_parser("train", help="train on a corpus")
    p.add_argument("--corpus", required=True, help="corpus manifest or directory")
    p.add_argument("--out", required=True, help="directory for metrics and checkpoints")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--ablation", choices=ABLATIONS,
                   help="train with the loss weights this ablation sets; "
                        "weights it does not set take their defaults")
    p.add_argument("--checkpoint", help="resume from this checkpoint")
    p.add_argument("--paper-scale", action="store_true",
                   help="use paper-scale model widths")

    p = sub.add_parser("evaluate", help="score a checkpoint against a corpus split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", help="directory for report files")
    p.add_argument("--length-study", action="store_true",
                   help="also write the summary-length distance table")

    p = sub.add_parser("summarize", help="per-shot scores for one video and query")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video", required=True, help="video id")
    p.add_argument("--query", required=True, type=int, help="query index")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _load_config_file(path) -> dict:
    with open(path, "rb") as fh:
        cfg = parse_json(fh.read(), ConfigError, f"{path}: not valid JSON")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(cfg) - {"synth", "train", "generator"}
    if unknown:
        raise ConfigError(f"{path}: unknown config sections {sorted(unknown)}")
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: config section {name!r} must be a JSON object")
    return cfg


def _overlay(base_cls, defaults, section: dict, source: str):
    unknown = set(section) - {f.name for f in dataclasses.fields(base_cls)}
    if unknown:
        raise ConfigError(f"{source}: unknown {base_cls.__name__} fields {sorted(unknown)}")
    try:
        return base_cls(**{**defaults, **section})
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}") from None


def _corpus_manifest(path) -> str:
    if os.path.isdir(path):
        return os.path.join(path, "manifest.json")
    return path


def _cmd_synth(args) -> int:
    base = SynthConfig.paper_scale() if args.paper_scale else SynthConfig()
    section = {}
    if args.config:
        section = _load_config_file(args.config).get("synth", {})
    cfg = _overlay(SynthConfig, dataclasses.asdict(base), section, args.config or "<flags>")
    corpus = synth_corpus(cfg, seed=args.seed)
    manifest = write_corpus(corpus, args.out)
    print(f"wrote {len(corpus.videos)} videos to {manifest}")
    return 0


def _cmd_train(args) -> int:
    from .training import TrainConfig, load_checkpoint, train

    if args.checkpoint and args.paper_scale:
        raise ConfigError(
            "--paper-scale cannot be combined with --checkpoint: "
            "a resumed run keeps the model widths of its checkpoint"
        )
    sections = _load_config_file(args.config) if args.config else {}
    if args.checkpoint and "generator" in sections:
        raise ConfigError(
            f"{args.config}: a generator section cannot be combined with --checkpoint: "
            "a resumed run keeps the generator config of its checkpoint"
        )
    source = args.config or "<flags>"
    # a resumed run keeps its own config, and the file and flags change it
    resume = load_checkpoint(args.checkpoint) if args.checkpoint else None
    base = resume.train_cfg if resume is not None else TrainConfig()
    cfg = _overlay(TrainConfig, dataclasses.asdict(base), sections.get("train", {}), source)
    overrides = {}
    if args.ablation is not None:
        # every ablation weight: the variant's own, or else its default
        defaults = TrainConfig()
        overrides = {k: getattr(defaults, k) for w in ABLATIONS.values() for k in w}
        overrides.update(ABLATIONS[args.ablation])
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = dataclasses.replace(cfg, **overrides)

    corpus = load_corpus(_corpus_manifest(args.corpus))
    # a fresh run lays the file's generator section over the corpus's
    # widths and the run's tau, and train() rejects widths or a tau that
    # disagree with those; a resume keeps its checkpoint's configs
    gen_cfg = disc_cfg = None
    if resume is None:
        scale = GeneratorConfig.paper_scale if args.paper_scale else GeneratorConfig
        gen_cfg = _overlay(GeneratorConfig,
                           dataclasses.asdict(scale(**corpus.dims, tau=cfg.tau)),
                           sections.get("generator", {}), source)
    if args.paper_scale:
        disc_cfg = DiscriminatorConfig.paper_scale(gen_cfg)
    result = train(corpus, cfg, gen_cfg=gen_cfg, disc_cfg=disc_cfg,
                   out_dir=args.out, resume=resume)
    last = result.metrics[-1] if result.metrics else None
    print(f"trained to step {result.checkpoint.step}, checkpoint at {result.checkpoint_path}")
    if last is not None:
        print(f"final losses: critic={last.critic_loss!r} total_gen={last.total_gen!r}")
    return 0


def _cmd_evaluate(args) -> int:
    from .evaluation import (
        evaluate,
        write_length_study,
        write_report_csv,
        write_report_json,
    )
    from .training import load_generator

    if args.length_study and not args.out:
        raise UsageError("--length-study requires --out")
    check_threshold(args.threshold)
    corpus = load_corpus(_corpus_manifest(args.corpus))
    gparams = load_generator(args.checkpoint)
    report = evaluate(gparams, corpus, args.split, threshold=args.threshold)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_report_csv(report, os.path.join(args.out, "report.csv"))
        write_report_json(report, os.path.join(args.out, "report.json"))
        if args.length_study:
            write_length_study(report, os.path.join(args.out, "length_study.csv"))
    print(
        f"split={report.split} precision={report.precision:.4f} "
        f"recall={report.recall:.4f} f1={report.f1:.4f} "
        f"d={report.d:.4f} length_dev={report.length_dev:.4f}"
    )
    return 0


def _cmd_summarize(args) -> int:
    from .dataset import embed_query
    from .training import load_generator

    check_threshold(args.threshold)
    corpus = load_corpus(_corpus_manifest(args.corpus))
    gparams = load_generator(args.checkpoint)
    video = corpus.video_by_id(args.video)
    if not 0 <= args.query < len(video.queries):
        raise ContractError(
            f"video {args.video!r} has {len(video.queries)} queries, "
            f"index {args.query} is out of range"
        )
    query = video.queries[args.query]
    fwd = generator_forward(
        gparams, video.frame_feats, video.shot_feats,
        embed_query(query, corpus.concepts), train=False,
    )
    s, k = fwd.s.data[0], fwd.k.data[0]
    selected = select_shots(s, args.threshold)
    lines = ["shot,score,gate,selected"]
    for t in range(video.n_shots):
        lines.append(f"{t},{float(s[t])!r},{float(k[t])!r},{int(selected[t])}")
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, text)
        print(f"wrote {int(selected.sum())} selected shots to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args) -> int:
    results = component_suite(seed=args.seed)
    failed = []
    for name, err in results.items():
        status = "ok" if err < SUITE_TOLERANCE else "FAIL"
        print(f"{name:20s} {err:12.4e}  {status}")
        if err >= SUITE_TOLERANCE:
            failed.append(name)
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return 2
    print(f"all {len(results)} components below {SUITE_TOLERANCE:g}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "summarize": _cmd_summarize,
    "gradcheck": _cmd_gradcheck,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        # argparse exits directly for --help
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (QsummError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
