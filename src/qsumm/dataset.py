"""Corpus model, file formats, query embedding, and the planted synthetic corpus.

A corpus is a set of videos, each a sequence of T shots carrying two
feature rows (frame-level and shot-level) plus concept annotations, and a
list of two-concept queries with ground-truth summary masks.  The
synthetic generator plants concept-dependent signal directions into the
features so a query's relevant shots are statistically recoverable, and
guarantees one query per scenario:

  both-same-shot        both concepts annotated together on some shot
  both-different-shots  both present in the video, never on the same shot
  one-present           first concept present, second absent from the video
  none-present          neither concept present; zero query vector, empty mask
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConceptLookupError,
    ConfigError,
    ContractError,
    FormatError,
    GenerationError,
    QsummError,
    bounded,
    check_fields,
    is_json_int,
)
from .matrix_io import load_feature_matrix, parse_json, write_atomic, write_matrix
from .rng import STREAMS, stream_rng

__all__ = [
    "SCENARIOS",
    "Query",
    "ConceptTable",
    "Video",
    "Corpus",
    "TrainingBatch",
    "SynthConfig",
    "embed_query",
    "gamma_of",
    "synth_corpus",
    "write_corpus",
    "load_corpus",
    "sample_batch",
]

SCENARIOS = ("both-same-shot", "both-different-shots", "one-present", "none-present")

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "qsumm-corpus"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class Query:
    concept_a: int
    concept_b: int
    scenario: str
    gt_mask: np.ndarray  # uint8, length T


@dataclass
class ConceptTable:
    embeddings: np.ndarray  # (n_concepts, d_text) float64, so embed_query sums in float64
    names: list

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    def vector(self, concept_id: int) -> np.ndarray:
        if not 0 <= concept_id < len(self):
            raise ConceptLookupError(
                f"concept id {concept_id} outside table of {len(self)}"
            )
        return self.embeddings[concept_id]


@dataclass
class Video:
    video_id: str
    # float32 as synthesized or loaded from QSFM v1; generator_forward
    # takes any float dtype and widens the rows it reads to float64
    frame_feats: np.ndarray  # (T, d_frame)
    shot_feats: np.ndarray  # (T, d_shot)
    annotations: list  # per shot, tuple of concept ids
    queries: list  # of Query

    @property
    def n_shots(self) -> int:
        return self.frame_feats.shape[0]


@dataclass
class Corpus:
    videos: list
    concepts: ConceptTable
    splits: dict  # split name -> list of video ids
    dims: dict  # d_frame, d_shot, d_text
    rng_info: dict = field(default_factory=dict)

    def video_by_id(self, video_id: str) -> Video:
        for v in self.videos:
            if v.video_id == video_id:
                return v
        raise ContractError(f"no video {video_id!r} in corpus")

    def split_videos(self, split: str) -> list:
        if split not in self.splits:
            raise ConfigError(f"unknown split {split!r}, expected one of {sorted(self.splits)}")
        return [self.video_by_id(vid) for vid in self.splits[split]]


@dataclass(frozen=True)
class TrainingBatch:
    video_id: str
    query_index: int
    query: Query
    start: int
    length: int
    frame: np.ndarray  # (L, d_frame)
    shot: np.ndarray  # (L, d_shot)
    query_emb: np.ndarray  # (d_text,)
    gt: np.ndarray  # (L,) float64 in {0, 1}
    gamma: float


@dataclass(frozen=True)
class SynthConfig:
    n_videos: int = bounded(8, ge=1)
    n_shots: int = bounded(60, ge=1)
    n_concepts: int = bounded(12, ge=4)
    # four queries cover the four scenarios
    n_queries: int = bounded(12, ge=4)
    d_frame: int = bounded(32, ge=1)
    d_shot: int = bounded(48, ge=1)
    d_text: int = bounded(16, ge=1)
    relevance_strength: float = bounded(3.0, ge=0)

    def __post_init__(self):
        check_fields(self, "synth")

    @classmethod
    def paper_scale(cls, **overrides) -> "SynthConfig":
        """1000-shot videos with the paper's feature widths, which
        GeneratorConfig.paper_scale takes from here."""
        base = dict(
            d_frame=2048, d_shot=4096, d_text=300,
            n_shots=1000, n_concepts=48, n_queries=46,
        )
        base.update(overrides)
        return cls(**base)


def embed_query(query: Query, table: ConceptTable) -> np.ndarray:
    """Sum of the two concept vectors; all-zeros for none-present queries."""
    if query.scenario == "none-present":
        return np.zeros(table.embeddings.shape[1])
    return table.vector(query.concept_a) + table.vector(query.concept_b)


def gamma_of(gt_mask) -> float:
    """Fraction of key shots in a mask."""
    mask = np.asarray(gt_mask)
    if mask.size == 0:
        raise ContractError("gamma_of: empty mask")
    return float(mask.mean())


def _unit_rows(rng, n: int, d: int) -> np.ndarray:
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _annotate_video(rng, cfg: SynthConfig, pool: np.ndarray) -> list:
    """Assign 0-2 pool concepts to each shot, in contiguous runs.

    Footage keeps a concept on screen across consecutive shots, so
    annotations come as variable-length runs (2-5 shots) sharing one
    concept set; each run carries 0, 1, or 2 pool concepts.
    """
    out = []
    while len(out) < cfg.n_shots:
        run = int(rng.integers(2, 6))
        k = int(rng.choice([0, 1, 2], p=[0.3, 0.45, 0.25]))
        if k == 0:
            concepts = ()
        else:
            picked = rng.choice(pool, size=k, replace=False)
            concepts = tuple(sorted(int(c) for c in picked))
        out.extend([concepts] * run)
    return out[: cfg.n_shots]


def _scenario_queries(rng, cfg: SynthConfig, annotations: list, pool: np.ndarray):
    """Pick concept pairs for up to cfg.n_queries queries, or None if this
    annotation draw cannot support the two both-present scenarios.

    The first four queries cover the scenarios once each in a fixed order.
    Further queries cycle the three scenarios with at least one present
    concept over fresh pairs, drawn without replacement, so each present
    concept tends to be asked about several times.  A second none-present
    query would embed to the same zero vector as the first, so only one is
    ever emitted.  Small videos may exhaust their pairs early and carry
    fewer than cfg.n_queries queries.
    """
    shots_with = {int(c): set() for c in pool}
    for t, concepts in enumerate(annotations):
        for c in concepts:
            shots_with[c].add(t)
    present = sorted(c for c, s in shots_with.items() if s)
    absent = sorted(set(range(cfg.n_concepts)) - set(present))

    same, diff = [], []
    for ia, a in enumerate(present):
        for b in present[ia + 1 :]:
            inter = shots_with[a] & shots_with[b]
            if inter:
                same.append((a, b))
            else:
                diff.append((a, b))
    if not same or not diff or not present or len(absent) < 2:
        return None

    pairs = {}
    pairs["both-same-shot"] = same[int(rng.integers(len(same)))]
    pairs["both-different-shots"] = diff[int(rng.integers(len(diff)))]
    a_one = present[int(rng.integers(len(present)))]
    b_one = absent[int(rng.integers(len(absent)))]
    pairs["one-present"] = (a_one, b_one)
    two = rng.choice(len(absent), size=2, replace=False)
    pairs["none-present"] = (absent[int(two[0])], absent[int(two[1])])

    chosen = [(scenario, pairs[scenario]) for scenario in SCENARIOS]
    spare = {
        "both-same-shot": [p for p in same if p != pairs["both-same-shot"]],
        "both-different-shots": [p for p in diff if p != pairs["both-different-shots"]],
        "one-present": [
            (a, b) for a in present for b in absent if (a, b) != pairs["one-present"]
        ],
    }
    cycle = ("both-same-shot", "both-different-shots", "one-present")
    turn = 0
    while len(chosen) < cfg.n_queries and any(spare[s] for s in cycle):
        scenario = cycle[turn % len(cycle)]
        turn += 1
        if spare[scenario]:
            k = int(rng.integers(len(spare[scenario])))
            chosen.append((scenario, spare[scenario].pop(k)))

    queries = []
    for scenario, (a, b) in chosen:
        if scenario == "none-present":
            mask = np.zeros(cfg.n_shots, dtype=np.uint8)
        else:
            mask = np.array(
                [1 if (a in cs or b in cs) else 0 for cs in annotations], dtype=np.uint8
            )
        queries.append(Query(concept_a=a, concept_b=b, scenario=scenario, gt_mask=mask))
    return queries


def synth_corpus(cfg: SynthConfig, seed: int) -> Corpus:
    """Generate a planted corpus; deterministic in (cfg, seed).

    Shot features are strength-scaled sums of per-concept signal directions
    plus unit Gaussian noise, kept as float32, the dtype that QSFM v1
    writes and load_corpus returns, so a written corpus loads back equal.
    The concept table holds float32 values in float64.
    """
    rng = stream_rng(seed, "corpus")
    concept_emb = _unit_rows(rng, cfg.n_concepts, cfg.d_text)
    frame_dirs = _unit_rows(rng, cfg.n_concepts, cfg.d_frame)
    shot_dirs = _unit_rows(rng, cfg.n_concepts, cfg.d_shot)
    names = [f"c{idx:02d}" for idx in range(cfg.n_concepts)]
    table = ConceptTable(embeddings=concept_emb.astype(np.float32).astype(np.float64), names=names)

    pool_size = max(2, min(cfg.n_concepts - 2, 6))
    videos = []
    for vi in range(cfg.n_videos):
        queries = None
        for _attempt in range(200):
            pool = np.sort(rng.choice(cfg.n_concepts, size=pool_size, replace=False))
            annotations = _annotate_video(rng, cfg, pool)
            queries = _scenario_queries(rng, cfg, annotations, pool)
            if queries is not None:
                break
        if queries is None:
            raise GenerationError(
                f"could not cover all four query scenarios for video {vi} "
                f"with n_concepts={cfg.n_concepts}, n_shots={cfg.n_shots}"
            )
        frame = rng.standard_normal((cfg.n_shots, cfg.d_frame))
        shot = rng.standard_normal((cfg.n_shots, cfg.d_shot))
        for t, concepts in enumerate(annotations):
            for c in concepts:
                frame[t] += cfg.relevance_strength * frame_dirs[c]
                shot[t] += cfg.relevance_strength * shot_dirs[c]
        videos.append(
            Video(
                video_id=f"v{vi:03d}",
                frame_feats=frame.astype(np.float32),
                shot_feats=shot.astype(np.float32),
                annotations=annotations,
                queries=queries,
            )
        )

    ids = [v.video_id for v in videos]
    if len(ids) >= 3:
        splits = {"train": ids[:-2], "val": [ids[-2]], "test": [ids[-1]]}
    else:
        splits = {"train": ids, "val": ids[-1:], "test": ids[-1:]}
    return Corpus(
        videos=videos,
        concepts=table,
        splits=splits,
        dims={"d_frame": cfg.d_frame, "d_shot": cfg.d_shot, "d_text": cfg.d_text},
        rng_info={"generator": "PCG64", "seed": int(seed), "streams": dict(STREAMS)},
    )


def write_corpus(corpus: Corpus, out_dir) -> str:
    """Write feature files plus manifest.json into out_dir; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    concepts_file = "concepts.qsfm"
    write_matrix(os.path.join(out_dir, concepts_file), corpus.concepts.embeddings)
    video_entries = []
    for v in corpus.videos:
        frame_file = f"{v.video_id}_frame.qsfm"
        shot_file = f"{v.video_id}_shot.qsfm"
        write_matrix(os.path.join(out_dir, frame_file), v.frame_feats)
        write_matrix(os.path.join(out_dir, shot_file), v.shot_feats)
        video_entries.append(
            {
                "id": v.video_id,
                "n_shots": v.n_shots,
                "frame_feat": frame_file,
                "shot_feat": shot_file,
                "annotations": [list(c) for c in v.annotations],
                "queries": [
                    {
                        "concept_a": q.concept_a,
                        "concept_b": q.concept_b,
                        "scenario": q.scenario,
                        "gt_mask": q.gt_mask.astype(int).tolist(),
                    }
                    for q in v.queries
                ],
            }
        )
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "dims": corpus.dims,
        "rng": corpus.rng_info,
        "concepts": {"path": concepts_file, "names": list(corpus.concepts.names)},
        "videos": video_entries,
        "splits": corpus.splits,
    }
    path = os.path.join(out_dir, MANIFEST_NAME)
    write_atomic(path, json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return path


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _require_concept(c, n_concepts: int, where: str) -> None:
    _require(is_json_int(c), f"{where}: concept id {c!r} is not an integer")
    _require(0 <= c < n_concepts, f"{where}: dangling concept id {c}")


def load_corpus(manifest_path) -> Corpus:
    """Load and validate a corpus from its manifest.

    Raises FormatError for a manifest that does not parse as a corpus,
    including one with a missing field or a field of the wrong type.
    """
    try:
        return _load_corpus(manifest_path)
    except QsummError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError) as e:
        raise FormatError(
            f"{manifest_path}: malformed manifest ({type(e).__name__}: {e})"
        ) from None


def _load_corpus(manifest_path) -> Corpus:
    with open(manifest_path, "rb") as fh:
        manifest = parse_json(fh.read(), FormatError,
                              f"{manifest_path}: manifest is not UTF-8 JSON")
    base = os.path.dirname(os.path.abspath(manifest_path))
    _require(manifest.get("format") == MANIFEST_FORMAT, f"{manifest_path}: not a corpus manifest")
    _require(
        manifest.get("version") == MANIFEST_VERSION,
        f"{manifest_path}: unsupported manifest version {manifest.get('version')}",
    )
    dims = manifest.get("dims")
    _require(
        isinstance(dims, dict) and {"d_frame", "d_shot", "d_text"} <= dims.keys(),
        f"{manifest_path}: manifest needs dims with d_frame, d_shot and d_text",
    )
    for key in ("d_frame", "d_shot", "d_text"):
        _require(
            is_json_int(dims[key]) and dims[key] >= 1,
            f"{manifest_path}: dims {key} must be a positive integer, got {dims[key]!r}",
        )
    d_frame, d_shot, d_text = dims["d_frame"], dims["d_shot"], dims["d_text"]

    cinfo = manifest["concepts"]
    emb = load_feature_matrix(os.path.join(base, cinfo["path"]))
    names = list(cinfo["names"])
    _require(
        emb.shape == (len(names), d_text),
        f"concept table: file is {emb.shape[0]}x{emb.shape[1]}, "
        f"manifest declares {len(names)} names and d_text={d_text}",
    )
    _require(
        np.isfinite(emb).all(),
        f"concept table: embedding file {cinfo['path']} holds non-finite values",
    )
    table = ConceptTable(embeddings=emb.astype(np.float64), names=names)
    n_concepts = len(table)

    videos = []
    ids = set()
    for entry in manifest["videos"]:
        vid = entry["id"]
        _require(isinstance(vid, str) and vid != "",
                 f"video id {vid!r} must be a nonempty string")
        _require(vid not in ids, f"video id {vid!r} is listed twice")
        ids.add(vid)
        frame = load_feature_matrix(os.path.join(base, entry["frame_feat"]))
        shot = load_feature_matrix(os.path.join(base, entry["shot_feat"]))
        T = entry["n_shots"]
        files = (("frame", frame, d_frame), ("shot", shot, d_shot))
        for kind, feats, d in files:
            _require(
                feats.shape == (T, d),
                f"video {vid}: {kind} features are {feats.shape[0]}x{feats.shape[1]}, "
                f"expected {T}x{d}",
            )
        # every shape is checked before any file is scanned for non-finite values
        for kind, feats, _ in files:
            _require(
                np.isfinite(feats).all(),
                f"video {vid}: feature file {entry[kind + '_feat']} holds non-finite values",
            )
        _require(
            len(entry["annotations"]) == T,
            f"video {vid}: {len(entry['annotations'])} annotation rows for {T} shots",
        )
        annotations = []
        for t, concepts in enumerate(entry["annotations"]):
            for c in concepts:
                _require_concept(c, n_concepts, f"video {vid} shot {t}")
            annotations.append(tuple(concepts))
        queries = []
        for qi, q in enumerate(entry["queries"]):
            scenario = q["scenario"]
            _require(
                scenario in SCENARIOS,
                f"video {vid} query {qi}: unknown scenario {scenario!r}",
            )
            a, b = q["concept_a"], q["concept_b"]
            for c in (a, b):
                _require_concept(c, n_concepts, f"video {vid} query {qi}")
            _require(a != b, f"video {vid} query {qi}: repeated concept {a}")
            gt = q["gt_mask"]
            _require(
                isinstance(gt, list) and all(is_json_int(v) and v in (0, 1) for v in gt),
                f"video {vid} query {qi}: gt mask entries must be the integers 0 and 1",
            )
            mask = np.array(gt, dtype=np.uint8)
            _require(
                mask.shape == (T,),
                f"video {vid} query {qi}: gt mask has {mask.size} entries for {T} shots",
            )
            _require(
                scenario == "none-present" or mask.sum() >= 1,
                f"video {vid} query {qi}: scenario {scenario} needs a nonempty gt mask",
            )
            queries.append(Query(concept_a=a, concept_b=b, scenario=scenario, gt_mask=mask))
        videos.append(
            Video(
                video_id=vid,
                frame_feats=frame,
                shot_feats=shot,
                annotations=annotations,
                queries=queries,
            )
        )

    splits = {k: list(v) for k, v in manifest["splits"].items()}
    for name, members in splits.items():
        seen = set()
        for m in members:
            _require(m in ids, f"split {name!r} references unknown video {m!r}")
            _require(m not in seen, f"split {name!r} lists video {m!r} twice")
            seen.add(m)

    return Corpus(
        videos=videos,
        concepts=table,
        splits=splits,
        dims={"d_frame": d_frame, "d_shot": d_shot, "d_text": d_text},
        rng_info=manifest.get("rng", {}),
    )


def sample_batch(corpus: Corpus, rng, segment_len: int) -> TrainingBatch:
    """Uniform train video with a query, uniform query, uniform contiguous
    window of shots.  Videos without queries are never drawn."""
    if segment_len < 1:
        raise ConfigError(f"sample_batch: segment_len must be >= 1, got {segment_len}")
    videos = [v for v in corpus.split_videos("train") if v.queries]
    if not videos:
        raise ContractError("sample_batch: split 'train' has no video with a query")
    video = videos[int(rng.integers(len(videos)))]
    qi = int(rng.integers(len(video.queries)))
    query = video.queries[qi]
    T = video.n_shots
    length = min(segment_len, T)
    start = int(rng.integers(T - length + 1))
    gt = query.gt_mask[start : start + length].astype(np.float64)
    return TrainingBatch(
        video_id=video.video_id,
        query_index=qi,
        query=query,
        start=start,
        length=length,
        frame=video.frame_feats[start : start + length],
        shot=video.shot_feats[start : start + length],
        query_emb=embed_query(query, corpus.concepts),
        gt=gt,
        gamma=gamma_of(gt),
    )
