"""Matching-based evaluation of generated summaries.

Selected shots are matched one-to-one against ground-truth shots by
maximum-weight bipartite matching, with concept-set IoU as the edge
weight.  Precision, recall and F1 count matched pairs; queries are
averaged uniformly within each video and videos uniformly across the
split.  The report also carries the summary-length distance d (mean
over queries of the signed selected-minus-truth shot count) and the
mean per-query deviation of summary length from the target fraction.
"""

from __future__ import annotations

import json
import os
from bisect import insort
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .dataset import Corpus, embed_query
from .errors import ContractError, FormatError
from .generator import GeneratorParams, check_threshold, generator_forward, select_shots

__all__ = [
    "QueryResult",
    "EvalReport",
    "iou",
    "max_weight_matching",
    "prf",
    "evaluate",
    "evaluate_grid",
    "write_report_csv",
    "write_report_json",
    "write_length_study",
]


def iou(a, b) -> float:
    """Intersection over union of two concept sets; two empty sets give 0."""
    a, b = set(a), set(b)
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def _concept_incidence(annotations) -> np.ndarray:
    """Shots x distinct concept ids of one video, 1 where a shot carries
    the concept; repeated ids within a shot collapse, as in iou()."""
    ids = sorted({c for concepts in annotations for c in concepts})
    return np.array([[c in concepts for c in ids] for concepts in annotations],
                    dtype=np.int64).reshape(len(annotations), len(ids))


def _iou_matrix(incidence: np.ndarray, rows, cols) -> np.ndarray:
    """iou() between the shots in rows and those in cols, as one array op.

    Counts are integers, so each entry is the same correctly rounded
    quotient iou() computes; two empty concept sets give 0.
    """
    a, b = incidence[rows], incidence[cols]
    inter = a @ b.T
    union = a.sum(axis=1)[:, None] + b.sum(axis=1)[None, :] - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)


def _hungarian_min(cost: np.ndarray) -> list:
    """Optimal assignment on a square cost matrix, potentials method.

    Rows are inserted one at a time; each insertion grows an alternating
    tree over columns until a free column is found, updating the dual
    potentials by the minimum reduced cost.  O(n^3) total.  Scan order
    (rows ascending, columns ascending, strict improvement) fixes which
    optimal assignment is returned when several exist.  The scan runs on
    Python floats and visits only the columns not yet in the tree; it
    also applies the previous step's minv -= delta to those columns, the
    only ones whose minv is read again.

    Steps that cannot change the result are skipped.  The result rests
    only on < and ==, which ignore the sign of a zero, the most that
    adding a zero can change.  So a zero delta moves no potential; and
    until a nonzero delta does, a row with the costs and u of a row
    already scanned in this insertion cannot lower any minv.  Its scan is
    skipped, and the first minimum is the first later free column still
    at delta, or, failing that, the first minimum of a full search.

    Free columns are scanned by class.  Two free columns with == costs
    and == v read == values in every scan of an insertion, so they hold
    == minv and the same way throughout it, and the ascending scan picks
    the lower one first.  A class is keyed by its cost column and v, so
    signed zeros merge.  A scan visits only the lowest free column of
    each class, in ascending order, and its pick is the least
    (minv, column), the column the full scan picks; when it leaves, the
    next column of its class takes its minv and way.  After a pick at a
    zero delta, the class's next columns are picked in turn for as long
    as each one's matched row would have its scan skipped and the column
    lies below every other class's lowest free column at delta, which a
    zero-delta step leaves unchanged.  Only a nonzero delta moves a v,
    and only for columns in the tree, so the classes carry over to the
    next insertion and only those columns are regrouped.
    """
    n = cost.shape[0]
    rows = cost.tolist()
    kinds = {}
    kind = [None] + [kinds.setdefault(tuple(row), len(kinds)) for row in rows]
    col_kinds = {}
    cls = [None] + [(col_kinds.setdefault(tuple(col), len(col_kinds)), 0.0)
                    for col in cost.T.tolist()]  # cls[j]: (cost column kind, v)
    classes = {}  # class -> its columns, ascending
    for j in range(1, n + 1):
        classes.setdefault(cls[j], []).append(j)
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row matched to column j, 1-based
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [0]
        lowest = []  # the lowest free column of each class, ascending
        rest = {}  # class -> iterator over its other free columns
        for key, members in classes.items():
            rest[key] = it = iter(members)
            lowest.append(next(it))
        lowest.sort()
        delta = 0.0
        k1 = 0  # where the last step's column stood in lowest
        scanned = set()  # (kind, u) of the rows scanned since the last nonzero delta
        while True:
            i0 = p[j0]
            if delta:
                scanned.clear()
            key = (kind[i0], u[i0])
            if key in scanned:
                for j1 in islice(lowest, k1, None):
                    if minv[j1] == delta:
                        break
                else:
                    j1 = min(lowest, key=minv.__getitem__)  # the first minimum
                    delta = minv[j1]
            else:
                scanned.add(key)
                row, u_i0 = rows[i0 - 1], u[i0]
                shift, delta = delta, INF
                j1 = 0
                for j in lowest:
                    m = minv[j] - shift
                    cur = row[j - 1] - u_i0 - v[j]
                    if cur < m:
                        m = cur
                        way[j] = j0
                    minv[j] = m
                    if m < delta:
                        delta = m
                        j1 = j
            if delta:
                for j in used:
                    u[p[j]] += delta
                    v[j] -= delta
            k1 = lowest.index(j1)
            del lowest[k1]
            used.append(j1)
            it = rest[cls[j1]]
            j2 = next(it, 0)
            m, w = minv[j1], way[j1]
            if not delta:
                rival = None  # the lowest free column of another class at delta
                while j2 and p[j1] and (kind[p[j1]], u[p[j1]]) in scanned:
                    if rival is None:
                        for rival in islice(lowest, k1, None):
                            if minv[rival] == delta:
                                break
                        else:
                            rival = n + 1
                    if j2 > rival:
                        break
                    way[j2] = w
                    used.append(j2)
                    j1, j2 = j2, next(it, 0)
            if j2:
                minv[j2], way[j2] = m, w
                insort(lowest, j2, k1)
            j0 = j1
            if p[j0] == 0:
                break
        for j in used[1:]:
            old, new = cls[j], (cls[j][0], v[j])
            if new != old:
                members = classes[old]
                members.remove(j)
                if not members:
                    del classes[old]
                insort(classes.setdefault(new, []), j)
                cls[j] = new
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [(p[j] - 1, j - 1) for j in range(1, n + 1)]


def max_weight_matching(weights) -> list:
    """Maximum-weight pairs (i, j) of a rectangular weight matrix.

    The matrix is zero-padded to square and solved as a minimization of
    negated weights; pairs whose weight is exactly 0 are pruned, so the
    result only contains edges that share at least one concept.  Pairs
    come back sorted by (i, j).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ContractError(f"max_weight_matching: need a matrix, got shape {w.shape}")
    n_gen, n_gt = w.shape
    if n_gen == 0 or n_gt == 0:
        return []
    if not np.isfinite(w).all():
        raise ContractError("max_weight_matching: weights must be finite")
    n = max(n_gen, n_gt)
    square = np.zeros((n, n))
    square[:n_gen, :n_gt] = w
    assignment = _hungarian_min(-square)
    pairs = [
        (i, j)
        for i, j in assignment
        if i < n_gen and j < n_gt and w[i, j] > 0.0
    ]
    pairs.sort()
    return pairs


def prf(n_matched: int, n_gen: int, n_gt: int):
    """Precision, recall, F1 from matched-pair counts, with 0 conventions."""
    if n_matched < 0 or n_gen < 0 or n_gt < 0 or n_matched > min(n_gen, n_gt):
        raise ContractError(
            f"prf: need 0 <= n_matched <= min(n_gen, n_gt), "
            f"got matched={n_matched} gen={n_gen} gt={n_gt}"
        )
    p = n_matched / n_gen if n_gen > 0 else 0.0
    r = n_matched / n_gt if n_gt > 0 else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


@dataclass
class QueryResult:
    video_id: str
    query_index: int
    scenario: str
    precision: float
    recall: float
    f1: float
    n_selected: int
    n_gt: int
    length_dev: float
    length_delta: float


@dataclass
class EvalReport:
    split: str
    threshold: float
    rows: list
    per_video: dict
    precision: float
    recall: float
    f1: float
    d: float
    length_dev: float


# Cap on the recurrence buffers (pre-activations, hidden and cell
# states, tanh of the cell) of one stacked generator call: about
# T * 2 directions * 7 d_h * 8 bytes per query, 215 KB at desk scale
# (19 queries fit, so a video's 12 queries run as one call) and 115 MB
# at paper scale (1 query per call).
_STACK_BYTES = 4 << 20


def _query_scores(gparams: GeneratorParams, video, concepts) -> list:
    """Eval-mode scores of each of a video's queries, (T,) arrays in
    query order, from stacked generator calls that fit _STACK_BYTES."""
    per_query = video.n_shots * 2 * 7 * gparams.enc_fwd.d_h * 8
    stack = max(1, _STACK_BYTES // per_query)
    scores = []
    for lo in range(0, len(video.queries), stack):
        chunk = np.stack([embed_query(q, concepts) for q in video.queries[lo : lo + stack]])
        fwd = generator_forward(
            gparams, video.frame_feats, video.shot_feats, chunk, train=False
        )
        scores += np.split(fwd.s.data, len(chunk))
    return scores


def _query_row(video, qi: int, query, mask, incidence) -> QueryResult:
    gen_idx = np.flatnonzero(mask)
    gt_idx = np.flatnonzero(query.gt_mask)
    weights = _iou_matrix(incidence, gen_idx, gt_idx)
    matched = len(max_weight_matching(weights))
    p, r, f1 = prf(matched, gen_idx.size, gt_idx.size)
    gamma_q = float(query.gt_mask.mean())
    return QueryResult(
        video_id=video.video_id,
        query_index=qi,
        scenario=query.scenario,
        precision=p,
        recall=r,
        f1=f1,
        n_selected=int(gen_idx.size),
        n_gt=int(gt_idx.size),
        length_dev=abs(float(mask.mean()) - gamma_q),
        length_delta=float(mask.sum()) - float(gt_idx.size),
    )


def _report(split: str, threshold: float, rows: list) -> EvalReport:
    per_video = {}
    for row in rows:
        if row.n_gt > 0:
            per_video.setdefault(row.video_id, []).append((row.precision, row.recall, row.f1))
    if not per_video:
        raise ContractError(
            f"evaluate: no query in split {split!r} has a nonempty ground truth"
        )
    for vid, scored in per_video.items():
        arr = np.array(scored)
        per_video[vid] = {
            "precision": float(arr[:, 0].mean()),
            "recall": float(arr[:, 1].mean()),
            "f1": float(arr[:, 2].mean()),
            "n_queries": len(scored),
        }
    means = np.array(
        [[v["precision"], v["recall"], v["f1"]] for v in per_video.values()]
    )
    return EvalReport(
        split=split,
        threshold=threshold,
        rows=rows,
        per_video=per_video,
        precision=float(means[:, 0].mean()),
        recall=float(means[:, 1].mean()),
        f1=float(means[:, 2].mean()),
        d=abs(float(np.mean([r.length_delta for r in rows]))),
        length_dev=float(np.mean([r.length_dev for r in rows])),
    )


def evaluate_grid(
    gparams: GeneratorParams,
    corpus: Corpus,
    split: str,
    thresholds,
    predict=None,
) -> list:
    """One EvalReport per threshold, in order, from one scoring pass.

    The generator scores each video's queries once, in eval mode and in
    stacked calls; the matching pass then thresholds those scores at
    every grid value.  Queries with an empty ground-truth summary (the
    none-present scenario) appear in the per-query rows and in the
    length statistics, but are left out of the precision/recall/F1
    averages: with nothing to recover, any prediction would score 0 by
    the zero conventions and drag the averages down for the wrong
    reason.

    predict, when given, replaces the generator: called as
    predict(video, query) for every threshold and expected to return a
    binary mask over the video's shots.  Evaluation hooks and oracle
    tests use it.  Every threshold is checked before any scoring.
    """
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ContractError("evaluate_grid: no thresholds")
    for threshold in thresholds:
        check_threshold(threshold)
    videos = corpus.split_videos(split)
    if not videos:
        raise ContractError(f"evaluate: split {split!r} is empty")
    rows = [[] for _ in thresholds]
    for video in videos:
        if len(video.annotations) != video.n_shots:
            raise FormatError(
                f"evaluate: video {video.video_id} has {len(video.annotations)} "
                f"annotation entries for {video.n_shots} shots"
            )
        incidence = _concept_incidence(video.annotations)
        scores = _query_scores(gparams, video, corpus.concepts) if predict is None else None
        for threshold, out in zip(thresholds, rows):
            for qi, query in enumerate(video.queries):
                if predict is not None:
                    mask = np.asarray(predict(video, query)).astype(np.uint8)
                else:
                    mask = select_shots(scores[qi], threshold)
                out.append(_query_row(video, qi, query, mask, incidence))
    return [_report(split, th, out) for th, out in zip(thresholds, rows)]


def evaluate(
    gparams: GeneratorParams,
    corpus: Corpus,
    split: str,
    threshold: float = 0.5,
    predict=None,
) -> EvalReport:
    """Score every (video, query) of a split at one threshold; the
    one-threshold case of evaluate_grid."""
    return evaluate_grid(gparams, corpus, split, (threshold,), predict)[0]


def _atomic_write_text(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_report_csv(report: EvalReport, path) -> None:
    """Per-query rows, then per-video means, then the corpus mean."""
    lines = ["video_id,query_id,scenario,precision,recall,f1"]
    for r in report.rows:
        lines.append(
            f"{r.video_id},{r.query_index},{r.scenario},"
            f"{r.precision!r},{r.recall!r},{r.f1!r}"
        )
    for vid, v in report.per_video.items():
        lines.append(
            f"{vid},,video-mean,{v['precision']!r},{v['recall']!r},{v['f1']!r}"
        )
    lines.append(
        f",,corpus-mean,{report.precision!r},{report.recall!r},{report.f1!r}"
    )
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_report_json(report: EvalReport, path) -> None:
    payload = {
        "split": report.split,
        "threshold": report.threshold,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "d": report.d,
        "length_dev": report.length_dev,
        "per_video": report.per_video,
        "rows": [asdict(r) for r in report.rows],
    }
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_length_study(report: EvalReport, path) -> None:
    """The summary-length distances on their own, one metric per row."""
    lines = [
        "metric,value",
        f"d,{report.d!r}",
        f"length_dev,{report.length_dev!r}",
    ]
    _atomic_write_text(path, "\n".join(lines) + "\n")
