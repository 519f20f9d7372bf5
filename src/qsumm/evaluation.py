"""Matching-based evaluation of generated summaries.

Selected shots are matched one-to-one against ground-truth shots by
maximum-weight bipartite matching, with concept-set IoU as the edge
weight; of the matchings of maximum weight, one with the most pairs
counts.  Precision, recall and F1 count matched pairs; queries are
averaged uniformly within each video and videos uniformly across the
split.  The report also carries the summary-length distance d (mean
over queries of the signed selected-minus-truth shot count) and the
mean per-query deviation of summary length from the target fraction.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .dataset import Corpus, embed_query
from .errors import ContractError, FormatError
from .generator import GeneratorParams, check_threshold, generator_forward, select_shots
from .matrix_io import write_atomic

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


def _iou_table(annotations):
    """Each shot's index among a video's distinct concept sets, in order
    of first occurrence, and the iou() of every two of those sets: the
    IoU of shots i and j is table[index[i], index[j]].

    Counts are integers, so each entry is the same correctly rounded
    quotient iou() computes; two empty concept sets give 0.
    """
    sets = {}
    index = np.array([sets.setdefault(frozenset(c), len(sets)) for c in annotations],
                     dtype=np.intp)
    inc = _concept_incidence(list(sets))
    inter = inc @ inc.T
    sizes = inc.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    return index, np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)


def _exact_ratio(x: float) -> tuple:
    """x > 0 as (numerator, denominator) in lowest terms: the fraction q
    of denominator <= 2**26 nearest to x when q rounds back to x, and x's
    own binary fraction otherwise.

    q is Fraction(x).limit_denominator(2**26), computed in plain ints:
    the continued-fraction convergents of x up to the bound, then the
    nearer of the last convergent p1/q1 and the semiconvergent beyond
    it, p1/q1 on a tie.  Their distance apart is 1/(q1*(q0+k*q1)) and
    p1/q1's from x is rest/(q1*den), so p1/q1 wins when
    2*rest*(q0+k*q1) <= den.
    """
    num, den = x.as_integer_ratio()
    limit = 1 << 26
    if den <= limit:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, rest = num, den
    while (q2 := q0 + (a := n // rest) * q1) <= limit:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, rest = rest, n - a * rest
    k = (limit - q0) // q1
    if 2 * rest * (q0 + k * q1) > den:
        p1, q1 = p0 + k * p1, q0 + k * q1
    return (p1, q1) if p1 / q1 == x else (num, den)


def _integer_weights(values, k: int) -> dict:
    """Exact integer weights of a matrix's distinct positive values.

    Each value x reads as _exact_ratio(x), so an IoU a/b reads exactly
    as a/b.  Over L, the lcm of the values' denominators, a/b weighs
    a*(L/b)*k + 1: with k above the largest possible matching size, a
    heavier integer total is a heavier exact total or, at an equal one,
    more pairs.
    """
    exact = {x: _exact_ratio(x) for x in values}
    scale = math.lcm(*(den for _, den in exact.values()))
    return {x: num * (scale // den) * k + 1 for x, (num, den) in exact.items()}


def _transport(profit, supply, demand) -> list:
    """Max-profit flows from kinds to classes, exact in Python ints.

    Kind r offers supply[r] units, class c takes at most demand[c], and
    a unit sent from r to c gains profit[r][c] > 0; 0 marks no edge.
    This is min-cost flow on costs -profit by successive shortest paths.
    A unit ends in a class with demand left or, unmatched and at no
    gain, in a sink.  Each round runs Dijkstra on reduced costs from one
    kind with supply left until it reaches such an end, and sends the
    bottleneck amount along the path.  Every end keeps the sink's
    potential, so the first end reached is the nearest.  An edge that
    carries flow has reduced cost 0 both ways, so the kinds a full class
    sends back to are reached at its distance, and only classes queue.
    A round sends at least one unit and costs O(kinds * classes), so a
    matrix without repeats takes O(n^3).  Returns the kinds x classes
    flow table.
    """
    nk, nc = len(supply), len(demand)
    supply, demand = list(supply), list(demand)
    edges = [[(c, p) for c, p in enumerate(row) if p] for row in profit]
    pot_k = [max(row) for row in profit]
    pot_c = [0] * (nc + 1)  # classes, then the sink
    into = [{} for _ in range(nc)]  # into[c][r]: units sent from kind r to class c
    unreached = [float("inf")] * (nc + 1)
    every = list(range(nc + 1))
    prev = [0] * (nc + 1)  # the kind a class or the sink was reached from
    back = [None] * nk  # the class a kind was reached back from, -1: the source
    for source in range(nk):
        while supply[source]:
            dist, todo = unreached[:], every[:]
            back[source] = -1
            reached, popped = [source], []  # kinds and left-behind classes, in order
            frontier, du = reached, 0
            while True:
                for r in frontier:
                    base = du + pot_k[r]
                    for c, p in edges[r]:
                        if (d := base - p - pot_c[c]) < dist[c]:
                            dist[c], prev[c] = d, r
                    if (d := base - pot_c[nc]) < dist[nc]:
                        dist[nc], prev[nc] = d, r
                end = min(todo, key=dist.__getitem__)
                du = dist[end]
                if end == nc or demand[end]:
                    break
                todo.remove(end)
                popped.append(end)
                frontier = [r for r in into[end] if back[r] is None]
                for r in frontier:
                    back[r] = end
                reached += frontier
            # Dijkstra's potential update, min(dist, du), shifted by -du:
            # every reduced cost stays as it was, and what was not reached
            # keeps its potential
            for c in popped:
                pot_c[c] += dist[c] - du
            for r in reached:
                pot_k[r] += (dist[back[r]] if r != source else 0) - du
            units, r = supply[source], prev[end]
            if end < nc:
                units = min(units, demand[end])
            while r != source:
                units = min(units, into[back[r]][r])
                r = prev[back[r]]
            supply[source] -= units
            if end < nc:
                demand[end] -= units
            c = end
            while c != -1:
                r = prev[c]
                if c < nc:
                    into[c][r] = into[c].get(r, 0) + units
                c = back[r]
                if c != -1:
                    into[c][r] -= units
                    if not into[c][r]:
                        del into[c][r]
            for r in reached:
                back[r] = None
    return [[flows.get(r, 0) for flows in into] for r in range(nk)]


def max_weight_matching(weights) -> list:
    """Pairs (i, j) of a maximum-weight matching of a rectangular matrix,
    and among those of one with the most pairs.

    Only positive entries are edges, and weights compare as the exact
    fractions _integer_weights reads them as.  So [[1, .5], [.5, 0]]
    gives [(0, 1), (1, 0)], and three pairs at IoU 1/3 tie two at IoU
    1/2 and win, although 3 * fl(1/3) < 1.  Rows and columns without a
    positive entry drop out.  Equal rows form kinds and equal columns
    classes, each in order of first occurrence: lines are compared by
    the bytes of their values with -0.0 read as 0.0, so lines are equal
    when their values compare equal.  _transport solves the problem once
    over kinds x classes.  Each kind-class flow becomes pairs of the
    kind's lowest unused rows with the class's lowest unused columns.
    Pairs come back sorted.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ContractError(f"max_weight_matching: need a matrix, got shape {w.shape}")
    n_gen, n_gt = w.shape
    if n_gen == 0 or n_gt == 0:
        return []
    if not np.isfinite(w).all():
        raise ContractError("max_weight_matching: weights must be finite")
    w = w + 0.0  # -0.0 + 0.0 is 0.0, so lines whose values compare equal have equal bytes
    pos = w > 0.0
    kinds, classes = {}, {}
    for lines, live, group in ((w, pos.any(axis=1), kinds), (w.T, pos.any(axis=0), classes)):
        idx = np.flatnonzero(live)
        # each line with a positive entry as one bytes object
        keys = np.ascontiguousarray(lines[idx]).view(f"V{8 * lines.shape[1]}").ravel()
        for i, key in zip(idx.tolist(), keys.tolist()):
            group.setdefault(key, []).append(i)
    if not kinds:
        return []
    kinds, classes = list(kinds.values()), list(classes.values())
    table = w[[m[0] for m in kinds]][:, [m[0] for m in classes]].tolist()
    weight = _integer_weights({x for row in table for x in row if x > 0.0},
                              min(n_gen, n_gt) + 1)
    flow = _transport([[weight.get(x, 0) for x in row] for row in table],
                      [len(m) for m in kinds], [len(m) for m in classes])
    unused = [iter(m) for m in classes]
    pairs = []
    for rows, sent in zip(kinds, flow):
        free = iter(rows)
        for taken, units in zip(unused, sent):
            if units:
                pairs += zip(islice(free, units), islice(taken, units))
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


# Cap on the recurrence buffers of one stacked generator call.  Scoring
# runs with no tape: per query the kernel holds one block of the running
# loop's pre-activations, that loop's hidden states and the output,
# T * 12 d_h * 8 bytes at desk scale (both directions in one loop and
# T=60 in one block, 184 KB) and T * 3 d_h * 8 plus an 8 MB block at
# paper scale (one direction per loop, 33 MB).  _query_scores counts
# T * 2 * 7 d_h * 8, an upper bound: 215 KB at desk scale (19 queries
# fit, so a video's 12 queries run as one call) and 115 MB at paper
# scale (1 query per call).
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
        scores += list(fwd.s.data)
    return scores


def _query_row(video, qi: int, query, gen_idx, index, table) -> QueryResult:
    gt_idx = np.flatnonzero(query.gt_mask)
    weights = table[index[gen_idx]][:, index[gt_idx]]
    matched = len(max_weight_matching(weights))
    n_selected, n_gt = gen_idx.size, gt_idx.size
    p, r, f1 = prf(matched, n_selected, n_gt)
    return QueryResult(
        video_id=video.video_id,
        query_index=qi,
        scenario=query.scenario,
        precision=p,
        recall=r,
        f1=f1,
        n_selected=n_selected,
        n_gt=n_gt,
        length_dev=abs(n_selected / video.n_shots - n_gt / video.n_shots),
        length_delta=float(n_selected - n_gt),
    )


def _predicted_mask(video, qi: int, mask) -> np.ndarray:
    """A predict hook's mask, checked to be one 0 or 1 per shot."""
    mask = np.asarray(mask)
    where = f"evaluate: predict for video {video.video_id} query {qi}"
    if mask.shape != (video.n_shots,):
        raise ContractError(f"{where} gave shape {mask.shape}, need ({video.n_shots},)")
    if not (mask.dtype == np.bool_ or np.issubdtype(mask.dtype, np.number)) \
            or not ((mask == 0) | (mask == 1)).all():
        raise ContractError(f"{where} gave entries other than 0 and 1")
    return mask


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

    Each video's distinct concept sets get one IoU table, so a query's
    IoU matrix is two lookups into it.

    predict, when given, replaces the generator: called as
    predict(video, query) for every threshold, it must return a mask of
    shape (n_shots,) whose entries, bool or numeric, are 0 or 1; any
    other mask raises ContractError.  Evaluation hooks and oracle tests
    use it.  Every threshold is checked before any scoring.
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
        if not video.n_shots:
            raise ContractError(f"evaluate: video {video.video_id} has no shots")
        if len(video.annotations) != video.n_shots:
            raise FormatError(
                f"evaluate: video {video.video_id} has {len(video.annotations)} "
                f"annotation entries for {video.n_shots} shots"
            )
        index, table = _iou_table(video.annotations)
        scores = _query_scores(gparams, video, corpus.concepts) if predict is None else None
        for threshold, out in zip(thresholds, rows):
            for qi, query in enumerate(video.queries):
                if predict is not None:
                    mask = _predicted_mask(video, qi, predict(video, query))
                else:
                    mask = select_shots(scores[qi], threshold)
                out.append(_query_row(video, qi, query, np.flatnonzero(mask), index, table))
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


def write_report_csv(report: EvalReport, path) -> None:
    """Per-query rows, then per-video means, then the corpus mean.

    Fields are quoted as CSV needs, so a video id holding a comma or a
    quote stays one field.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["video_id", "query_id", "scenario", "precision", "recall", "f1"])
    for r in report.rows:
        writer.writerow([r.video_id, r.query_index, r.scenario,
                         repr(r.precision), repr(r.recall), repr(r.f1)])
    for vid, v in report.per_video.items():
        writer.writerow([vid, "", "video-mean", repr(v["precision"]), repr(v["recall"]),
                         repr(v["f1"])])
    writer.writerow(["", "", "corpus-mean", repr(report.precision), repr(report.recall),
                     repr(report.f1)])
    write_atomic(path, buf.getvalue())


def write_report_json(report: EvalReport, path) -> None:
    write_atomic(path, json.dumps(asdict(report), sort_keys=True, indent=1) + "\n")


def write_length_study(report: EvalReport, path) -> None:
    """The summary-length distances on their own, one metric per row."""
    lines = [
        "metric,value",
        f"d,{report.d!r}",
        f"length_dev,{report.length_dev!r}",
    ]
    write_atomic(path, "\n".join(lines) + "\n")
