import csv
import dataclasses
import itertools
import json
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsumm import evaluation
from qsumm.dataset import Corpus, SynthConfig, embed_query, synth_corpus
from qsumm.errors import ConfigError, ContractError, FormatError
from qsumm.evaluation import (
    EvalReport,
    QueryResult,
    _concept_incidence,
    evaluate,
    evaluate_grid,
    iou,
    max_weight_matching,
    prf,
    write_length_study,
    write_report_csv,
    write_report_json,
)
from qsumm.generator import (
    GeneratorConfig,
    GeneratorParams,
    generator_forward,
    init_generator_params,
    select_shots,
)

MINI_SYNTH = SynthConfig(
    n_videos=3, n_shots=12, n_concepts=6, d_frame=8, d_shot=10, d_text=6
)
MINI_GEN = GeneratorConfig(
    d_frame=8, d_shot=10, d_text=6, d_fused=8, d_qenc=4, d_h=6, d_pred=6
)


@pytest.fixture(scope="module")
def mini_corpus():
    return synth_corpus(MINI_SYNTH, seed=21)


@pytest.fixture(scope="module")
def mini_params():
    return init_generator_params(MINI_GEN, np.random.default_rng(22))


def exact_iou(x: float) -> Fraction:
    """x read as the fraction of denominator <= 2**26 nearest to it if
    that rounds back to x, else exactly: the matching rule's reading."""
    q = Fraction(x).limit_denominator(1 << 26)
    return q if float(q) == x else Fraction(x)


def brute_force_best(w: np.ndarray):
    """Over all assignments, the maximum total weight and, among the
    assignments of that exact total, the most positive pairs.  Weights
    are read by exact_iou and summed as integers over their common
    denominator, so equal totals compare equal."""
    n_gen, n_gt = w.shape
    if n_gen == 0 or n_gt == 0:
        return 0.0, 0
    exact = {x: exact_iou(x) for x in set(w[w > 0].tolist())}
    scale = math.lcm(*(q.denominator for q in exact.values()))
    ints = [[exact[x].numerator * (scale // exact[x].denominator) if x > 0 else 0
             for x in row] for row in w.tolist()]
    if n_gen <= n_gt:
        assignments = (list(enumerate(cols))
                       for cols in itertools.permutations(range(n_gt), n_gen))
    else:
        assignments = ([(i, j) for j, i in enumerate(rows)]
                       for rows in itertools.permutations(range(n_gen), n_gt))
    best = (0, 0)
    for pairs in assignments:
        edges = [ints[i][j] for i, j in pairs if ints[i][j] > 0]
        best = max(best, (sum(edges), len(edges)))
    return best[0] / scale, best[1]


class TestIou:
    def test_identical(self):
        assert iou({"book"}, {"book"}) == 1.0

    def test_half_overlap(self):
        assert iou({"book", "tree"}, {"book"}) == 0.5

    def test_both_empty(self):
        assert iou(set(), set()) == 0.0

    def test_disjoint(self):
        assert iou({1, 2}, {3}) == 0.0

    def test_accepts_tuples(self):
        assert iou((1, 2, 2), (2,)) == 0.5


class TestMatching:
    def test_single_edge(self):
        assert max_weight_matching([[0.7]]) == [(0, 0)]

    def test_zero_weight_pair_pruned(self):
        assert max_weight_matching([[0.5, 0.0], [0.0, 0.0]]) == [(0, 0)]

    def test_empty_sides(self):
        assert max_weight_matching(np.zeros((0, 4))) == []
        assert max_weight_matching(np.zeros((3, 0))) == []

    def test_prefers_total_over_greedy(self):
        # greedy would grab the 0.9 and strand the second row at 0.1
        w = [[0.9, 0.8], [0.85, 0.1]]
        pairs = max_weight_matching(w)
        assert pairs == [(0, 1), (1, 0)]

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            max_weight_matching([[np.inf]])

    def test_tie_break_takes_most_pairs(self):
        # {(0, 0)} and {(0, 1), (1, 0)} both weigh 1.0; the rule takes the
        # matching with more pairs, so this query scores two matches
        assert max_weight_matching([[1.0, 0.5], [0.5, 0.0]]) == [(0, 1), (1, 0)]

    def test_ties_compare_exact_fractions(self):
        # the diagonal (three pairs at IoU 1/3) and {(0, 1), (1, 2)} (two
        # at 1/2) both weigh exactly 1, so the three pairs win; read as
        # binary fractions the diagonal weighs 3 * fl(1/3) < 1 and loses
        third, half = 1 / 3, 1 / 2
        assert 3 * Fraction(third) < 1 == 2 * Fraction(half)
        w = [[third, half, 0.0], [0.0, third, half], [0.0, 0.0, third]]
        assert max_weight_matching(w) == [(0, 0), (1, 1), (2, 2)]
        assert max_weight_matching(np.array(w).T) == [(0, 0), (1, 1), (2, 2)]

    def test_no_repeats_worst_case(self):
        # nothing repeats, so no row or column shares a kind or a class:
        # the solver's O(n^3) worst case
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(102)
        start = time.monotonic()
        for shape in [(60, 60), (60, 45), (45, 60)]:
            w = rng.uniform(0.0, 1.0, shape)
            pairs = max_weight_matching(w)
            r, c = optimize.linear_sum_assignment(w, maximize=True)
            assert len(pairs) == min(shape)
            assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
            assert sum(w[i, j] for i, j in pairs) == pytest.approx(w[r, c].sum(), rel=1e-12)
        assert time.monotonic() - start < 30.0

    def test_brute_force_oracle(self):
        # uniform draws, then tie-heavy ones: the IoU matrices of few
        # concept sets and matrices of a few coarse fractions, where
        # matchings of the same exact total can differ in size.  The two
        # fixed matrices are such ties: {(0, 0)} and {(0, 1), (1, 0)} both
        # weigh 1, and so do the diagonal and {(0, 1), (1, 2)}
        rng = np.random.default_rng(100)
        fixed = [np.array([[1.0, 0.5], [0.5, 0.0]]),
                 np.array([[1 / 3, 1 / 2, 0.0], [0.0, 1 / 3, 1 / 2], [0.0, 0.0, 1 / 3]])]
        start = time.monotonic()
        for trial in range(600 + len(fixed)):
            n_gen = int(rng.integers(1, 7))
            n_gt = int(rng.integers(1, 7))
            if trial < 200:
                w = rng.uniform(0, 1, (n_gen, n_gt))
                w[rng.uniform(size=w.shape) < 0.3] = 0.0
            elif trial < 400:
                w = few_set_weights(rng, n_gen, n_gt, int(rng.integers(2, 6)))
            elif trial < 600:
                w = rng.choice([0.0, 0.0, 1 / 4, 1 / 3, 1 / 2, 2 / 3, 3 / 4, 1.0], (n_gen, n_gt))
            else:
                w = fixed[trial - 600]
            pairs = max_weight_matching(w)
            assert pairs == reference_max_weight_matching(w), f"trial {trial}"
            total = sum(w[i, j] for i, j in pairs)
            want_total, want_count = brute_force_best(w)
            assert abs(total - want_total) < 1e-9, f"trial {trial}"
            assert len(pairs) == want_count, f"trial {trial}"
            rows = [i for i, _ in pairs]
            cols = [j for _, j in pairs]
            assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        assert time.monotonic() - start < 30.0

    def test_signed_zero_lines_share_a_kind_or_class(self, monkeypatch):
        # rows 0 and 1, and columns 0 and 2, differ only in the sign of a
        # zero.  Kind {0, 1} sends both units to class {0, 2}, row 2 takes
        # column 1, and each flow pairs lowest rows with lowest columns
        sides = []
        real = evaluation._transport

        def recorded(profit, supply, demand):
            sides.append((list(supply), list(demand)))
            return real(profit, supply, demand)

        monkeypatch.setattr(evaluation, "_transport", recorded)
        w = [[0.5, -0.0, 0.5], [0.5, 0.0, 0.5], [-0.0, 1.0, 0.0]]
        assert max_weight_matching(w) == [(0, 0), (1, 2), (2, 1)]
        assert sides == [([2, 1], [2, 1])]

    def test_permutation_invariant_total(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            w = rng.uniform(0, 1, (5, 6))
            base = sum(w[i, j] for i, j in max_weight_matching(w))
            pr = rng.permutation(5)
            pc = rng.permutation(6)
            shuffled = w[pr][:, pc]
            total = sum(shuffled[i, j] for i, j in max_weight_matching(shuffled))
            assert abs(base - total) < 1e-9


def reference_hungarian_min(cost: np.ndarray) -> list:
    """A numpy-scalar potentials solver for square assignment, kept as a
    weight oracle."""
    n = cost.shape[0]
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)  # p[j]: row matched to column j, 1-based
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [(int(p[j]) - 1, j - 1) for j in range(1, n + 1)]


# The matcher as it was before its exact reading moved to plain ints,
# its transport stopped reallocating per round and its pairs were cut
# with islice.  Kept verbatim as the oracle for the readings, integer
# weights and pairs of max_weight_matching.
def reference_integer_weights(values, k: int) -> dict:
    """Exact integer weights of a matrix's distinct positive values.

    A value x reads as the fraction q of denominator <= 2**26 nearest to
    it when q rounds back to x, and as x's own binary fraction otherwise,
    so an IoU a/b reads exactly as a/b.  Over L, the lcm of the values'
    denominators, a/b weighs a*(L/b)*k + 1: with k above the largest
    possible matching size, a heavier integer total is a heavier exact
    total or, at an equal one, more pairs.
    """
    exact = {}
    for x in values:
        q = Fraction(x).limit_denominator(1 << 26)
        exact[x] = q if float(q) == x else Fraction(x)
    scale = math.lcm(*(q.denominator for q in exact.values()))
    return {x: q.numerator * (scale // q.denominator) * k + 1 for x, q in exact.items()}


def reference_transport(profit, supply, demand) -> list:
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
    INF = float("inf")
    for source in range(nk):
        while supply[source]:
            dist = [INF] * (nc + 1)
            prev = [0] * (nc + 1)  # the kind a class or the sink was reached from
            back = [None] * nk  # the class a kind was reached back from, -1: the source
            kdist = [INF] * nk
            back[source], kdist[source] = -1, 0
            frontier, du = [source], 0
            todo = list(range(nc + 1))
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
                frontier = [r for r in into[end] if back[r] is None]
                for r in frontier:
                    back[r], kdist[r] = end, du
            pot_k = [p + (d if d < du else du) for p, d in zip(pot_k, kdist)]
            pot_c = [p + (d if d < du else du) for p, d in zip(pot_c, dist)]
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
    return [[flows.get(r, 0) for flows in into] for r in range(nk)]


def reference_max_weight_matching(weights) -> list:
    """Pairs (i, j) of a maximum-weight matching of a rectangular matrix,
    and among those of one with the most pairs.

    Only positive entries are edges, and weights compare as the exact
    fractions reference_integer_weights reads them as.  So [[1, .5], [.5, 0]]
    gives [(0, 1), (1, 0)], and three pairs at IoU 1/3 tie two at IoU
    1/2 and win, although 3 * fl(1/3) < 1.  Rows and columns without a
    positive entry drop out.  Equal rows form kinds and equal columns
    classes, each in order of first occurrence: lines are compared by
    the bytes of their values with -0.0 read as 0.0, so lines are equal
    when their values compare equal.  reference_transport solves the problem once
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
    weight = reference_integer_weights({x for row in table for x in row if x > 0.0},
                              min(n_gen, n_gt) + 1)
    flow = reference_transport([[weight.get(x, 0) for x in row] for row in table],
                      [len(m) for m in kinds], [len(m) for m in classes])
    unused = [iter(m) for m in classes]
    pairs = []
    for rows, sent in zip(kinds, flow):
        free = iter(rows)
        for taken, units in zip(unused, sent):
            pairs += [(next(free), next(taken)) for _ in range(units)]
    pairs.sort()
    return pairs


def random_annotations(rng, n, pool, max_len=3):
    """Shots annotated like the synthetic corpus, 0 to max_len-1 ids each
    from a small pool, with repeats, so equal IoU values are common."""
    return [tuple(int(c) for c in rng.integers(0, pool, size=rng.integers(0, max_len)))
            for _ in range(n)]


def iou_loop(annotations, rows, cols):
    w = np.zeros((len(rows), len(cols)))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            w[a, b] = iou(annotations[i], annotations[j])
    return w


def iou_like(rng, n_gen, n_gt, pool=6):
    ann = random_annotations(rng, n_gen + n_gt, pool)
    return iou_loop(ann, range(n_gen), range(n_gen, n_gen + n_gt))


class TestMatchingAgainstReference:
    SHAPES = [(1, 1), (59, 27), (27, 59), (59, 59), (120, 120), (120, 45), (45, 120)]

    def test_same_weight_as_reference_solver(self):
        rng = np.random.default_rng(300)
        shapes = self.SHAPES + [tuple(rng.integers(1, 41, size=2)) for _ in range(60)]
        for k, (n_gen, n_gt) in enumerate(shapes):
            w = iou_like(rng, int(n_gen), int(n_gt), pool=(4, 6, 12)[k % 3])
            assert_optimal(w, reference_hungarian_min)

    def test_square_matrices_weigh_as_reference_assignment(self):
        rng = np.random.default_rng(301)
        for n in (1, 2, 5, 17, 60):
            assert_optimal(iou_like(rng, n, n, pool=4), reference_hungarian_min)

    def test_total_weight_matches_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(302)
        for n_gen, n_gt in [(60, 60), (120, 90), (90, 120), (250, 250), (250, 100)]:
            w = iou_like(rng, n_gen, n_gt)
            pairs = max_weight_matching(w)
            assert pairs == reference_max_weight_matching(w)
            r, c = optimize.linear_sum_assignment(w, maximize=True)
            assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
            assert sum(w[i, j] for i, j in pairs) == pytest.approx(
                w[r, c].sum(), rel=1e-12, abs=1e-12)


class TestSlowPathOracles:
    def test_small_fractions_read_as_limit_denominator(self):
        for b in range(1, 65):
            for a in range(1, 2 * b + 1):
                x = a / b
                assert evaluation._exact_ratio(x) == exact_iou(x).as_integer_ratio(), (a, b)

    def test_any_positive_float_reads_as_limit_denominator(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        positive = st.one_of(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),  # subnormal
            st.floats(min_value=1e-9, max_value=1.0),
            st.just(1.0),
        )

        @hypothesis.settings(max_examples=2000, deadline=None, database=None)
        @hypothesis.given(x=positive)
        def check(x):
            assert evaluation._exact_ratio(x) == exact_iou(x).as_integer_ratio()

        check()

    def test_integer_weights_equal_reference(self):
        rng = np.random.default_rng(315)
        pools = [[a / b for b in range(1, 13) for a in range(1, b + 1)],
                 rng.uniform(0.0, 1.0, 40).tolist(),
                 [5e-324, 1e-300, 1.0, 2.0, 1e300]]
        for pool in pools:
            for trial in range(30):
                values = set(rng.choice(pool, size=int(rng.integers(1, 8))).tolist())
                k = int(rng.integers(1, 100))
                assert (evaluation._integer_weights(values, k)
                        == reference_integer_weights(values, k))

    def test_pairs_equal_reference_on_corpus_iou_matrices(self):
        corpus = synth_corpus(SynthConfig(n_videos=6), seed=9)
        rng = np.random.default_rng(316)
        for video in corpus.videos:
            index, table = evaluation._iou_table(video.annotations)
            for query in video.queries:
                gt = np.flatnonzero(query.gt_mask)
                for share in (0.1, 0.5, 0.9):
                    gen = np.flatnonzero(rng.uniform(size=video.n_shots) < share)
                    w = table[index[gen]][:, index[gt]]
                    assert np.array_equal(w, iou_loop(video.annotations, gen, gt))
                    assert max_weight_matching(w) == reference_max_weight_matching(w)


def list_hungarian_min(cost: np.ndarray) -> list:
    """Square assignment by the potentials method on Python floats,
    scanning rows and columns in ascending order, kept as a weight
    oracle."""
    n = cost.shape[0]
    rows = cost.tolist()
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
        free = list(range(1, n + 1))  # unused columns, ascending
        delta = 0.0
        while True:
            i0 = p[j0]
            row, u_i0 = rows[i0 - 1], u[i0]
            shift, delta = delta, INF
            j1 = 0
            for j in free:
                m = minv[j] - shift
                cur = row[j - 1] - u_i0 - v[j]
                if cur < m:
                    m = cur
                    way[j] = j0
                minv[j] = m
                if m < delta:
                    delta = m
                    j1 = j
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            free.remove(j1)
            used.append(j1)
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [(p[j] - 1, j - 1) for j in range(1, n + 1)]


def exact_weights(w: np.ndarray) -> np.ndarray:
    """The matching rule's integer weights, written out apart from the
    solver: each positive value read as the fraction of denominator
    <= 2**26 nearest to it if that rounds back to it, else exactly; a/b
    weighs a*(L/b)*K + 1 over L, the lcm of the denominators, with
    K = min(n_gen, n_gt) + 1; other entries weigh 0."""
    exact = {x: exact_iou(x) for x in set(w[w > 0].tolist())}
    scale = math.lcm(*(q.denominator for q in exact.values()))
    k = min(w.shape) + 1
    return np.array([[exact[x].numerator * (scale // exact[x].denominator) * k + 1
                      if x > 0 else 0 for x in row] for row in w.tolist()],
                    dtype=object).reshape(w.shape)


def clipped_padded_cost(w: np.ndarray) -> np.ndarray:
    """-w zero-padded to square, with non-positive weights at 0, so a
    square assignment of least cost carries a maximum matching weight."""
    n = max(w.shape)
    square = np.zeros((n, n))
    square[: w.shape[0], : w.shape[1]] = np.maximum(w, 0.0)
    return -square


def assert_optimal(w: np.ndarray, weight_solver=list_hungarian_min):
    """max_weight_matching(w) is a matching of the maximum weight, the
    weight of weight_solver's assignment, and has as many pairs as
    scipy's optimum on the rule's integer weights.  Those weights stay
    below 2**53 on the inputs here, so scipy's floats hold them exactly."""
    optimize = pytest.importorskip("scipy.optimize")
    pairs = max_weight_matching(w)
    assert pairs == reference_max_weight_matching(w)
    assert pairs == sorted(pairs)
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
    assert all(w[i, j] > 0 for i, j in pairs)
    total = sum(w[i, j] for i, j in pairs)
    clipped = np.maximum(w, 0.0)
    padded = weight_solver(clipped_padded_cost(w))
    want = sum(clipped[i, j] for i, j in padded if i < w.shape[0] and j < w.shape[1])
    assert total == pytest.approx(want, rel=1e-12, abs=1e-12)
    r, c = optimize.linear_sum_assignment(clipped, maximize=True)
    assert total == pytest.approx(clipped[r, c].sum(), rel=1e-12, abs=1e-12)
    ints = exact_weights(w)
    assert int(ints.sum()) < 2**53
    r, c = optimize.linear_sum_assignment(ints.astype(np.float64), maximize=True)
    assert sum(ints[i, j] for i, j in pairs) == sum(ints[r, c])
    assert len(pairs) == sum(1 for i, j in zip(r, c) if ints[i, j] > 0)


def few_set_weights(rng, n_gen, n_gt, n_sets):
    """IoU between shots whose concept sets come from n_sets distinct
    sets, one of them empty, as in the benchmark's evaluation sweep: rows
    repeat, and shots without concepts give all-zero rows and columns;
    the first generated and the first ground-truth shot have none."""
    sets = [()] + [tuple(rng.choice(8, size=rng.integers(1, 4), replace=False))
                   for _ in range(n_sets - 1)]
    ann = [sets[k] for k in rng.integers(0, n_sets, size=n_gen + n_gt)]
    ann[0] = ann[n_gen] = ()
    return iou_loop(ann, range(n_gen), range(n_gen, n_gen + n_gt))


def assert_optimal_on_columns(w, picks=None):
    """assert_optimal on w and, given a picks rng, also on w[:, cols] for
    a permutation and for a draw with replacement of its columns, which
    moves and duplicates whole columns."""
    assert_optimal(w)
    if picks is not None:
        n = w.shape[1]
        for cols in (picks.permutation(n), picks.integers(0, n, size=n)):
            assert_optimal(w[:, cols])


def signed_zeros(rng, w):
    """w with its zeros set to 0.0 and -0.0 in about equal numbers."""
    w = w.copy()
    zeros = w == 0.0
    signed = np.resize([0.0, -0.0], int(zeros.sum()))
    rng.shuffle(signed)
    w[zeros] = signed
    return w


class TestSkippedSteps:
    """Tie-heavy inputs: zero padding, repeated rows and columns, equal
    IoU values and signed zeros, where many matchings share the maximum
    weight and differ in size."""

    @pytest.mark.parametrize("shape", [(59, 27), (59, 11), (27, 59)])
    def test_eval_sweep_shapes(self, shape):
        rng = np.random.default_rng(310 + shape[1])
        picks = np.random.default_rng(410 + shape[1])
        for n_sets in (2, 3, 5, 10, 10, 16):
            assert_optimal_on_columns(few_set_weights(rng, *shape, n_sets), picks)

    def test_duplicated_random_rows(self):
        # a few distinct rows of coarse random weights, each used many
        # times, with negative entries that are not edges
        rng = np.random.default_rng(311)
        picks = np.random.default_rng(411)
        for trial in range(40):
            n = int(rng.integers(2, 40))
            distinct = np.round(rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 6)), n)), 1)
            assert_optimal_on_columns(distinct[rng.integers(0, len(distinct), size=n)], picks)

    def test_signed_zeros(self):
        # the sign of a zero changes no pair
        rng = np.random.default_rng(312)
        picks = np.random.default_rng(412)
        for trial in range(40):
            n = int(rng.integers(2, 30))
            distinct = rng.choice([0.0, 0.25, 0.5, 1.0], size=(int(rng.integers(1, 5)), n))
            w = distinct[rng.integers(0, len(distinct), size=n)]
            assert_optimal_on_columns(signed_zeros(rng, w), picks)
            pairs = max_weight_matching(w)
            assert max_weight_matching(signed_zeros(rng, w)) == pairs
            assert max_weight_matching(np.where(w == 0.0, -0.0, w)) == pairs
            # duplicated columns that differ only in the signs of their zeros
            cols = w[:, picks.integers(0, n, size=n)]
            assert max_weight_matching(signed_zeros(picks, cols)) == max_weight_matching(cols)

    def test_small_tie_heavy_matrices(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1 / 3, 2 / 3, -0.5])

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(data=st.data())
        def check(data):
            n_gen = data.draw(st.integers(1, 8))
            n_gt = data.draw(st.integers(1, 8))
            k = data.draw(st.integers(1, n_gen))
            distinct = data.draw(st.lists(st.lists(values, min_size=n_gt, max_size=n_gt),
                                          min_size=k, max_size=k))
            pick = data.draw(st.lists(st.integers(0, k - 1), min_size=n_gen, max_size=n_gen))
            perm = data.draw(st.permutations(range(n_gt)))
            cols = data.draw(st.lists(st.integers(0, n_gt - 1), min_size=n_gt, max_size=n_gt))
            w = np.array([distinct[r] for r in pick])
            assert_optimal(w)
            assert_optimal(w[:, perm])
            assert_optimal(w[:, cols])
            if n_gen * n_gt <= 30:
                pairs = max_weight_matching(w)
                want_total, _ = brute_force_best(np.maximum(w, 0.0))
                assert sum(w[i, j] for i, j in pairs) == pytest.approx(want_total, abs=1e-12)

        check()


def iou_lookup(annotations, rows, cols):
    """The IoU matrix of the shots in rows against those in cols, read
    from the video's _iou_table as evaluate reads it."""
    index, table = evaluation._iou_table(annotations)
    return table[index[rows]][:, index[cols]]


class TestIouMatrix:
    def test_equals_iou_loop(self):
        rng = np.random.default_rng(303)
        for trial in range(50):
            ann = random_annotations(rng, int(rng.integers(1, 30)), pool=8, max_len=5)
            rows = np.flatnonzero(rng.uniform(size=len(ann)) < 0.5)
            cols = np.flatnonzero(rng.uniform(size=len(ann)) < 0.5)
            w = iou_lookup(ann, rows, cols)
            assert w.dtype == np.float64 and w.shape == (rows.size, cols.size)
            assert np.array_equal(w, iou_loop(ann, rows, cols)), f"trial {trial}"

    def test_empty_sets_duplicates_and_empty_sides(self):
        ann = [(), (3, 3), (3, 7, 7), (), (9,)]
        inc = _concept_incidence(ann)
        assert inc.shape == (5, 3) and inc.sum() == 4
        everything = np.arange(5)
        w = iou_lookup(ann, everything, everything)
        assert np.array_equal(w, iou_loop(ann, everything, everything))
        assert w[0, 3] == 0.0 and w[1, 1] == 1.0 and w[1, 2] == 0.5
        none = np.array([], dtype=np.int64)
        assert iou_lookup(ann, none, everything).shape == (0, 5)
        assert iou_lookup(ann, everything, none).shape == (5, 0)

    def test_video_without_concepts(self):
        inc = _concept_incidence([(), ()])
        assert inc.shape == (2, 0)
        assert np.array_equal(iou_lookup([(), ()], [0, 1], [1]), np.zeros((2, 1)))


class TestIouTable:
    def test_lookups_equal_iou_loop(self):
        # pool 5 and up to 4 ids per shot: repeated ids, concept-less shots
        # and shots with equal sets are common
        rng = np.random.default_rng(305)
        for trial in range(50):
            ann = random_annotations(rng, int(rng.integers(1, 30)), pool=5, max_len=5)
            index, table = evaluation._iou_table(ann)
            assert table.shape == (len({frozenset(c) for c in ann}),) * 2
            rows = np.flatnonzero(rng.uniform(size=len(ann)) < 0.5)
            cols = np.flatnonzero(rng.uniform(size=len(ann)) < 0.5)
            w = table[index[rows]][:, index[cols]]
            assert w.dtype == np.float64 and w.shape == (rows.size, cols.size)
            assert np.array_equal(w, iou_loop(ann, rows, cols)), f"trial {trial}"

    def test_equal_sets_share_an_index(self):
        ann = [(), (3, 3), (3,), (7, 3), (3, 7, 7), (), (9,)]
        index, table = evaluation._iou_table(ann)
        assert index.tolist() == [0, 1, 1, 2, 2, 0, 3]
        everything = np.arange(len(ann))
        assert np.array_equal(table[index][:, index], iou_loop(ann, everything, everything))
        assert table[0, 0] == 0.0 and table[1, 2] == 0.5

    def test_video_without_shots_or_concepts(self):
        index, table = evaluation._iou_table([])
        assert index.shape == (0,) and table.shape == (0, 0)
        index, table = evaluation._iou_table([(), ()])
        assert index.tolist() == [0, 0] and np.array_equal(table, np.zeros((1, 1)))


class TestPrf:
    def test_perfect(self):
        assert prf(3, 3, 3) == (1.0, 1.0, 1.0)

    def test_half(self):
        assert prf(1, 2, 2) == (0.5, 0.5, 0.5)

    def test_degenerate_zeros(self):
        assert prf(0, 0, 0) == (0.0, 0.0, 0.0)
        assert prf(0, 5, 0) == (0.0, 0.0, 0.0)
        assert prf(0, 0, 5) == (0.0, 0.0, 0.0)

    def test_symmetry(self):
        p1, r1, f1 = prf(2, 4, 5)
        p2, r2, f2 = prf(2, 5, 4)
        assert (p1, r1) == (r2, p2)
        assert f1 == f2

    def test_monotone_in_spurious_generated(self):
        p0, r0, f0 = prf(2, 3, 4)
        p1, r1, f1 = prf(2, 4, 4)
        assert p1 < p0 and r1 == r0 and f1 < f0

    def test_precondition(self):
        with pytest.raises(ContractError):
            prf(3, 2, 5)
        with pytest.raises(ContractError):
            prf(-1, 2, 2)


class TestEvaluate:
    def test_gt_prediction_is_exact_upper_bound(self, mini_params, mini_corpus):
        report = evaluate(
            mini_params, mini_corpus, "train",
            predict=lambda video, query: query.gt_mask,
        )
        assert report.f1 == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.d == 0.0
        assert report.length_dev == 0.0

    def test_empty_prediction_zeroes_nonempty_queries(self, mini_params, mini_corpus):
        report = evaluate(
            mini_params, mini_corpus, "train",
            predict=lambda video, query: np.zeros(video.n_shots, dtype=np.uint8),
        )
        assert report.f1 == 0.0
        for row in report.rows:
            assert row.f1 == 0.0

    def test_none_present_rows_reported_but_not_averaged(self, mini_params, mini_corpus):
        report = evaluate(
            mini_params, mini_corpus, "train",
            predict=lambda video, query: query.gt_mask,
        )
        none_rows = [r for r in report.rows if r.scenario == "none-present"]
        assert none_rows and all(r.n_gt == 0 for r in none_rows)
        for video in mini_corpus.split_videos("train"):
            nonempty = sum(1 for q in video.queries if q.gt_mask.sum() > 0)
            assert report.per_video[video.video_id]["n_queries"] == nonempty
            assert nonempty == len(video.queries) - 1

    def test_deterministic(self, mini_params, mini_corpus):
        a = evaluate(mini_params, mini_corpus, "test")
        b = evaluate(mini_params, mini_corpus, "test")
        assert a == b

    def test_spurious_unannotated_shot_lowers_precision(self, mini_params, mini_corpus):
        video = mini_corpus.split_videos("train")[0]
        empty_shots = [
            t for t in range(video.n_shots) if not video.annotations[t]
        ]
        if not empty_shots:
            pytest.skip("no unannotated shot in this corpus draw")
        extra = empty_shots[0]

        def with_extra(v, query):
            mask = query.gt_mask.copy()
            if v.video_id == video.video_id:
                mask = mask.copy()
                mask[extra] = 1
            return mask

        base = evaluate(mini_params, mini_corpus, "train", predict=lambda v, q: q.gt_mask)
        worse = evaluate(mini_params, mini_corpus, "train", predict=with_extra)
        assert worse.precision < base.precision
        assert worse.recall == base.recall
        assert worse.f1 < base.f1

    def test_generator_path_runs_and_is_deterministic(self, mini_params, mini_corpus):
        a = evaluate(mini_params, mini_corpus, "val", threshold=0.5)
        b = evaluate(mini_params, mini_corpus, "val", threshold=0.5)
        assert a == b
        assert len(a.rows) == len(mini_corpus.split_videos("val")[0].queries)

    def test_all_ones_prediction_length_stats(self, mini_params, mini_corpus):
        report = evaluate(
            mini_params, mini_corpus, "train",
            predict=lambda video, query: np.ones(video.n_shots, dtype=np.uint8),
        )
        videos = mini_corpus.split_videos("train")
        deltas = []
        devs = []
        for video in videos:
            for q in video.queries:
                n_gt = int(q.gt_mask.sum())
                deltas.append(video.n_shots - n_gt)
                devs.append(abs(1.0 - n_gt / video.n_shots))
        assert_allclose(report.d, abs(np.mean(deltas)))
        assert_allclose(report.length_dev, np.mean(devs))

    def test_empty_split(self, mini_params, mini_corpus):
        broken = dataclasses.replace(mini_corpus, splits={"train": [], "val": [], "test": []})
        with pytest.raises(ContractError):
            evaluate(mini_params, broken, "train")

    def test_video_without_shots_rejected(self, mini_corpus):
        vid = mini_corpus.splits["test"][0]
        with pytest.raises(ContractError, match=f"video {vid} has no shots"):
            evaluate(None, truncated(mini_corpus, vid, 0), "test",
                     predict=lambda video, query: query.gt_mask)

    def test_missing_annotations(self, mini_params, mini_corpus):
        video = mini_corpus.videos[0]
        doctored = dataclasses.replace(video, annotations=video.annotations[:-1])
        broken = dataclasses.replace(
            mini_corpus, videos=[doctored] + list(mini_corpus.videos[1:])
        )
        with pytest.raises(FormatError):
            evaluate(mini_params, broken, "train")


class TestPredictMask:
    @pytest.mark.parametrize("mask, message", [
        (lambda n: np.ones(n - 5, dtype=np.uint8), "gave shape"),
        (lambda n: np.ones(n + 5, dtype=np.uint8), "gave shape"),
        (lambda n: np.ones((1, n), dtype=np.uint8), "gave shape"),
        (lambda n: np.full(n, 2.0), "gave entries other than 0 and 1"),
        (lambda n: np.full(n, 0.5), "gave entries other than 0 and 1"),
        (lambda n: np.full(n, np.nan), "gave entries other than 0 and 1"),
        (lambda n: np.array(["1"] * n), "gave entries other than 0 and 1"),
    ], ids=["short", "long", "2d", "twos", "halves", "nan", "strings"])
    def test_bad_mask_rejected(self, mini_corpus, mask, message):
        video = mini_corpus.split_videos("test")[0]

        def predict(v, query):
            return mask(v.n_shots) if v is video and query is video.queries[1] else query.gt_mask

        with pytest.raises(ContractError, match=f"video {video.video_id} query 1 {message}"):
            evaluate(None, mini_corpus, "test", predict=predict)

    @pytest.mark.parametrize("convert", [
        lambda m: m.astype(bool), lambda m: m.astype(np.float32), lambda m: m.tolist(),
        lambda m: np.where(m == 1, 1.0, -0.0),
    ], ids=["bool", "float32", "list", "signed-zero"])
    def test_binary_masks_of_any_numeric_type_accepted(self, mini_corpus, convert):
        def predict(video, query):
            return (np.arange(video.n_shots) % 2 == query.concept_a % 2).astype(np.uint8)

        want = evaluate(None, mini_corpus, "train", predict=predict)
        got = evaluate(None, mini_corpus, "train", predict=lambda v, q: convert(predict(v, q)))
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))


class TestReportFiles:
    def test_csv_layout(self, mini_params, mini_corpus, tmp_path):
        report = evaluate(
            mini_params, mini_corpus, "train",
            predict=lambda video, query: query.gt_mask,
        )
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "video_id,query_id,scenario,precision,recall,f1"
        assert lines[-1] == ",,corpus-mean,1.0,1.0,1.0"
        n_videos = len(report.per_video)
        assert len(lines) == 1 + len(report.rows) + n_videos + 1

    def test_ordinary_ids_write_the_plain_rows(self, mini_params, mini_corpus, tmp_path):
        # the rows as written before fields were quoted, for ids without
        # a comma or a quote
        report = evaluate(mini_params, mini_corpus, "test")
        lines = ["video_id,query_id,scenario,precision,recall,f1"]
        lines += [f"{r.video_id},{r.query_index},{r.scenario},{r.precision!r},{r.recall!r},{r.f1!r}"
                  for r in report.rows]
        lines += [f"{vid},,video-mean,{v['precision']!r},{v['recall']!r},{v['f1']!r}"
                  for vid, v in report.per_video.items()]
        lines.append(f",,corpus-mean,{report.precision!r},{report.recall!r},{report.f1!r}")
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_id_with_comma_stays_one_field(self, mini_params, mini_corpus, tmp_path):
        report = evaluate(mini_params, mini_corpus, "train",
                          predict=lambda video, query: query.gt_mask)
        odd = {vid: f'v,"{i}' for i, vid in enumerate(report.per_video)}
        report = dataclasses.replace(
            report,
            rows=[dataclasses.replace(r, video_id=odd[r.video_id]) for r in report.rows],
            per_video={odd[vid]: v for vid, v in report.per_video.items()})
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {6}
        assert [row[0] for row in rows[1:-1]] == (
            [r.video_id for r in report.rows] + list(report.per_video))

    def test_json_mirror(self, mini_params, mini_corpus, tmp_path):
        report = evaluate(
            mini_params, mini_corpus, "train",
            predict=lambda video, query: query.gt_mask,
        )
        path = tmp_path / "report.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["f1"] == 1.0
        assert payload["split"] == "train"
        assert len(payload["rows"]) == len(report.rows)

    def test_length_study_file(self, mini_params, mini_corpus, tmp_path):
        report = evaluate(
            mini_params, mini_corpus, "train",
            predict=lambda video, query: query.gt_mask,
        )
        path = tmp_path / "lengths.csv"
        write_length_study(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,value"
        assert lines[1] == "d,0.0"
        assert lines[2] == "length_dev,0.0"

    def test_byte_identical_rewrites(self, mini_params, mini_corpus, tmp_path):
        report = evaluate(mini_params, mini_corpus, "test")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(report, p1)
        write_report_csv(evaluate(mini_params, mini_corpus, "test"), p2)
        assert p1.read_bytes() == p2.read_bytes()


# evaluate() before the scoring pass was split from the matching pass:
# one generator forward per (video, query) and threshold.  Kept verbatim
# as the oracle for evaluate_grid and the stacked scoring.
def reference_evaluate(
    gparams: GeneratorParams,
    corpus: Corpus,
    split: str,
    threshold: float = 0.5,
    predict=None,
) -> EvalReport:
    """Score every (video, query) of a split with the generator in eval mode.

    Queries with an empty ground-truth summary (the none-present scenario)
    appear in the per-query rows and in the length statistics, but are
    left out of the precision/recall/F1 averages: with nothing to recover,
    any prediction would score 0 by the zero conventions and drag the
    averages down for the wrong reason.

    predict, when given, replaces the generator: called as
    predict(video, query) and expected to return a binary mask over the
    video's shots.  Evaluation hooks and oracle tests use it.
    """
    videos = corpus.split_videos(split)
    if not videos:
        raise ContractError(f"evaluate: split {split!r} is empty")
    rows = []
    per_video = {}
    deltas = []
    devs = []
    for video in videos:
        if len(video.annotations) != video.n_shots:
            raise FormatError(
                f"evaluate: video {video.video_id} has {len(video.annotations)} "
                f"annotation entries for {video.n_shots} shots"
            )
        scored = []
        for qi, query in enumerate(video.queries):
            if predict is not None:
                mask = np.asarray(predict(video, query)).astype(np.uint8)
            else:
                fwd = generator_forward(
                    gparams, video.frame_feats, video.shot_feats,
                    embed_query(query, corpus.concepts), train=False,
                )
                mask = select_shots(fwd.s.data[0], threshold)
            gen_idx = np.flatnonzero(mask)
            gt_idx = np.flatnonzero(query.gt_mask)
            weights = iou_loop(video.annotations, gen_idx, gt_idx)
            matched = len(max_weight_matching(weights))
            p, r, f1 = prf(matched, gen_idx.size, gt_idx.size)
            gamma_q = float(query.gt_mask.mean())
            dev = abs(float(mask.mean()) - gamma_q)
            delta = float(mask.sum()) - float(gt_idx.size)
            rows.append(
                QueryResult(
                    video_id=video.video_id,
                    query_index=qi,
                    scenario=query.scenario,
                    precision=p,
                    recall=r,
                    f1=f1,
                    n_selected=int(gen_idx.size),
                    n_gt=int(gt_idx.size),
                    length_dev=dev,
                    length_delta=delta,
                )
            )
            deltas.append(delta)
            devs.append(dev)
            if gt_idx.size > 0:
                scored.append((p, r, f1))
        if scored:
            arr = np.array(scored)
            per_video[video.video_id] = {
                "precision": float(arr[:, 0].mean()),
                "recall": float(arr[:, 1].mean()),
                "f1": float(arr[:, 2].mean()),
                "n_queries": len(scored),
            }
    if not per_video:
        raise ContractError(
            f"evaluate: no query in split {split!r} has a nonempty ground truth"
        )
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
        d=abs(float(np.mean(deltas))),
        length_dev=float(np.mean(devs)),
    )


GRID = (0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60)
DESK_GEN = GeneratorConfig(d_frame=32, d_shot=48, d_text=16)


def truncated(corpus, video_id, n_shots):
    """The corpus with one video cut to its first n_shots shots."""
    videos = []
    for v in corpus.videos:
        if v.video_id == video_id:
            v = dataclasses.replace(
                v, frame_feats=v.frame_feats[:n_shots], shot_feats=v.shot_feats[:n_shots],
                annotations=v.annotations[:n_shots],
                queries=[dataclasses.replace(q, gt_mask=q.gt_mask[:n_shots]) for q in v.queries],
            )
        videos.append(v)
    return dataclasses.replace(corpus, videos=videos)


@pytest.fixture(scope="module")
def desk_corpus():
    """Desk-scale widths and 12 queries per video at 30 shots, with the
    first training video cut to 19 shots so that the train split mixes
    video lengths."""
    corpus = synth_corpus(SynthConfig(n_videos=6, n_shots=30), seed=9)
    return truncated(corpus, corpus.splits["train"][0], 19)


@pytest.fixture(scope="module")
def desk_params():
    return init_generator_params(DESK_GEN, np.random.default_rng(3))


def per_query_bytes(params, n_shots):
    return n_shots * 2 * 7 * params.enc_fwd.d_h * 8


def count_forwards(monkeypatch):
    """Record the number of queries of every generator call evaluate makes."""
    sizes = []
    real = evaluation.generator_forward

    def counted(params, frame, shot, query_emb, *a, **k):
        sizes.append(np.shape(query_emb)[0])
        return real(params, frame, shot, query_emb, *a, **k)

    monkeypatch.setattr(evaluation, "generator_forward", counted)
    return sizes


class TestScoringPass:
    @pytest.mark.parametrize("split, grid", [
        ("val", GRID), ("test", GRID), ("train", GRID[::3]),
    ], ids=["val", "test", "train"])
    def test_grid_reports_equal_reference(self, desk_params, desk_corpus, split, grid):
        # the train split has 4 videos of 19 and 30 shots; 3 thresholds keep it fast
        reports = evaluate_grid(desk_params, desk_corpus, split, grid)
        assert [r.threshold for r in reports] == list(grid)
        n_selected = set()
        for th, report in zip(grid, reports):
            want = repr(dataclasses.asdict(reference_evaluate(desk_params, desk_corpus, split, th)))
            assert repr(dataclasses.asdict(report)) == want
            assert repr(dataclasses.asdict(evaluate(desk_params, desk_corpus, split, th))) == want
            n_selected.add(tuple(r.n_selected for r in report.rows))
        assert len(n_selected) > 1  # the grid moves the selection

    def test_predict_hook_equals_reference(self, desk_corpus):
        def predict(video, query):
            return (np.arange(video.n_shots) % 3 == query.concept_a % 3).astype(np.uint8)

        reports = evaluate_grid(None, desk_corpus, "train", (0.3, 0.6), predict=predict)
        for th, report in zip((0.3, 0.6), reports):
            want = reference_evaluate(None, desk_corpus, "train", th, predict=predict)
            assert repr(dataclasses.asdict(report)) == repr(dataclasses.asdict(want))

    def test_video_without_queries(self, desk_params, desk_corpus):
        vid = desk_corpus.splits["train"][1]
        corpus = dataclasses.replace(desk_corpus, videos=[
            dataclasses.replace(v, queries=[]) if v.video_id == vid else v
            for v in desk_corpus.videos
        ])
        report = evaluate(desk_params, corpus, "train", 0.5)
        want = reference_evaluate(desk_params, corpus, "train", 0.5)
        assert repr(dataclasses.asdict(report)) == repr(dataclasses.asdict(want))

    def test_no_thresholds_rejected(self, desk_params, desk_corpus):
        with pytest.raises(ContractError):
            evaluate_grid(desk_params, desk_corpus, "val", ())

    def test_bad_threshold_rejected_before_scoring(self, desk_params, desk_corpus, monkeypatch):
        sizes = count_forwards(monkeypatch)
        with pytest.raises(ConfigError, match="threshold must be in"):
            evaluate_grid(desk_params, desk_corpus, "val", (0.5, 1.5))
        assert sizes == []

    def test_bad_threshold_rejected_with_predict(self, desk_corpus):
        def predict(video, query):
            return np.ones(video.n_shots, dtype=np.uint8)

        with pytest.raises(ConfigError, match="threshold must be in"):
            evaluate(None, desk_corpus, "val", threshold=5.0, predict=predict)

    def test_desk_scale_stacks_a_video_in_one_call(self, desk_params, monkeypatch):
        corpus = synth_corpus(SynthConfig(n_videos=3), seed=9)
        sizes = count_forwards(monkeypatch)
        evaluation._query_scores(desk_params, corpus.videos[0], corpus.concepts)
        assert corpus.videos[0].n_shots == 60 and sizes == [12]

    def test_paper_scale_scores_one_query_per_call(self, desk_corpus, monkeypatch):
        # One query of the paper-scale generator on a 1000-shot video counts
        # 115 MB of recurrence buffers (a no-tape call holds 33 MB), far
        # above the cap.  Stand-ins
        # keep paper-scale arrays out: a d_h-only encoder, zero-strided
        # frame features and a generator that returns zero scores.
        cfg = GeneratorConfig.paper_scale()
        video = dataclasses.replace(desk_corpus.split_videos("val")[0],
                                    frame_feats=np.broadcast_to(0.0, (1000, cfg.d_frame)))
        gparams = SimpleNamespace(enc_fwd=SimpleNamespace(d_h=cfg.d_h))
        sizes = []

        def forward(params, frame, shot, query_emb, train):
            sizes.append(len(query_emb))
            return SimpleNamespace(s=SimpleNamespace(data=np.zeros((len(query_emb), len(frame)))))

        monkeypatch.setattr(evaluation, "generator_forward", forward)
        scores = evaluation._query_scores(gparams, video, desk_corpus.concepts)
        assert per_query_bytes(gparams, video.n_shots) > evaluation._STACK_BYTES
        assert sizes == [1] * len(video.queries) and len(scores) == 12

    def test_one_query_per_call_below_one_query_size(self, desk_params, desk_corpus, monkeypatch):
        video = desk_corpus.split_videos("val")[0]
        monkeypatch.setattr(evaluation, "_STACK_BYTES", per_query_bytes(desk_params, 30) - 1)
        sizes = count_forwards(monkeypatch)
        report = evaluate(desk_params, desk_corpus, "val", 0.45)
        assert sizes == [1] * len(video.queries)
        want = reference_evaluate(desk_params, desk_corpus, "val", 0.45)
        assert repr(dataclasses.asdict(report)) == repr(dataclasses.asdict(want))

    @pytest.mark.parametrize("stack", [1, 5, 7, 12])
    def test_stacked_scores_bit_equal_single_calls(self, desk_params, desk_corpus, monkeypatch,
                                                   stack):
        # 12 queries per video: stacks of 5 and 7 leave a short last chunk
        sizes = count_forwards(monkeypatch)
        videos = desk_corpus.split_videos("train")[:2]
        assert [v.n_shots for v in videos] == [19, 30]
        for video in videos:
            monkeypatch.setattr(evaluation, "_STACK_BYTES",
                                stack * per_query_bytes(desk_params, video.n_shots))
            embs = [embed_query(q, desk_corpus.concepts) for q in video.queries]
            assert any(not e.any() for e in embs)  # a none-present query
            sizes.clear()
            scores = evaluation._query_scores(desk_params, video, desk_corpus.concepts)
            n = len(embs)
            assert sizes == [min(stack, n - lo) for lo in range(0, n, stack)]
            for emb, got in zip(embs, scores, strict=True):
                one = generator_forward(desk_params, video.frame_feats, video.shot_feats, emb,
                                        train=False)
                assert np.array_equal(got, one.s.data[0])
