import contextlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import qsfm_bytes

from qsumm.dataset import (
    SCENARIOS,
    ConceptTable,
    Corpus,
    Query,
    SynthConfig,
    Video,
    embed_query,
    gamma_of,
    load_corpus,
    sample_batch,
    synth_corpus,
    write_corpus,
)
from qsumm.errors import (
    ConceptLookupError,
    ConfigError,
    ContractError,
    FormatError,
    QsummError,
    VersionError,
)
from qsumm.generator import GeneratorConfig, generator_forward, init_generator_params
from qsumm.matrix_io import load_feature_matrix, matrix_from_bytes, write_atomic, write_matrix
from qsumm.tensor import Tape


def corpora_equal(a: Corpus, b: Corpus) -> bool:
    """Full equality including feature bits; used by round-trip checks."""
    if a.dims != b.dims or a.splits != b.splits:
        return False
    if a.concepts.names != b.concepts.names:
        return False
    if not np.array_equal(a.concepts.embeddings, b.concepts.embeddings):
        return False
    if len(a.videos) != len(b.videos):
        return False
    for va, vb in zip(a.videos, b.videos):
        if va.video_id != vb.video_id or va.annotations != vb.annotations:
            return False
        if not np.array_equal(va.frame_feats, vb.frame_feats):
            return False
        if not np.array_equal(va.shot_feats, vb.shot_feats):
            return False
        if len(va.queries) != len(vb.queries):
            return False
        for qa, qb in zip(va.queries, vb.queries):
            if (qa.concept_a, qa.concept_b, qa.scenario) != (qb.concept_a, qb.concept_b, qb.scenario):
                return False
            if not np.array_equal(qa.gt_mask, qb.gt_mask):
                return False
    return True


class TestMatrixFormat:
    def test_known_bytes_decode_exactly(self, tmp_path):
        vals = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
        raw = struct.pack("<4sIQQ", b"QSFM", 1, 2, 3) + vals.tobytes()
        p = tmp_path / "m.qsfm"
        p.write_bytes(raw)
        assert_allclose(load_feature_matrix(p), vals.astype(np.float64))

    def test_zero_rows_rejected(self, tmp_path):
        raw = struct.pack("<4sIQQ", b"QSFM", 1, 0, 3)
        p = tmp_path / "m.qsfm"
        p.write_bytes(raw)
        with pytest.raises(FormatError):
            load_feature_matrix(p)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        raw = struct.pack("<4sIQQ", b"QSFM", 1, 2, 3) + b"\x00" * 10
        p = tmp_path / "m.qsfm"
        p.write_bytes(raw)
        with pytest.raises(FormatError) as ei:
            load_feature_matrix(p)
        assert "10" in str(ei.value) and "24" in str(ei.value)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.qsfm"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_feature_matrix(p)

    def test_unknown_version(self, tmp_path):
        raw = struct.pack("<4sIQQ", b"QSFM", 9, 1, 1) + b"\x00" * 4
        p = tmp_path / "m.qsfm"
        p.write_bytes(raw)
        with pytest.raises(VersionError):
            load_feature_matrix(p)

    def test_large_random_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((1000, 4096)).astype(np.float32)
        p = tmp_path / "big.qsfm"
        write_matrix(p, m)
        back = load_feature_matrix(p)
        assert np.array_equal(back, m.astype(np.float64))

    @pytest.mark.parametrize("version, dtype", [(1, np.float32), (2, np.float64)])
    def test_loads_keep_the_file_dtype(self, tmp_path, version, dtype):
        m = np.random.default_rng(2).standard_normal((3, 4)).astype(dtype)
        p = tmp_path / "m.qsfm"
        write_matrix(p, m, version=version)
        for back in (load_feature_matrix(p), matrix_from_bytes(p.read_bytes())):
            assert back.dtype == dtype and np.array_equal(back, m)
            back[0, 0] = 1.0  # a writable array of its own

    def test_load_reads_straight_into_the_array(self, tmp_path):
        # no bytes copy of the payload and no widened copy beside the array
        m = np.random.default_rng(3).standard_normal((1000, 512)).astype(np.float32)
        p = tmp_path / "m.qsfm"
        write_matrix(p, m)
        tracemalloc.start()
        try:
            back = load_feature_matrix(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, m) and peak < m.nbytes + (64 << 10)

    def test_write_streams_from_the_array(self, tmp_path):
        # no bytes copy of the payload: the array is written from its own memory
        m = np.random.default_rng(4).standard_normal((1000, 4096)).astype(np.float32)
        p = tmp_path / "m.qsfm"
        tracemalloc.start()
        try:
            write_matrix(p, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes
        assert p.read_bytes() == qsfm_bytes(m)

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "f.txt"
        write_atomic(p, "old")
        for parts in ((object(),), (b"new", object())):
            with pytest.raises(TypeError):
                write_atomic(p, *parts)
            assert p.read_text() == "old"
            assert os.listdir(tmp_path) == ["f.txt"]

    def test_float64_version_keeps_all_bits(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((7, 5))
        p = tmp_path / "ckpt.qsfm"
        write_matrix(p, m, version=2)
        assert np.array_equal(load_feature_matrix(p), m)
        assert p.read_bytes() == qsfm_bytes(m, version=2)
        # version 1 would quantize
        write_matrix(p, m, version=1)
        assert not np.array_equal(load_feature_matrix(p), m)


def tiny_table():
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    return ConceptTable(embeddings=emb, names=["a", "b", "c", "d"])


class TestEmbedQuery:
    def test_none_present_is_zero_vector(self):
        q = Query(0, 1, "none-present", np.zeros(4, dtype=np.uint8))
        assert_allclose(embed_query(q, tiny_table()), np.zeros(2))

    def test_sum_definition(self):
        q = Query(0, 1, "both-same-shot", np.ones(4, dtype=np.uint8))
        assert_allclose(embed_query(q, tiny_table()), [1.0, 1.0])

    def test_commutative(self):
        t = tiny_table()
        m = np.ones(4, dtype=np.uint8)
        ab = embed_query(Query(2, 3, "one-present", m), t)
        ba = embed_query(Query(3, 2, "one-present", m), t)
        assert_allclose(ab, ba)

    def test_linear_in_table(self):
        t = tiny_table()
        scaled = ConceptTable(embeddings=3.0 * t.embeddings, names=t.names)
        q = Query(0, 2, "both-same-shot", np.ones(4, dtype=np.uint8))
        assert_allclose(embed_query(q, scaled), 3.0 * embed_query(q, t))

    def test_unknown_concept(self):
        q = Query(0, 9, "one-present", np.ones(4, dtype=np.uint8))
        with pytest.raises(ConceptLookupError):
            embed_query(q, tiny_table())


class TestGammaOf:
    def test_arithmetic(self):
        assert gamma_of([1, 0, 0, 1]) == 0.5
        assert gamma_of([0, 0, 0]) == 0.0
        assert gamma_of([1, 1]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            gamma_of([])


class TestSynthCorpus:
    cfg = SynthConfig(n_videos=4, n_shots=24, n_concepts=8, d_frame=10, d_shot=12, d_text=6)

    def test_deterministic(self):
        a = synth_corpus(self.cfg, seed=5)
        b = synth_corpus(self.cfg, seed=5)
        assert corpora_equal(a, b)
        assert not corpora_equal(a, synth_corpus(self.cfg, seed=6))

    def test_all_scenarios_per_video(self):
        corpus = synth_corpus(self.cfg, seed=1)
        for v in corpus.videos:
            assert tuple(q.scenario for q in v.queries[:4]) == SCENARIOS
            assert 4 <= len(v.queries) <= self.cfg.n_queries
            assert sum(q.scenario == "none-present" for q in v.queries) == 1
            seen = [(q.concept_a, q.concept_b, q.scenario) for q in v.queries]
            assert len(set(seen)) == len(seen)

    def test_query_count_follows_config(self):
        thin = SynthConfig(
            n_videos=4, n_shots=24, n_concepts=8, n_queries=4,
            d_frame=10, d_shot=12, d_text=6,
        )
        for v in synth_corpus(thin, seed=7).videos:
            assert len(v.queries) == 4
        for v in synth_corpus(self.cfg, seed=7).videos:
            assert len(v.queries) > 4

    def test_scenarios_match_annotations(self):
        corpus = synth_corpus(self.cfg, seed=2)
        for v in corpus.videos:
            present = set(c for cs in v.annotations for c in cs)
            for q in v.queries:
                shots_a = {t for t, cs in enumerate(v.annotations) if q.concept_a in cs}
                shots_b = {t for t, cs in enumerate(v.annotations) if q.concept_b in cs}
                if q.scenario == "both-same-shot":
                    assert shots_a & shots_b
                elif q.scenario == "both-different-shots":
                    assert shots_a and shots_b and not (shots_a & shots_b)
                elif q.scenario == "one-present":
                    assert shots_a and q.concept_b not in present
                else:
                    assert q.concept_a not in present and q.concept_b not in present

    def test_gt_masks_mark_annotated_shots(self):
        corpus = synth_corpus(self.cfg, seed=3)
        for v in corpus.videos:
            for q in v.queries:
                want = np.array(
                    [1 if (q.concept_a in cs or q.concept_b in cs) else 0 for cs in v.annotations],
                    dtype=np.uint8,
                )
                if q.scenario == "none-present":
                    assert q.gt_mask.sum() == 0
                else:
                    assert np.array_equal(q.gt_mask, want)
                    assert q.gt_mask.sum() >= 1

    def test_relevance_strength_moves_annotated_norms(self):
        def norm_gap(strength):
            cfg = SynthConfig(
                n_videos=3, n_shots=40, n_concepts=8, d_frame=16, d_shot=16,
                d_text=6, relevance_strength=strength,
            )
            corpus = synth_corpus(cfg, seed=4)
            tagged, clean = [], []
            for v in corpus.videos:
                for t, cs in enumerate(v.annotations):
                    (tagged if cs else clean).append(np.sum(v.frame_feats[t] ** 2))
            return np.mean(tagged) - np.mean(clean)

        assert abs(norm_gap(0.0)) < 4.0
        assert norm_gap(3.0) > 5.0

    def test_too_few_concepts_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_concepts=3)
        with pytest.raises(ConfigError):
            SynthConfig(n_queries=3)

    def test_splits_hold_out_last_videos(self):
        corpus = synth_corpus(self.cfg, seed=0)
        assert corpus.splits["test"] == ["v003"]
        assert corpus.splits["val"] == ["v002"]
        assert corpus.splits["train"] == ["v000", "v001"]

    def test_manifest_records_rng(self):
        corpus = synth_corpus(self.cfg, seed=11)
        assert corpus.rng_info["generator"] == "PCG64"
        assert corpus.rng_info["seed"] == 11
        assert "corpus" in corpus.rng_info["streams"]


class TestCorpusRoundTrip:
    cfg = SynthConfig(n_videos=3, n_shots=16, n_concepts=6, d_frame=8, d_shot=10, d_text=4)

    def test_write_load_equal(self, tmp_path):
        corpus = synth_corpus(self.cfg, seed=7)
        manifest = write_corpus(corpus, tmp_path / "c")
        assert corpora_equal(load_corpus(manifest), corpus)

    def test_features_stay_float32(self, tmp_path):
        corpus = synth_corpus(self.cfg, seed=7)
        loaded = load_corpus(write_corpus(corpus, tmp_path / "c"))
        for c in (corpus, loaded):
            assert c.concepts.embeddings.dtype == np.float64
            for v in c.videos:
                assert v.frame_feats.dtype == v.shot_feats.dtype == np.float32
        assert corpora_equal(loaded, corpus)

    @pytest.mark.parametrize("train", [False, True])
    def test_float64_features_score_the_same(self, train):
        cfg = self.cfg
        corpus = synth_corpus(cfg, seed=7)
        video = corpus.videos[0]
        gcfg = GeneratorConfig(d_frame=cfg.d_frame, d_shot=cfg.d_shot, d_text=cfg.d_text,
                               dropout_p=0.0)
        params = init_generator_params(gcfg, np.random.default_rng(0))
        q = embed_query(video.queries[0], corpus.concepts)
        scores = []
        for frame, shot in ((video.frame_feats, video.shot_feats),
                            (video.frame_feats.astype(np.float64), video.shot_feats.astype(np.float64))):
            with Tape(watch=[params.fuse_w]) if train else contextlib.nullcontext():
                scores.append(generator_forward(params, frame, shot, q, train=train,
                                                rng=np.random.default_rng(1)).s.data)
        assert np.array_equal(scores[0], scores[1])

    def test_write_is_deterministic(self, tmp_path):
        corpus = synth_corpus(self.cfg, seed=8)
        write_corpus(corpus, tmp_path / "a")
        write_corpus(corpus, tmp_path / "b")
        names_a = sorted(os.listdir(tmp_path / "a"))
        assert names_a == sorted(os.listdir(tmp_path / "b"))
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_is_sorted_indented_json(self, tmp_path):
        # the manifest's bytes are a format: sorted keys, indent 1, a final
        # newline; every file is renamed into place, so no temp file stays
        write_corpus(synth_corpus(self.cfg, seed=8), tmp_path / "a")
        text = (tmp_path / "a" / "manifest.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
        assert not [n for n in os.listdir(tmp_path / "a") if n.endswith(".tmp")]

    def test_minimal_manifest_roundtrip(self, tmp_path):
        table = ConceptTable(
            embeddings=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]], dtype=np.float32).astype(np.float64),
            names=["w", "x", "y", "z"],
        )
        video = Video(
            video_id="v000",
            frame_feats=np.ones((2, 3)),
            shot_feats=np.zeros((2, 4)),
            annotations=[(0,), ()],
            queries=[Query(0, 1, "one-present", np.array([1, 0], dtype=np.uint8))],
        )
        corpus = Corpus(
            videos=[video],
            concepts=table,
            splits={"train": ["v000"], "val": ["v000"], "test": ["v000"]},
            dims={"d_frame": 3, "d_shot": 4, "d_text": 2},
        )
        manifest = write_corpus(corpus, tmp_path / "mini")
        assert corpora_equal(load_corpus(manifest), corpus)

    def _written(self, tmp_path):
        corpus = synth_corpus(self.cfg, seed=9)
        return write_corpus(corpus, tmp_path / "c")

    def test_dim_mismatch_names_video(self, tmp_path):
        manifest = self._written(tmp_path)
        doc = json.loads(open(manifest).read())
        doc["dims"]["d_frame"] = 17
        open(manifest, "w").write(json.dumps(doc))
        with pytest.raises(FormatError) as ei:
            load_corpus(manifest)
        assert "v000" in str(ei.value) and "17" in str(ei.value) and "8" in str(ei.value)

    def test_dangling_concept_id(self, tmp_path):
        manifest = self._written(tmp_path)
        doc = json.loads(open(manifest).read())
        doc["videos"][0]["annotations"][0] = [99]
        open(manifest, "w").write(json.dumps(doc))
        with pytest.raises(FormatError) as ei:
            load_corpus(manifest)
        assert "99" in str(ei.value)

    def test_duplicate_video_id_names_it(self, tmp_path):
        # v001 renamed v000, and the split that held v001 now names v000:
        # the second v000 could never be reached by its id
        manifest = self._written(tmp_path)
        doc = json.loads(open(manifest).read())
        doc["videos"][1]["id"] = "v000"
        doc["splits"]["val"] = ["v000"]
        open(manifest, "w").write(json.dumps(doc))
        with pytest.raises(FormatError, match="video id 'v000' is listed twice"):
            load_corpus(manifest)

    @pytest.mark.parametrize("vid", [7, "", None], ids=["int", "empty", "null"])
    def test_video_id_must_be_a_nonempty_string(self, tmp_path, vid):
        # an integer id would load, but no --video string could name it
        manifest = self._written(tmp_path)
        doc = json.loads(open(manifest).read())
        doc["videos"][0]["id"] = vid
        doc["splits"] = {k: [vid if m == "v000" else m for m in members]
                         for k, members in doc["splits"].items()}
        open(manifest, "w").write(json.dumps(doc))
        with pytest.raises(FormatError, match="must be a nonempty string"):
            load_corpus(manifest)

    def test_split_listing_a_video_twice_names_it(self, tmp_path):
        # a repeated member would count twice in evaluation and sampling
        manifest = self._written(tmp_path)
        doc = json.loads(open(manifest).read())
        doc["splits"]["test"] = ["v002", "v002"]
        open(manifest, "w").write(json.dumps(doc))
        with pytest.raises(FormatError, match="split 'test' lists video 'v002' twice"):
            load_corpus(manifest)

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d["videos"][0]["queries"][0].pop("scenario"), None),
        (lambda d: d["videos"][0].pop("frame_feat"), None),
        (lambda d: d["videos"][0]["queries"][0].update(
            gt_mask=[300] * len(d["videos"][0]["queries"][0]["gt_mask"])), None),
        (lambda d: d["videos"][0].update(annotations=7), None),
        (lambda d: d["dims"].update(d_text=float(d["dims"]["d_text"])), "dims d_text"),
        (lambda d: d["dims"].update(d_frame=str(d["dims"]["d_frame"])), "dims d_frame"),
        (lambda d: d["dims"].update(d_shot=True), "dims d_shot"),
        (lambda d: d["dims"].update(d_shot=0), "dims d_shot"),
        *[(lambda d, v=v: d["videos"][0]["queries"][0]["gt_mask"].__setitem__(1, v),
           "video v000 query 0: gt mask") for v in (0.5, 1.7, 1.0, "1", True, -1, 2)],
        (lambda d: d["videos"][0]["queries"][0].update(gt_mask=1), "video v000 query 0: gt mask"),
    ], ids=["no-scenario", "no-frame-feat", "gt-mask-overflow", "annotations-not-list",
            "dims-float", "dims-string", "dims-bool", "dims-zero", "gt-mask-half",
            "gt-mask-fraction", "gt-mask-float-one", "gt-mask-string", "gt-mask-bool",
            "gt-mask-negative", "gt-mask-two", "gt-mask-not-list"])
    def test_malformed_entry_is_format_error(self, tmp_path, edit, match):
        manifest = self._written(tmp_path)
        doc = json.loads(open(manifest).read())
        edit(doc)
        open(manifest, "w").write(json.dumps(doc))
        with pytest.raises(FormatError, match=match):
            load_corpus(manifest)

    @pytest.mark.parametrize("edit", [
        lambda b: b.replace(b'"dims": {', b'"dims": {"x": 1' + b"0" * 5000 + b", ", 1),
        lambda b: b.replace(b'"dims": {', b'"x": ' + b"[" * 100_000 + b"]" * 100_000
                            + b', "dims": {', 1),
    ], ids=["int-of-5001-digits", "nested-too-deep"])
    def test_undecodable_manifest_is_format_error(self, tmp_path, edit):
        manifest = self._written(tmp_path)
        with open(manifest, "rb") as fh:
            blob = fh.read()
        with open(manifest, "wb") as fh:
            fh.write(edit(blob))
        with pytest.raises(FormatError):
            load_corpus(manifest)

    def test_damaged_manifest_bytes_raise_typed_errors(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        manifest = self._written(tmp_path)
        blob = open(manifest, "rb").read()

        @hypothesis.settings(max_examples=150, deadline=None, database=None,
                             suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(cut=st.booleans(), pos=st.integers(0, len(blob) - 1),
                          bit=st.integers(0, 7))
        def check(cut, pos, bit):
            data = bytearray(blob[:pos] if cut else blob)
            if not cut:
                data[pos] ^= 1 << bit
            with open(manifest, "wb") as fh:
                fh.write(bytes(data))
            try:
                load_corpus(manifest)
            except (QsummError, OSError):
                pass

        check()

    def test_missing_feature_file(self, tmp_path):
        manifest = self._written(tmp_path)
        os.remove(tmp_path / "c" / "v000_frame.qsfm")
        with pytest.raises(FileNotFoundError) as ei:
            load_corpus(manifest)
        assert "v000_frame.qsfm" in str(ei.value)

    def test_unbalanced_gt_mask_rejected(self, tmp_path):
        manifest = self._written(tmp_path)
        doc = json.loads(open(manifest).read())
        doc["videos"][0]["queries"][0]["gt_mask"] = [0, 1]
        open(manifest, "w").write(json.dumps(doc))
        with pytest.raises(FormatError):
            load_corpus(manifest)


class TestSampleBatch:
    cfg = SynthConfig(n_videos=4, n_shots=20, n_concepts=8, d_frame=8, d_shot=8, d_text=4)

    def test_long_segment_clamps_to_whole_video(self):
        corpus = synth_corpus(self.cfg, seed=0)
        batch = sample_batch(corpus, np.random.default_rng(0), segment_len=500)
        assert batch.start == 0 and batch.length == 20
        assert batch.frame.shape == (20, 8)

    def test_gamma_matches_slice(self):
        corpus = synth_corpus(self.cfg, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            batch = sample_batch(corpus, rng, segment_len=7)
            assert batch.gamma == batch.gt.mean()
            assert 0.0 <= batch.gamma <= 1.0
            assert batch.length == 7
            assert 0 <= batch.start <= 20 - 7
            video = corpus.video_by_id(batch.video_id)
            assert_allclose(batch.frame, video.frame_feats[batch.start : batch.start + 7])
            want_gt = video.queries[batch.query_index].gt_mask[batch.start : batch.start + 7]
            assert_allclose(batch.gt, want_gt.astype(np.float64))

    def test_video_choice_is_roughly_uniform(self):
        cfg = SynthConfig(n_videos=2, n_shots=12, n_concepts=8, d_frame=6, d_shot=6, d_text=4)
        corpus = synth_corpus(cfg, seed=3)
        corpus.splits["train"] = [v.video_id for v in corpus.videos]
        rng = np.random.default_rng(4)
        hits = sum(
            sample_batch(corpus, rng, segment_len=6).video_id == "v000" for _ in range(10_000)
        )
        assert 4500 <= hits <= 5500

    def test_empty_split_rejected(self):
        corpus = synth_corpus(self.cfg, seed=5)
        corpus.splits["train"] = []
        with pytest.raises(ContractError):
            sample_batch(corpus, np.random.default_rng(0), segment_len=5)

    def test_bad_segment_len(self):
        corpus = synth_corpus(self.cfg, seed=6)
        with pytest.raises(ConfigError):
            sample_batch(corpus, np.random.default_rng(0), segment_len=0)
