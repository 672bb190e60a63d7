"""Fieldnorm codec + BM25 kernel golden tests.

Assertions mirror the reference's unit tests:
- src/fieldnorm/code.rs:277-328 (identity range, roundtrip, u32::MAX)
- src/query/bm25.rs:235-239 (idf(1, 2) == ln(2))
"""

import math

import numpy as np
import pytest

from tantivy_ray.bm25 import (B, K1, Bm25Weight, compute_tf_cache, idf,
                              term_weights)
from tantivy_ray.fieldnorm import (
    FIELD_NORMS_TABLE,
    fieldnorm_to_id,
    fieldnorms_to_ids,
    id_to_fieldnorm,
    ids_to_fieldnorms,
)


class TestFieldnormCodec:
    def test_identity_range(self):
        for i in range(41):
            assert fieldnorm_to_id(i) == i
        assert fieldnorm_to_id(41) == 40
        assert fieldnorm_to_id(42) == 41

    def test_table_head(self):
        # first exponential entries after the identity+2-shift region:
        # table holds 0..40 then 42, 44, ... (reference code.rs:13-270)
        assert list(FIELD_NORMS_TABLE[:44]) == list(range(41)) + [42, 44, 46]

    def test_roundtrip(self):
        for fid in range(43, 256):
            fn = int(FIELD_NORMS_TABLE[fid])
            assert id_to_fieldnorm(fid) == fn
            assert fieldnorm_to_id(fn) == fid
            assert fieldnorm_to_id(fn - 1) == fid - 1
            assert fieldnorm_to_id(fn + 1) == fid

    def test_u32_max(self):
        assert fieldnorm_to_id(2**32 - 1) == 255

    def test_monotone_table(self):
        assert (np.diff(FIELD_NORMS_TABLE.astype(np.int64)) > 0).all()

    def test_vectorized_matches_scalar(self):
        vals = np.array([0, 1, 40, 41, 42, 100, 1000, 10**6, 2**32 - 1], dtype=np.uint32)
        ids = fieldnorms_to_ids(vals)
        assert [int(i) for i in ids] == [fieldnorm_to_id(int(v)) for v in vals]
        back = ids_to_fieldnorms(ids)
        assert (back <= vals).all()


class TestBm25:
    def test_idf_ln2(self):
        # reference bm25.rs:235-239
        assert abs(float(idf(1, 2)) - math.log(2)) < 1e-6
        assert idf(1, 2).dtype == np.float32

    def test_constants(self):
        assert float(K1) == np.float32(1.2)
        assert float(B) == np.float32(0.75)

    def test_cache_shape_and_values(self):
        avg = np.float32(10.0)
        cache = compute_tf_cache(avg)
        assert cache.shape == (256,) and cache.dtype == np.float32
        # id 10 → fieldnorm 10 → K1*(1-B+B*10/10) = K1
        assert abs(float(cache[10]) - 1.2) < 1e-6
        # id 0 → fieldnorm 0 → K1*(1-B)
        assert abs(float(cache[0]) - 1.2 * 0.25) < 1e-6

    def test_score_formula(self):
        w = Bm25Weight.for_one_term(term_doc_freq=1, total_num_docs=2, avg_fieldnorm=10.0)
        # weight = ln(2) * 2.2
        assert abs(float(w.weight) - math.log(2) * 2.2) < 1e-5
        score = w.score(np.array([10], dtype=np.uint8), np.array([3], dtype=np.uint32))
        expected = math.log(2) * 2.2 * (3.0 / (3.0 + 1.2))
        assert abs(float(score[0]) - expected) < 1e-5
        assert score.dtype == np.float32

    def test_phrase_weight_sums_idf(self):
        w = Bm25Weight.for_terms([1, 1], total_num_docs=2, avg_fieldnorm=10.0)
        assert abs(float(w.weight) - 2 * math.log(2) * 2.2) < 1e-5

    def test_max_score_monotone(self):
        # max_score bounds every (fieldnorm_id, tf) pair with tf <= fieldnorm
        # (a term cannot occur more often than the field has tokens) —
        # reference bm25.rs:184-186 uses (255, 2_013_265_944)
        w = Bm25Weight.for_one_term(5, 100, 12.0)
        ms = w.max_score()
        rs = np.random.RandomState(0)
        fid = rs.randint(0, 256, 1000).astype(np.uint8)
        fn = ids_to_fieldnorms(fid).astype(np.int64)
        tf = np.maximum(1, (rs.rand(1000) * np.minimum(fn, 2_013_265_944)).astype(np.int64))
        assert (w.score(fid, tf.astype(np.uint32)) <= ms + 1e-6).all()

    def test_boost(self):
        w = Bm25Weight.for_one_term(1, 2, 10.0)
        b = w.boost_by(2.0)
        assert abs(float(b.weight) - 2 * float(w.weight)) < 1e-6

    @pytest.mark.parametrize("n_docs, dfs", [
        (24_000, np.arange(1, 24_001)),
        (10_000_000, np.random.default_rng(0).integers(1, 10_000_001,
                                                       100_000)),
    ])
    def test_term_weights_bit_equal_scalar_idf(self, n_docs, dfs):
        """The vector idf pass of ``term_weights`` gives, bit for bit,
        the weight of scalar ``idf``; a missing term weighs as df 1."""
        terms = [f"t{i}" for i in range(len(dfs))]
        got = term_weights(terms + ["absent"], dict(zip(terms, dfs.tolist())),
                           n_docs, 37.5)
        want = [Bm25Weight(idf(int(n), n_docs), np.float32(37.5))
                for n in dfs.tolist() + [1]]
        bits = lambda ws: np.array([w.weight for w in ws],  # noqa: E731
                                   np.float32).view(np.uint32)
        assert (bits(got) == bits(want)).all()
        assert all(type(w.weight) is np.float32 for w in got)
        assert all(g.cache is w.cache for g, w in zip(got[:10], want))
