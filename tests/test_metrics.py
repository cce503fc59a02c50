import json

import numpy as np
import pytest

from momentgraph.errors import InputError
from momentgraph.metrics import (
    Interval,
    evaluate_pairs,
    miou,
    recall_at,
    tiou,
)

# ten (prediction, ground truth) pairs with tIoUs
# 1.0, 0.8, 0.75, 0.6, 0.5, 0.5, 0.4, 0.25, 0.2, 0.0
FIXTURE = [
    (Interval(0, 10), Interval(0, 10)),
    (Interval(0, 8), Interval(0, 10)),
    (Interval(0, 6), Interval(0, 8)),
    (Interval(0, 6), Interval(0, 10)),
    (Interval(0, 5), Interval(0, 10)),
    (Interval(2, 6), Interval(2, 10)),
    (Interval(0, 4), Interval(0, 10)),
    (Interval(0, 2), Interval(0, 8)),
    (Interval(0, 2), Interval(0, 10)),
    (Interval(0, 3), Interval(5, 9)),
]
FIXTURE_TIOUS = [1.0, 0.8, 0.75, 0.6, 0.5, 0.5, 0.4, 0.25, 0.2, 0.0]


class TestTiou:
    def test_identity(self):
        assert tiou(Interval(0, 10), Interval(0, 10)) == 1.0

    def test_hand_value(self):
        assert tiou(Interval(0, 10), Interval(5, 15)) == pytest.approx(5 / 15)

    def test_disjoint(self):
        assert tiou(Interval(0, 5), Interval(7, 9)) == 0.0

    def test_reversed_interval_scores_zero(self):
        assert tiou(Interval(5, 2), Interval(0, 10)) == 0.0

    def test_both_degenerate_same_point(self):
        assert tiou(Interval(3, 3), Interval(3, 3)) == 1.0

    def test_degenerate_against_proper(self):
        assert tiou(Interval(3, 3), Interval(0, 10)) == 0.0

    def test_properties_on_random_intervals(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a = Interval(*sorted(rng.uniform(0, 100, 2)))
            b = Interval(*sorted(rng.uniform(0, 100, 2)))
            v = tiou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == tiou(b, a)  # symmetry
            scale = 3.7
            scaled = tiou(
                Interval(a.start_s * scale, a.end_s * scale),
                Interval(b.start_s * scale, b.end_s * scale),
            )
            assert scaled == pytest.approx(v, abs=1e-12)


class TestRecallAndMiou:
    def test_fixture_values(self):
        r = recall_at(FIXTURE, alphas=(0.3, 0.5, 0.7, 0.9))
        assert r[0.3] == pytest.approx(70.0)
        assert r[0.5] == pytest.approx(40.0)  # strict inequality: 0.5 does not count
        assert r[0.7] == pytest.approx(30.0)
        assert r[0.9] == pytest.approx(10.0)
        assert miou(FIXTURE) == pytest.approx(50.0)

    def test_fixture_tious(self):
        vals = [tiou(p, g) for p, g in FIXTURE]
        np.testing.assert_allclose(vals, FIXTURE_TIOUS, atol=1e-12)

    def test_identical_pairs(self):
        pairs = [(Interval(1, 4), Interval(1, 4))] * 3
        r = recall_at(pairs)
        assert all(v == 100.0 for v in r.values())
        assert miou(pairs) == 100.0

    def test_hand_count(self):
        pairs = [
            (Interval(0, 10), Interval(0, 10)),
            (Interval(0, 4), Interval(0, 10)),
            (Interval(0, 3), Interval(5, 9)),
        ]
        assert recall_at(pairs, alphas=(0.5,))[0.5] == pytest.approx(100.0 / 3.0)

    def test_recall_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        pairs = [
            (Interval(*sorted(rng.uniform(0, 50, 2))), Interval(*sorted(rng.uniform(0, 50, 2))))
            for _ in range(100)
        ]
        alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
        r = recall_at(pairs, alphas=alphas)
        vals = [r[a] for a in alphas]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_single_perfect_pair(self):
        assert miou([(Interval(2, 6), Interval(2, 6))]) == 100.0

    def test_half_and_half(self):
        pairs = [(Interval(0, 5), Interval(0, 5)), (Interval(0, 1), Interval(3, 4))]
        assert miou(pairs) == 50.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            recall_at([])
        with pytest.raises(InputError):
            miou([])


class TestEvaluatePairs:
    def test_report_serialization(self):
        report = evaluate_pairs(FIXTURE)
        assert list(report.recall_at) == [0.3, 0.5, 0.7, 0.9]  # DEFAULT_ALPHAS
        data = json.loads(report.to_json())
        assert data["n_samples"] == 10
        assert data["recall_at"]["0.5"] == pytest.approx(40.0)
        assert "mIoU" in report.table()
