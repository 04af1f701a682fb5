import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigoal import LossWeights, bce_loss, dice_loss, mse_loss, total_loss
from multigoal.errors import FormatError, InvalidArgument
from multigoal.estimators import ExternalEstimator, RegionMask
from multigoal.losses import score_predictions


def arr(values):
    return np.array(values, dtype=np.float64)


class TestBce:
    def test_perfect_prediction_near_zero(self):
        y = arr([[1, 0], [0, 1]])
        assert bce_loss(y, y) < 4e-9  # eps-clamp residual only

    def test_hand_evaluated_sum(self):
        # y=[1,0], yhat=[0.5,0.5]: -(1*ln(.5) + 0) - (0 + (1-0)*ln(.5)) = 2*ln 2
        expect = -(math.log(0.5)) - (math.log(1 - 0.5))
        assert expect == pytest.approx(1.3862944, abs=1e-7)
        assert bce_loss(arr([[1, 0]]), arr([[0.5, 0.5]])) == pytest.approx(expect, abs=1e-12)

    def test_clamp_boundary(self):
        # yhat=0 against y=1 clamps to eps: loss = -ln(1e-12)
        assert bce_loss(arr([[1.0]]), arr([[0.0]])) == pytest.approx(-math.log(1e-12), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgument, match=re.escape("shapes differ: (1, 2) vs (2, 1)")):
            bce_loss(arr([[1, 0]]), arr([[1], [0]]))

    def test_nonnegative_and_pixel_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = (rng.random((4, 4)) < 0.5).astype(float)
            yhat = rng.uniform(0.05, 0.95, (4, 4))
            base = bce_loss(y, yhat)
            assert base >= 0.0
            i, j = rng.integers(0, 4), rng.integers(0, 4)
            bumped = yhat.copy()
            bumped[i, j] += 0.04
            # moving a pixel toward its label strictly reduces the loss
            if y[i, j] == 1.0:
                assert bce_loss(y, bumped) < base
            else:
                assert bce_loss(y, bumped) > base


class TestDice:
    def test_equal_binary_masks(self):
        y = arr([[1, 0, 1], [0, 1, 0]])
        assert dice_loss(y, y) == 0.0

    def test_disjoint_masks(self):
        assert dice_loss(arr([[1, 0]]), arr([[0, 1]])) == 1.0

    def test_hand_evaluated(self):
        # intersection 0.5; denominator 1 + 0.5; 1 - 1/1.5 = 1/3
        assert dice_loss(arr([[1, 0]]), arr([[0.5, 0.5]])) == pytest.approx(1 / 3, abs=1e-12)

    def test_both_zero_degenerate(self):
        with pytest.raises(InvalidArgument, match="all-zero; Dice denominator vanishes"):
            dice_loss(arr([[0, 0]]), arr([[0, 0]]))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgument, match=re.escape("shapes differ: (1, 1) vs (1, 2)")):
            dice_loss(arr([[1]]), arr([[1, 0]]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.floats(0, 1)), min_size=1, max_size=64))
    def test_range_property(self, pixels):
        y = arr([[1.0 if b else 0.0 for b, _ in pixels]])
        yhat = arr([[v for _, v in pixels]])
        try:
            loss = dice_loss(y, yhat)
        except InvalidArgument as exc:
            # all-zero label with subnormal predictions can underflow the
            # squared-magnitude denominator; rejecting is the contract
            assert "Dice denominator vanishes" in str(exc)
            assert (y == 0).all()
            return
        assert 0.0 <= loss <= 1.0

    def test_zero_iff_equal_binary(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = (rng.random((3, 5)) < 0.5).astype(float)
            yhat = (rng.random((3, 5)) < 0.5).astype(float)
            if (y == 0).all() and (yhat == 0).all():
                continue
            loss = dice_loss(y, yhat)
            if np.array_equal(y, yhat):
                assert loss == 0.0
            else:
                assert loss > 0.0


class TestMse:
    def test_equal(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single(self):
        assert mse_loss([3.0], [5.0]) == 4.0

    def test_hand_evaluated(self):
        assert mse_loss([1, 2, 3], [2, 2, 5]) == pytest.approx(5 / 3, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgument, match=re.escape("differ in length: (1,) vs (2,)")):
            mse_loss([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(InvalidArgument, match="distance sequences must be nonempty"):
            mse_loss([], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(0, 50, 20)
        chat = rng.uniform(0, 50, 20)
        perm = rng.permutation(20)
        assert mse_loss(c, chat) == pytest.approx(mse_loss(c[perm], chat[perm]), rel=1e-12)


class TestTotalLoss:
    def test_log_e(self):
        e = math.e
        assert total_loss([e, e, e]) == pytest.approx(3.0, abs=1e-12)

    def test_all_ones(self):
        assert total_loss([1.0, 1.0, 1.0], LossWeights((2.0, 1.0, 1.0))) == 0.0

    def test_hand_evaluated(self):
        # ln(0.5) + ln(1/3) + ln(5/3) = ln(5/18) = -1.2809338454620642
        expect = math.log(0.5) + math.log(1 / 3) + math.log(5 / 3)
        assert expect == pytest.approx(math.log(5 / 18), abs=1e-12)
        assert total_loss([0.5, 1 / 3, 5 / 3]) == pytest.approx(expect, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgument, match="2 component losses but 3 weights"):
            total_loss([1.0, 2.0], LossWeights((1.0, 1.0, 1.0)))

    def test_clamps_zero_components(self):
        assert total_loss([0.0, 1.0, 1.0]) == pytest.approx(math.log(1e-12), rel=1e-12)

    def test_monotone_in_each_component(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            losses = rng.uniform(1e-6, 10.0, 3)
            alpha = LossWeights(tuple(rng.uniform(0.1, 3.0, 3)))
            base = total_loss(losses, alpha)
            i = rng.integers(0, 3)
            bumped = losses.copy()
            bumped[i] *= 1.0 + rng.uniform(0.01, 0.5)
            assert total_loss(bumped, alpha) > base

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            LossWeights((1.0, 0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            LossWeights((1.0, bad, 1.0))

    def test_determinism(self):
        vals = [0.123456789, 0.987654321, 1.5]
        w = LossWeights((1.5, 0.25, 2.0))
        assert total_loss(vals, w) == total_loss(vals, w)


class TestScorePredictions:
    @staticmethod
    def labels(values, source):
        return ExternalEstimator({(0, 1): 3.5}, {(0, 1): RegionMask(arr(values))}, str(source))

    def test_binary_labels_score(self, tmp_path):
        labels = self.labels([[1.0, 0.0], [0.0, 1.0]], tmp_path)
        rows, aggregate = score_predictions(labels, labels)
        assert [r[:2] for r in rows] == [(0, 1)]
        assert aggregate["mse"] == 0.0 and aggregate["dice_mean"] == 0.0

    def test_missing_predictions_are_named(self, tmp_path):
        labels = self.labels([[1.0, 0.0]], tmp_path)
        predictions = ExternalEstimator({}, {}, str(tmp_path))
        with pytest.raises(InvalidArgument, match=re.escape("predictions lack labeled pairs [(0, 1)]")):
            score_predictions(labels, predictions)

    def test_gray_label_mask_names_its_file(self, tmp_path):
        labels = self.labels([[1.0, 200 / 255]], tmp_path)
        with pytest.raises(FormatError, match=re.escape(f"{tmp_path / 'pair_0_1.pgm'}: ")):
            score_predictions(labels, labels)
