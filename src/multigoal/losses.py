"""Segmentation and regression losses as standalone evaluable metrics.

Masks are scored with a pixel-summed binary cross entropy and a Dice overlap
loss; distances with mean squared error. The combined objective is an
importance-weighted sum of the logarithms of the component losses, so each
component is clamped away from zero before the log.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidArgument, naming
from .estimators import pair_mask_filename

EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Importance weight per component loss: exactly three, for BCE, Dice and MSE."""

    alpha: tuple[float, ...] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.alpha) != 3:
            raise InvalidArgument(
                f"need 3 loss weights (BCE, Dice, MSE), got {len(self.alpha)}: {self.alpha}"
            )
        if not all(0 < a < math.inf for a in self.alpha):  # also rejects nan
            raise InvalidArgument(f"all loss weights must be positive and finite, got {self.alpha}")


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(y, dtype=np.float64), np.asarray(yhat, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidArgument(f"mask shapes differ: {a.shape} vs {b.shape}")
    return a, b


def bce_loss(y, yhat) -> float:
    """Pixel-summed binary cross entropy of a prediction against a binary label.

    Predicted values are clamped to [EPS, 1-EPS] before the logs.
    """
    a, b = _paired(y, yhat)
    bc = np.clip(b, EPS, 1.0 - EPS)
    return float(-(a * np.log(bc) + (1.0 - a) * np.log(1.0 - bc)).sum())


def dice_loss(y, yhat) -> float:
    """One minus the Dice overlap coefficient, with squared-magnitude denominator."""
    a, b = _paired(y, yhat)
    intersection = float((a * b).sum())
    denom = float((a * a).sum() + (b * b).sum())
    if denom == 0.0:
        raise InvalidArgument("both masks are all-zero; Dice denominator vanishes")
    return 1.0 - 2.0 * intersection / denom


def mse_loss(c, chat) -> float:
    """Mean squared error between true and estimated distances."""
    a = np.asarray(c, dtype=np.float64)
    b = np.asarray(chat, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidArgument(f"distance sequences differ in length: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise InvalidArgument("distance sequences must be nonempty")
    return float(np.mean((a - b) ** 2))


def total_loss(losses, weights: LossWeights | None = None) -> float:
    """Importance-weighted sum of log component losses; components clamped to >= EPS."""
    weights = weights or LossWeights()
    vals = tuple(float(v) for v in losses)
    if len(vals) != len(weights.alpha):
        raise InvalidArgument(
            f"{len(vals)} component losses but {len(weights.alpha)} weights"
        )
    return float(sum(a * math.log(max(v, EPS)) for a, v in zip(weights.alpha, vals)))


def score_predictions(labels, predictions, weights: LossWeights | None = None):
    """Score one prediction set against labels over their shared goal pairs.

    Both arguments are ExternalEstimator-like objects exposing ``distances``
    and ``masks`` dicts keyed by (i, j). Every label mask must be binary; a
    mask that is not raises FormatError naming its pair_i_j.pgm file under
    the labels' ``source`` directory. A label and prediction of different
    shapes, or both all-zero, raise InvalidArgument naming the pair's file
    under both ``source`` directories. Returns (rows, aggregate): one (i, j,
    bce, dice, squared_error) row per pair, and an aggregate dict with mean
    BCE, mean Dice, the MSE over all pair distances, and the combined
    log-weighted total of those three.
    """
    weights = weights or LossWeights()
    keys = sorted(labels.distances.keys())
    missing = [k for k in keys if k not in predictions.distances]
    if missing:
        raise InvalidArgument(f"predictions lack labeled pairs {missing}")
    rows = []
    c_true, c_est = [], []
    for i, j in keys:
        mask, distance = labels.masks[(i, j)].values, labels.distances[(i, j)]
        label_path = os.path.join(labels.source, pair_mask_filename(i, j))
        if not np.isin(mask, (0.0, 1.0)).all():
            raise FormatError(f"{label_path}: a label mask may hold only 0 and 255")
        prediction_path = os.path.join(predictions.source, pair_mask_filename(i, j))
        with naming(f"{label_path} vs {prediction_path}"):
            prediction = predictions.masks[(i, j)].values
            l1 = bce_loss(mask, prediction)
            l2 = dice_loss(mask, prediction)
        err = (distance - predictions.distances[(i, j)]) ** 2
        rows.append((i, j, l1, l2, err))
        c_true.append(distance)
        c_est.append(predictions.distances[(i, j)])
    l1_mean = float(np.mean([r[2] for r in rows]))
    l2_mean = float(np.mean([r[3] for r in rows]))
    l3 = mse_loss(c_true, c_est)
    aggregate = {
        "bce_mean": l1_mean,
        "dice_mean": l2_mean,
        "mse": l3,
        "total": total_loss((l1_mean, l2_mean, l3), weights),
    }
    return rows, aggregate
