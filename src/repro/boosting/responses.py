"""Feature-response computation over the packed dataset matrix.

Each Haar feature is a sparse linear form over the 625 rows of the dataset
matrix (:func:`repro.haar.features.feature_projection`); stacking the forms
gives a sparse ``(F, 625)`` projection matrix, and the full response matrix
of the training set is one sparse-dense product — the exact structure of the
paper's Fig. 4 loop, with the SpMM standing in for the SSE4 row arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.boosting.dataset import PACKED_ROWS
from repro.errors import TrainingError
from repro.haar.features import HaarFeature, feature_projection

# scipy is imported inside the functions that train with it: detectors,
# servers and spawn workers reach this module and never need it
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["projection_matrix", "compute_responses"]


def projection_matrix(features: Sequence[HaarFeature]) -> sp.csr_matrix:
    """Stack feature projections into a CSR matrix of shape ``(F, 625)``."""
    import scipy.sparse as sp

    if not features:
        raise TrainingError("feature list is empty")
    indptr = [0]
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for f in features:
        idx, coeffs = feature_projection(f)
        indices.append(idx)
        data.append(coeffs)
        indptr.append(indptr[-1] + len(idx))
    return sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(len(features), PACKED_ROWS),
    )


def compute_responses(
    features: Sequence[HaarFeature] | sp.csr_matrix, data: np.ndarray
) -> np.ndarray:
    """Responses of every feature over every sample: ``(F, N)`` float64.

    ``features`` may be a feature list or a prebuilt projection matrix.
    ``data`` is the ``(625, N)`` packed dataset matrix (columns already
    variance-normalised, so responses are too).
    """
    import scipy.sparse as sp

    proj = features if sp.issparse(features) else projection_matrix(features)
    if data.ndim != 2 or data.shape[0] != PACKED_ROWS:
        raise TrainingError(f"dataset matrix must be ({PACKED_ROWS}, N), got {data.shape}")
    return np.asarray(proj @ data)
