"""The knockout augmentation operator and observed-missingness merge rules.

All functions take an (n, d) batch with an (n, d) mask, or with one 1-d
pattern shared by every row, and are pure; the induced mask always wins
over observed missingness so that its independence from the data is
preserved.
"""

from __future__ import annotations

import numpy as np

from .schema import PlaceholderPolicy

__all__ = ["apply_knockout", "mask_union", "merge_observed"]


def _broadcast_pair(x: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    mask = np.asarray(mask)
    if mask.shape != x.shape:
        if mask.ndim == 1 and x.ndim == 2 and mask.shape[0] == x.shape[1]:
            mask = np.broadcast_to(mask, x.shape)
        else:
            raise ValueError(f"mask shape {mask.shape} does not match data shape {x.shape}")
    return x, mask


def mask_union(x: np.ndarray, induced_mask: np.ndarray, observed_mask: np.ndarray) -> np.ndarray:
    """The union N | M of an induced and an observed mask over the batch
    ``x``, in the shape of ``x``; either mask may be one 1-d pattern
    shared by every row."""
    x, induced = _broadcast_pair(x, induced_mask)
    _, observed = _broadcast_pair(x, observed_mask)
    return np.maximum(induced, observed)


def apply_knockout(x: np.ndarray, mask: np.ndarray, policy: PlaceholderPolicy) -> np.ndarray:
    """Replace masked entries with the knockout placeholders.

    x' = mask * knockout_values + (1 - mask) * x, elementwise. A 1-d mask
    against a batch is broadcast across rows (the shared per-batch mask).
    """
    x, mask = _broadcast_pair(x, mask)
    if x.shape[-1] != policy.knockout_values.shape[0]:
        raise ValueError(
            f"row length {x.shape[-1]} != policy length {policy.knockout_values.shape[0]}"
        )
    return np.where(mask == 1, policy.knockout_values, x)


def merge_observed(
    x: np.ndarray,
    observed_mask: np.ndarray,
    induced_mask: np.ndarray,
    dual: bool,
    policy: PlaceholderPolicy,
) -> np.ndarray:
    """Combine induced knockout with observed data missingness.

    Without ``dual`` (the MCAR merge), the union mask N | M gets the
    knockout placeholders, and the union stays independent of the data.
    With ``dual`` (the MNAR merge), induced entries get the knockout
    placeholders even when also observed-missing, and entries missing only
    in the data get the observed-missingness placeholders.
    """
    if not dual:
        return apply_knockout(x, mask_union(x, induced_mask, observed_mask), policy)
    x, observed = _broadcast_pair(x, observed_mask)
    return apply_knockout(np.where(observed == 1, policy.observed_values, x), induced_mask, policy)
