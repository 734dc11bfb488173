"""Gradient checking against central finite differences, the correctness
standard every primitive, encoder and model gradient is held to (in
float64)."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from multigram.autodiff import NumericError, ParamStore, Tape, Tensor


@dataclass
class GradCheckReport:
    per_tensor: dict[str, float] = field(default_factory=dict)
    tolerance: float = 1e-4

    @property
    def max_error(self) -> float:
        return max(self.per_tensor.values(), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_error < self.tolerance


def check_gradients(
    closure: Callable[[], Tensor],
    params: Iterable[tuple[str, Tensor]] | ParamStore,
    epsilon: float = 1e-3,
    tolerance: float = 1e-4,
    max_coords: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``closure`` against central finite
    differences, coordinate by coordinate (sampled for large tensors).

    The closure must be deterministic: run dropout in eval mode or with a
    fixed mask.  The checked tensors' ``.grad`` is cleared and then holds
    the analytic gradient.  Per-coordinate error is |a - n| / max(|a|, |n|,
    1), i.e. relative error with a unit-scale guard so near-zero coordinates
    are compared absolutely instead of amplifying truncation noise.
    """
    if isinstance(params, ParamStore):
        params = params.items()
    params = list(params)
    report = GradCheckReport(tolerance=tolerance)
    if not params:
        return report
    rng = rng or np.random.default_rng(0)

    for _, tensor in params:
        tensor.grad = None
    with Tape() as tape:
        loss = closure()
        if loss.requires_grad:
            tape.backward(loss)
    if not np.isfinite(loss.data):
        raise NumericError("non-finite loss during gradient check")

    for name, tensor in params:
        flat = tensor.data.reshape(-1)
        count = flat.size
        coords = (
            np.arange(count)
            if count <= max_coords
            else rng.choice(count, size=max_coords, replace=False)
        )
        grad_flat = np.zeros(count) if tensor.grad is None else tensor.grad.reshape(-1)
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + epsilon
            f_plus = float(closure().data)
            flat[c] = original - epsilon
            f_minus = float(closure().data)
            flat[c] = original
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite perturbed loss for {name!r}")
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = grad_flat[c]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, err)
        report.per_tensor[name] = worst
    return report
