"""Step-cost model: the affine virtual-time cost and its validation."""

from __future__ import annotations

import pytest

from repro.perfmodel.serving import StepCostModel


def test_step_cost_affine():
    cost = StepCostModel(fixed=0.5, per_prefill_token=0.1, per_decode_row=1.0)
    assert cost.step_cost(0, 0) == 0.5
    assert cost.step_cost(10, 0) == pytest.approx(1.5)
    assert cost.step_cost(0, 3) == pytest.approx(3.5)
    assert cost.step_cost(10, 3) == pytest.approx(4.5)


def test_step_cost_validation():
    with pytest.raises(ValueError):
        StepCostModel(fixed=-1.0)
    with pytest.raises(ValueError):
        StepCostModel(fixed=0.0, per_prefill_token=0.0, per_decode_row=0.0)
