import numpy as np
import pytest

from banditlab.core import (
    MAX_ARMS,
    InstanceTooLarge,
    KTooSmall,
    MeanOutOfRange,
    TiedOptimum,
    Trace,
    checkpoint_grid,
    make_instance,
)


def ladder_means():
    return tuple(i / 10 for i in range(1, 10))


class TestMakeInstance:
    def test_nine_arm_ladder(self):
        inst = make_instance(ladder_means())
        assert inst.k == 9
        assert inst.optimal_arm == 8
        assert inst.optimal_mean == 0.9
        assert inst.min_gap == pytest.approx(0.1)
        assert inst.gaps[0] == pytest.approx(0.8)
        assert inst.gaps[8] == 0.0

    def test_two_arm(self):
        inst = make_instance((0.9, 0.5))
        assert inst.optimal_arm == 0
        assert inst.gaps == (0.0, pytest.approx(0.4))
        assert inst.min_gap == pytest.approx(0.4)

    def test_single_arm_rejected(self):
        with pytest.raises(KTooSmall):
            make_instance((0.5,))

    def test_too_many_arms_rejected(self):
        with pytest.raises(InstanceTooLarge):
            make_instance([0.5] * (MAX_ARMS + 1))

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_out_of_range_mean_rejected(self, bad):
        with pytest.raises(MeanOutOfRange):
            make_instance((0.5, bad))

    def test_boundary_means_allowed(self):
        inst = make_instance((0.0, 1.0))
        assert inst.optimal_arm == 1
        assert inst.min_gap == 1.0

    def test_tied_optimum_rejected_by_default(self):
        with pytest.raises(TiedOptimum):
            make_instance((0.7, 0.7, 0.1))


class TestTrace:
    def _trace(self, **over):
        return Trace(**over)

    def test_spent(self):
        assert self._trace(realized_spend=2.0).spent() == 2.0
        assert self._trace().spent() == 0.0
        assert self._trace().checkpoints == []


class TestCheckpointGrid:
    def test_includes_endpoints(self):
        grid = checkpoint_grid(100_000)
        assert grid[0] == 1
        assert grid[-1] == 100_000

    def test_sorted_unique(self):
        grid = checkpoint_grid(50_000)
        assert grid == sorted(set(grid))

    def test_density_about_per_decade(self):
        grid = checkpoint_grid(100_000)
        # 5 decades at <=20 points each, plus endpoint; rounding collapses
        # some early points so the count is below the nominal 101
        assert 60 <= len(grid) <= 101

    def test_tiny_horizon(self):
        assert checkpoint_grid(1) == [1]
        assert checkpoint_grid(2) == [1, 2]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            checkpoint_grid(0)


class TestExports:
    def test_all_names_resolve_once(self):
        import banditlab

        names = banditlab.__all__
        assert len(names) == len(set(names))
        missing = [name for name in names if not hasattr(banditlab, name)]
        assert missing == []
