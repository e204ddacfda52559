"""Tests for the deterministic fault-injection plan."""

import pytest

from repro.resilience import FaultPlan


class TestValidation:
    def test_corrupt_rate_range(self):
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=-0.1)

    def test_crash_after_units_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_after_units=0)


class TestDeterminism:
    def test_default_plan_injects_nothing(self):
        plan = FaultPlan()
        assert not any(plan.corrupts_line(i) for i in range(100))
        assert not plan.crashes_after(100)

    def test_different_seeds_differ(self):
        lines = range(200)
        a = [FaultPlan(seed=1, corrupt_rate=0.5).corrupts_line(n) for n in lines]
        b = [FaultPlan(seed=2, corrupt_rate=0.5).corrupts_line(n) for n in lines]
        assert a != b

    def test_rate_roughly_respected(self):
        plan = FaultPlan(seed=3, corrupt_rate=0.25)
        hits = sum(plan.corrupts_line(n) for n in range(1000))
        assert 150 < hits < 350

    def test_corruption_is_deterministic(self):
        a = FaultPlan(seed=11, corrupt_rate=0.2)
        b = FaultPlan(seed=11, corrupt_rate=0.2)
        lines = list(range(1, 500))
        assert [a.corrupts_line(n) for n in lines] == [
            b.corrupts_line(n) for n in lines
        ]
        assert any(a.corrupts_line(n) for n in lines)


class TestBehavior:
    def test_corrupt_breaks_json(self):
        import json

        plan = FaultPlan(corrupt_rate=1.0)
        line = '{"type": "rib", "peer_ip": "10.0.0.1", "path": [1, 2]}'
        mangled = plan.corrupt(line)
        assert mangled != line
        with pytest.raises(json.JSONDecodeError):
            json.loads(mangled)

    def test_crashes_after(self):
        plan = FaultPlan(crash_after_units=3)
        assert not plan.crashes_after(2)
        assert plan.crashes_after(3)
        assert plan.crashes_after(4)
        assert not FaultPlan().crashes_after(1000)
