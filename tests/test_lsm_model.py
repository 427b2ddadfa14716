"""Statistical LSM shape model: triggers, picking, write amplification."""

import pytest

from repro.errors import SimulationError
from repro.lsm.options import (
    L0_COMPACTION_TRIGGER,
    L0_SLOWDOWN_TRIGGER,
    L0_STOP_TRIGGER,
    Options,
)
from repro.sim import lsm_model
from repro.sim.lsm_model import LsmShapeModel


def options(**kwargs):
    defaults = dict(write_buffer_size=4 << 20, sstable_size=2 << 20,
                    max_level0_size=10 << 20)
    defaults.update(kwargs)
    return Options(**defaults)


MEM = 4 << 20


class TestTriggers:
    def test_fresh_model_idle(self):
        model = LsmShapeModel(options())
        assert not model.needs_compaction()
        assert not model.slowdown
        assert not model.stopped

    def test_l0_file_count_trigger(self):
        model = LsmShapeModel(options())
        for _ in range(L0_COMPACTION_TRIGGER):
            model.add_l0_file(MEM)
        assert model.needs_compaction()
        score, level = model.compaction_score()
        assert level == 0
        assert score >= 1.0

    def test_slowdown_and_stop(self):
        model = LsmShapeModel(options())
        for _ in range(L0_SLOWDOWN_TRIGGER):
            model.add_l0_file(MEM)
        assert model.slowdown
        assert not model.stopped
        for _ in range(L0_STOP_TRIGGER - L0_SLOWDOWN_TRIGGER):
            model.add_l0_file(MEM)
        assert model.stopped

    def test_size_trigger_deeper(self):
        model = LsmShapeModel(options())
        model.level_bytes[1] = 50 << 20  # 5x the 10 MB budget
        score, level = model.compaction_score()
        assert level == 1
        assert score == pytest.approx(5.0)


class TestPickApply:
    def test_l0_task_consumes_l0_and_l1(self):
        model = LsmShapeModel(options())
        for _ in range(4):
            model.add_l0_file(MEM)
        model.level_bytes[1] = 8 << 20
        task = model.pick_compaction()
        assert task.level == 0
        assert task.l0_files_consumed == 4
        assert task.fpga_input_count == 5
        assert task.input_bytes == 4 * MEM + (8 << 20)
        assert model.l0_files == 0
        model.apply(task)
        assert model.level_bytes[1] == task.output_bytes

    def test_level_busy_prevents_double_pick(self):
        model = LsmShapeModel(options())
        for _ in range(4):
            model.add_l0_file(MEM)
        first = model.pick_compaction()
        assert first is not None
        # L0 is busy and empty; nothing else due.
        assert model.pick_compaction() is None
        model.apply(first)

    def test_apply_without_pick_rejected(self):
        from repro.sim.lsm_model import ModelCompactionTask
        model = LsmShapeModel(options())
        task = ModelCompactionTask(2, 100, 0, 2, 100)
        with pytest.raises(SimulationError):
            model.apply(task)

    def test_deep_task_drains_excess(self):
        model = LsmShapeModel(options())
        model.level_bytes[1] = 35 << 20  # 25 MB over budget
        task = model.pick_compaction()
        assert task.level == 1
        assert task.input_bytes >= 25 << 20
        assert model.level_bytes[1] <= 10 << 20

    def test_deep_task_pulls_child_overlap(self):
        model = LsmShapeModel(options())
        model.level_bytes[1] = 12 << 20
        model.level_bytes[2] = 100 << 20
        task = model.pick_compaction()
        assert task.level == 1
        assert task.input_bytes > 2 << 20  # includes child overlap
        assert task.fpga_input_count == 2


class TestSteadyState:
    def test_write_amplification_grows_with_data(self):
        def run(flushes):
            model = LsmShapeModel(options())
            for _ in range(flushes):
                model.add_l0_file(MEM)
                while model.needs_compaction():
                    task = model.pick_compaction()
                    if task is None:
                        break
                    model.apply(task)
            return model.stats.write_amplification()

        small = run(64)     # 256 MB
        large = run(1024)   # 4 GB
        assert large > small > 1.0

    def test_total_bytes_conserved_up_to_survival(self, monkeypatch):
        monkeypatch.setattr(lsm_model, "L0_SURVIVAL", 1.0)
        monkeypatch.setattr(lsm_model, "DEEP_SURVIVAL", 1.0)
        model = LsmShapeModel(options())
        ingested = 0
        for _ in range(128):
            model.add_l0_file(MEM)
            ingested += MEM
            while model.needs_compaction():
                task = model.pick_compaction()
                if task is None:
                    break
                model.apply(task)
        assert model.total_bytes() == pytest.approx(ingested, rel=0.01)
