"""Cycle-level pipeline model, PMCs and the TSC."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigError, MeasurementError
from repro.isa import IClass
from repro.microarch import (
    CorePipeline,
    CounterBank,
    PMC,
    PipelineConfig,
    ThreadState,
    TimestampCounter,
    normalized_undelivered,
)


class TestCounterBank:
    def test_add_and_read(self):
        bank = CounterBank()
        bank.add(PMC.CPU_CLK_UNHALTED, 100)
        assert bank.read(PMC.CPU_CLK_UNHALTED) == 100

    def test_negative_increment_rejected(self):
        bank = CounterBank()
        with pytest.raises(MeasurementError):
            bank.add(PMC.UOPS_DELIVERED, -1)

    def test_snapshot_delta(self):
        bank = CounterBank()
        bank.add(PMC.CPU_CLK_UNHALTED, 10)
        before = bank.snapshot()
        bank.add(PMC.CPU_CLK_UNHALTED, 5)
        assert bank.delta(before)[PMC.CPU_CLK_UNHALTED] == 5

    def test_reset(self):
        bank = CounterBank()
        bank.add(PMC.UOPS_DELIVERED, 7)
        bank.reset()
        assert bank.read(PMC.UOPS_DELIVERED) == 0

    def test_normalized_undelivered(self):
        delta = {PMC.CPU_CLK_UNHALTED: 100, PMC.IDQ_UOPS_NOT_DELIVERED: 300}
        assert normalized_undelivered(delta) == pytest.approx(0.75)

    def test_normalized_undelivered_requires_cycles(self):
        with pytest.raises(MeasurementError):
            normalized_undelivered({PMC.CPU_CLK_UNHALTED: 0})


class TestTSC:
    def test_read_scales_with_rate(self):
        tsc = TimestampCounter(2.2)
        assert tsc.read(1000.0) == 2200

    def test_read_monotone(self):
        tsc = TimestampCounter(2.2)
        assert tsc.read(2000.0) > tsc.read(1000.0)

    def test_cycles_ns_roundtrip(self):
        tsc = TimestampCounter(3.6)
        assert tsc.ns(tsc.cycles(123.0)) == pytest.approx(123.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            TimestampCounter(0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigError):
            TimestampCounter(1.0).read(-1.0)


class TestPipelineConfig:
    def test_blocked_fraction_is_three_quarters(self):
        assert PipelineConfig().blocked_fraction == pytest.approx(0.75)

    def test_rejects_open_cycles_beyond_window(self):
        with pytest.raises(ConfigError):
            PipelineConfig(throttle_window=4, throttle_open_cycles=5)

    def test_rejects_bad_smt(self):
        with pytest.raises(ConfigError):
            PipelineConfig(smt_threads=3)


class TestThrottleSignature:
    def test_throttled_undelivered_near_three_quarters(self):
        # Figure 11(a): ~75 % of slots undelivered while throttled.
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_throttle(True)
        before = pipe.thread(0).counters.snapshot()
        pipe.run(10_000)
        frac = normalized_undelivered(pipe.thread(0).counters.delta(before))
        assert 0.72 <= frac <= 0.78

    def test_unthrottled_undelivered_near_zero(self):
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_throttle(False)
        before = pipe.thread(0).counters.snapshot()
        pipe.run(10_000)
        frac = normalized_undelivered(pipe.thread(0).counters.delta(before))
        assert frac < 0.05

    def test_throttled_ipc_is_quarter_of_baseline(self):
        base = CorePipeline().measure_ipc(0, IClass.HEAVY_256, 20_000,
                                          throttled=False)
        throttled = CorePipeline().measure_ipc(0, IClass.HEAVY_256, 20_000,
                                               throttled=True)
        assert throttled == pytest.approx(base / 4.0, rel=0.05)

    def test_idle_core_counts_nothing(self):
        pipe = CorePipeline()
        pipe.run(100)
        assert pipe.core_counters.read(PMC.CPU_CLK_UNHALTED) == 0

    def test_throttle_cycles_counted(self):
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_throttle(True)
        pipe.run(1000)
        assert pipe.core_counters.read(PMC.THROTTLE_CYCLES) == 1000


class TestSMT:
    def test_whole_core_gate_throttles_both_threads(self):
        # Key Conclusion 5: the IDQ gate is shared by both SMT threads.
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_thread(1, IClass.SCALAR_64)
        pipe.set_throttle(True)
        before0 = pipe.thread(0).counters.snapshot()
        before1 = pipe.thread(1).counters.snapshot()
        pipe.run(20_000)
        d0 = pipe.thread(0).counters.delta(before0)[PMC.UOPS_DELIVERED]
        d1 = pipe.thread(1).counters.delta(before1)[PMC.UOPS_DELIVERED]
        total_unthrottled = 20_000 * 4
        assert (d0 + d1) / total_unthrottled < 0.3

    def test_smt_threads_share_delivery_when_unthrottled(self):
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_thread(1, IClass.HEAVY_256)
        pipe.run(20_000)
        d0 = pipe.thread(0).counters.read(PMC.UOPS_DELIVERED)
        d1 = pipe.thread(1).counters.read(PMC.UOPS_DELIVERED)
        assert d0 == pytest.approx(d1, rel=0.05)

    def test_improved_throttling_spares_the_sibling(self):
        # Section 7: gate only the PHI thread's uops.
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_thread(1, IClass.SCALAR_64)
        pipe.set_throttle(True, only_threads={0})
        pipe.run(20_000)
        d0 = pipe.thread(0).counters.read(PMC.UOPS_DELIVERED)
        d1 = pipe.thread(1).counters.read(PMC.UOPS_DELIVERED)
        assert d1 > 2 * d0

    def test_unknown_thread_rejected(self):
        pipe = CorePipeline(PipelineConfig(smt_threads=1))
        with pytest.raises(ConfigError):
            pipe.set_thread(1, IClass.SCALAR_64)

    def test_negative_cycles_rejected(self):
        pipe = CorePipeline()
        with pytest.raises(ConfigError):
            pipe.run(-1)


class StepOracle:
    """Reference front-end that applies the model's rules one cycle at a time.

    Each rule (gate window, owner pick, delivery, undelivered charge) is
    its own method and every counter is bumped per cycle, so
    :meth:`CorePipeline.run` is checked against an implementation that
    shares none of its loop.
    """

    def __init__(self, config):
        self.config = config
        self._threads = {tid: ThreadState(tid) for tid in range(config.smt_threads)}
        self.core_counters = CounterBank()
        self._cycle = 0
        self._throttled = False
        self._throttled_tids = None
        self._rr_next = 0

    def set_thread(self, tid, iclass):
        self._threads[tid].iclass = iclass

    def set_throttle(self, active, only_threads=None):
        self._throttled = active
        self._throttled_tids = set(only_threads) if only_threads is not None else None

    def run(self, cycles):
        for _ in range(cycles):
            self._step()

    def _gate_blocks(self, tid):
        if not self._throttled:
            return False
        if self._throttled_tids is not None and tid not in self._throttled_tids:
            return False
        return (self._cycle % self.config.throttle_window) >= self.config.throttle_open_cycles

    def _step(self):
        active = [t for t in self._threads.values() if t.active]
        if active:
            self.core_counters.add(PMC.CPU_CLK_UNHALTED, 1)
            if self._throttled:
                self.core_counters.add(PMC.THROTTLE_CYCLES, 1)
        for thread in active:
            thread.counters.add(PMC.CPU_CLK_UNHALTED, 1)
        if not active:
            self._cycle += 1
            return
        owner = self._pick_owner(active)
        width = self.config.delivery_width
        if self._gate_blocks(owner.tid):
            self._charge_undelivered(owner, width)
        else:
            delivered = self._deliver(owner, width)
            if delivered < width:
                self._charge_undelivered(owner, width - delivered)
        self._cycle += 1

    def _pick_owner(self, active):
        if len(active) == 1:
            return active[0]
        order = sorted(active, key=lambda t: (t.tid < self._rr_next, t.tid))
        for candidate in order:
            if not self._gate_blocks(candidate.tid):
                self._rr_next = (candidate.tid + 1) % self.config.smt_threads
                return candidate
        chosen = order[0]
        self._rr_next = (chosen.tid + 1) % self.config.smt_threads
        return chosen

    def _deliver(self, thread, width):
        block = self.config.block_instructions
        if thread._block_progress >= block:
            thread._block_progress = 0
            return 0
        deliverable = min(width, block - thread._block_progress)
        thread._block_progress += deliverable
        thread.counters.add(PMC.UOPS_DELIVERED, deliverable)
        thread.counters.add(PMC.INSTRUCTIONS_RETIRED, deliverable)
        self.core_counters.add(PMC.UOPS_DELIVERED, deliverable)
        self.core_counters.add(PMC.INSTRUCTIONS_RETIRED, deliverable)
        return deliverable

    def _charge_undelivered(self, owner, slots):
        owner.counters.add(PMC.IDQ_UOPS_NOT_DELIVERED, slots)
        self.core_counters.add(PMC.IDQ_UOPS_NOT_DELIVERED, slots)


def _pipeline_state(pipe, tids):
    return (
        pipe._cycle,
        pipe._rr_next,
        pipe.core_counters.snapshot(),
        [(pipe._threads[tid].counters.snapshot(), pipe._threads[tid]._block_progress)
         for tid in tids],
    )


@st.composite
def _pipeline_scenarios(draw):
    """A config plus a random set_thread / set_throttle / run sequence."""
    smt = draw(st.sampled_from([1, 2]))
    config = PipelineConfig(
        delivery_width=draw(st.sampled_from([1, 3, 4])),
        throttle_window=draw(st.sampled_from([4, 5])),
        throttle_open_cycles=draw(st.sampled_from([1, 2])),
        smt_threads=smt,
        block_instructions=draw(st.sampled_from([2, 7, 300])),
    )
    tids = st.integers(0, smt - 1)
    only = st.sampled_from([None, {0}, {1}] if smt == 2 else [None, {0}])
    op = st.one_of(
        st.tuples(st.just("thread"), tids,
                  st.sampled_from([None, IClass.HEAVY_256, IClass.SCALAR_64])),
        st.tuples(st.just("throttle"), st.booleans(), only),
        st.tuples(st.just("run"), st.one_of(st.integers(0, 12), st.integers(0, 700))),
    )
    return config, draw(st.lists(op, min_size=1, max_size=16))


class TestRunMatchesPerCycleOracle:
    @settings(max_examples=200, deadline=None)
    @example(scenario=(PipelineConfig(block_instructions=7, throttle_window=5,
                                      throttle_open_cycles=2),
                       [("thread", 0, IClass.HEAVY_256),
                        ("throttle", True, {1}), ("run", 0), ("run", 40),
                        ("thread", 1, IClass.SCALAR_64), ("run", 41),
                        ("throttle", True, {0}), ("run", 43),
                        ("thread", 0, None), ("run", 9)]))
    @example(scenario=(PipelineConfig(delivery_width=3),
                       [("thread", 0, IClass.HEAVY_256),
                        ("thread", 1, IClass.HEAVY_256),
                        ("throttle", True, None), ("run", 1), ("run", 1),
                        ("run", 650), ("throttle", False, None), ("run", 1)]))
    @example(scenario=(PipelineConfig(smt_threads=1, block_instructions=2),
                       [("run", 5), ("thread", 0, IClass.HEAVY_256),
                        ("throttle", True, {0}), ("run", 17)]))
    @given(scenario=_pipeline_scenarios())
    def test_counters_and_cursors_match_after_every_step(self, scenario):
        config, ops = scenario
        pipe, oracle = CorePipeline(config), StepOracle(config)
        tids = range(config.smt_threads)
        for op, *args in ops:
            for model in (pipe, oracle):
                if op == "thread":
                    model.set_thread(*args)
                elif op == "throttle":
                    model.set_throttle(*args)
                else:
                    model.run(*args)
            assert _pipeline_state(pipe, tids) == _pipeline_state(oracle, tids)

    def test_fig11_sums_pinned(self):
        # Exact float sums of the per-iteration fractions; any change to
        # a counter moves them.
        from repro.analysis.experiments import fig11_idq_signature
        result = fig11_idq_signature(iterations=200)
        assert sum(result.throttled) == 150.65562913907283
        assert sum(result.unthrottled) == 2.629139072847689


class TestArrayHelpers:
    """Vectorized counter/TSC forms must match their scalar references."""

    def test_tsc_read_array_matches_scalar(self):
        import numpy as np

        tsc = TimestampCounter(2.2)
        times = np.linspace(0.0, 1e7, 1001)
        lanes = tsc.read_array(times)
        assert lanes.dtype == np.int64
        assert [int(v) for v in lanes] == [tsc.read(float(t)) for t in times]

    def test_drifting_read_array_matches_scalar(self):
        import numpy as np

        from repro.microarch.tsc import DriftingTimestampCounter

        tsc = DriftingTimestampCounter(2.2, skew=120e-6, drift_per_s=3e-6)
        times = np.linspace(0.0, 5e8, 513)
        lanes = tsc.read_array(times)
        assert [int(v) for v in lanes] == [tsc.read(float(t)) for t in times]

    def test_read_array_rejects_negative_times(self):
        import numpy as np

        with pytest.raises(ConfigError):
            TimestampCounter(1.0).read_array(np.asarray([0.0, -1.0]))

    def test_counter_bank_as_array_follows_order(self):
        import numpy as np

        bank = CounterBank()
        bank.add(PMC.CPU_CLK_UNHALTED, 400)
        bank.add(PMC.IDQ_UOPS_NOT_DELIVERED, 1200)
        order = (PMC.IDQ_UOPS_NOT_DELIVERED, PMC.CPU_CLK_UNHALTED)
        assert list(bank.as_array(order)) == [1200, 400]
        assert bank.as_array().dtype == np.int64

    def test_delta_matrix_matches_pairwise_delta(self):
        from repro.microarch.counters import delta_matrix

        bank = CounterBank()
        snapshots = [bank.snapshot()]
        for step in (100, 250, 75):
            bank.add(PMC.CPU_CLK_UNHALTED, step)
            bank.add(PMC.IDQ_UOPS_NOT_DELIVERED, step * 3)
            snapshots.append(bank.snapshot())
        order = tuple(PMC)
        matrix = delta_matrix(snapshots, order)
        assert matrix.shape == (3, len(order))
        for row, (before, after) in zip(
                matrix, zip(snapshots, snapshots[1:])):
            expected = {pmc: after[pmc] - before[pmc] for pmc in order}
            assert list(row) == [expected[pmc] for pmc in order]

    def test_delta_matrix_rejects_backwards_counters(self):
        from repro.microarch.counters import delta_matrix

        good = {pmc: 10 for pmc in PMC}
        bad = dict(good)
        bad[PMC.CPU_CLK_UNHALTED] = 5
        with pytest.raises(MeasurementError):
            delta_matrix([good, bad])

    def test_normalized_undelivered_array_matches_scalar(self):
        from repro.microarch.counters import (
            delta_matrix,
            normalized_undelivered_array,
        )

        bank = CounterBank()
        snapshots = [bank.snapshot()]
        for cycles, undelivered in ((100, 300), (50, 10), (400, 1600)):
            bank.add(PMC.CPU_CLK_UNHALTED, cycles)
            bank.add(PMC.IDQ_UOPS_NOT_DELIVERED, undelivered)
            snapshots.append(bank.snapshot())
        matrix = delta_matrix(snapshots)
        fractions = normalized_undelivered_array(matrix)
        for row, fraction in zip(matrix, fractions):
            delta = {pmc: int(v) for pmc, v in zip(tuple(PMC), row)}
            assert float(fraction) == normalized_undelivered(delta)

    def test_normalized_undelivered_array_rejects_zero_cycles(self):
        import numpy as np

        from repro.microarch.counters import normalized_undelivered_array

        zeros = np.zeros((1, len(tuple(PMC))), dtype=np.int64)
        with pytest.raises(MeasurementError):
            normalized_undelivered_array(zeros)
