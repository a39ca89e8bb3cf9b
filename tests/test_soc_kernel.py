"""Deferred trace recorder: one lazy log for every System, checked bit
for bit against an inline-recording oracle, plus engine regressions."""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import IClass, Loop, System
from repro.core import IccThreadCovert
from repro.faults import (
    FaultInjector,
    GrantQueueInterference,
    SlotScheduleJitter,
    StateFlush,
    ThermalDriftRamp,
)
from repro.isa.instructions import CDYN_NF, LABEL
from repro.pmu.governors import Governor, GovernorKind
from repro.pmu.thermal import ThermalSpec
from repro.soc import Engine
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.kernel import LOG_CAP
from repro.soc.system import IDLE_CDYN_NF
from repro.units import us_to_ns


# -- the inline-recording oracle ------------------------------------------------


def _core_cdyn(system, core):
    classes = [
        t.activity.loop.iclass
        for t in system._core_threads[core]
        if t.runnable and t.activity is not None
    ]
    if not classes:
        if system.cstates is not None:
            return system.cstates.idle_cdyn_nf(core, system.engine.now)
        return IDLE_CDYN_NF
    return max(CDYN_NF[c] for c in classes)


def _record_state(system):
    """Write one record of every observable straight into the traces.

    The inline recording path the simulator used before the deferred
    log, kept verbatim as the reference the replay must reproduce.
    """
    now = system.engine.now
    total_cdyn = sum(_core_cdyn(system, core)
                     for core in range(system.config.n_cores))
    system._cdyn_trace.record(now, total_cdyn)
    system._freq_trace.record(now, system.pmu.freq_ghz)
    for core in range(system.config.n_cores):
        system._throttle_traces[core].record(
            now, 1 if system.pmu.is_core_throttled(core) else 0,
        )
        classes = [
            t.activity.loop.iclass
            for t in system._core_threads[core]
            if t.activity is not None
        ]
        top = max(classes) if classes else None
        system._activity_traces[core].record(
            now, LABEL[top] if top is not None else "idle",
        )
    vcc = system.vcc_at(now)
    freq = system.pmu.freq_ghz
    power = total_cdyn * vcc * vcc * freq
    system._temp_trace.record(now, system._thermal.advance(now, power))


class InlineRecorder:
    """Drop-in for ``KernelBatch`` that records at capture time."""

    def __init__(self, system):
        self.system = system

    def capture_state(self, repeats):
        for _ in range(repeats):
            _record_state(self.system)

    def flush(self):
        pass


def _inline_recompute_all(system):
    """A PMU state change: record the frequency, then recompute and
    record core by core, interleaved as inline recording did."""
    system._freq_trace.record(system.engine.now, system.pmu.freq_ghz)
    for core in range(system.config.n_cores):
        system._recompute_core(core)


@contextlib.contextmanager
def inline_recording():
    """Systems built inside this block record inline (the oracle).

    The recorder and the PMU's state-change callback are bound at
    construction, so a System keeps recording inline after the block.
    """
    with mock.patch("repro.soc.system.KernelBatch", InlineRecorder), \
            mock.patch.object(System, "_recompute_all", _inline_recompute_all):
        yield


def _trace_state(system):
    """Every observable as comparable breakpoint lists."""
    state = {
        "vcc": system.vcc_signal().breakpoints(),
        "icc": system.icc_signal().breakpoints(),
        "freq": system.freq_trace.breakpoints(),
        "cdyn": system.cdyn_trace.breakpoints(),
        "temp": system.temp_trace.breakpoints(),
    }
    for core, trace in enumerate(system.throttle_traces):
        state[f"throttle{core}"] = trace.breakpoints()
    for core, trace in enumerate(system.activity_traces):
        state[f"activity{core}"] = trace.breakpoints()
    return state


def _bits(value):
    """A float-exact, comparable form of a breakpoint container."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if isinstance(value, float):
        return value.hex()
    return value


def assert_identical_traces(oracle, lazy):
    """Bit-for-bit comparison of two systems' full trace state."""
    left, right = _trace_state(oracle), _trace_state(lazy)
    assert left.keys() == right.keys()
    for name in left:
        assert _bits(left[name]) == _bits(right[name]), \
            f"{name} breakpoints differ"


def _run_transfer(payload=b"\x5a", faults=None):
    system = System(cannon_lake_i3_8121u())
    if faults is not None:
        FaultInjector(faults()).attach(system)
    report = IccThreadCovert(system).transfer(payload)
    return system, report


def _run_inline(run, *args, **kwargs):
    with inline_recording():
        return run(*args, **kwargs)


class TestEngineCancelRegressions:
    """Regressions for the fused run_until loop and cancel bookkeeping."""

    def test_cancel_heavy_run_until_runs_every_live_event(self):
        # Enough entries to clear _COMPACT_MIN_SIZE, cancelled from
        # inside a dispatched callback so compaction fires mid-loop.
        engine = Engine()
        ran = []
        handles = [engine.schedule(100.0 + i, ran.append, i)
                   for i in range(200)]

        def cancel_most():
            for handle in handles[10:190]:
                handle.cancel()

        engine.schedule(50.0, cancel_most)
        engine.run_until(1_000.0)
        assert ran == list(range(10)) + list(range(190, 200))
        assert engine.check_cancel_invariant()
        assert engine.now == 1_000.0

    def test_compaction_mid_run_does_not_drop_later_schedules(self):
        # The callback cancels enough garbage to trigger a compaction,
        # then schedules a new event; run_until's cached heap alias must
        # still see it (compaction rebuilds the heap in place).
        engine = Engine()
        ran = []
        garbage = [engine.schedule(500.0 + i, ran.append, "garbage")
                   for i in range(120)]

        def churn():
            for handle in garbage:
                handle.cancel()
            engine.schedule(10.0, ran.append, "late")

        engine.schedule(1.0, churn)
        engine.run_until(2_000.0)
        assert ran == ["late"]
        assert engine.check_cancel_invariant()

    def test_cancel_after_pop_leaves_garbage_estimate_alone(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run_until(5.0)
        handle.cancel()  # stale cancel of an already-run event
        assert engine._cancelled == 0
        assert engine.check_cancel_invariant()

    def test_cancel_invariant_across_compactions(self):
        engine = Engine()
        for _ in range(3):
            handles = [engine.schedule(1_000.0, lambda: None)
                       for _ in range(100)]
            for handle in handles:
                handle.cancel()
                handle.cancel()  # idempotent: second cancel is a no-op
                assert engine.check_cancel_invariant()
        engine.run_until(2_000.0)
        assert engine.check_cancel_invariant()
        assert engine._heap == []


class TestKernelEligibility:
    """Every System records through the deferred log; none falls back."""

    @staticmethod
    def _busy(system):
        def program():
            yield system.execute(0, Loop(IClass.HEAVY_256, 50))

        system.spawn(program())
        system.run_until(us_to_ns(300.0))

    @staticmethod
    def _assert_deferred(system):
        assert system.kernel_active
        stats = system.kernel_stats()
        assert stats["pending"] > 0 and stats["flushes"] == 0

    def test_auto_installs_on_plain_system(self):
        system = System(cannon_lake_i3_8121u())
        self._busy(system)
        self._assert_deferred(system)

    def test_governor_at_construction_keeps_recorder(self):
        config = cannon_lake_i3_8121u()
        governor = Governor(GovernorKind.POWERSAVE, config.min_freq_ghz,
                            config.max_turbo_ghz)
        system = System(config, governor=governor)
        self._busy(system)
        self._assert_deferred(system)

    def test_apply_governor_keeps_recorder(self):
        config = cannon_lake_i3_8121u()
        system = System(config)
        system.apply_governor(Governor(GovernorKind.PERFORMANCE,
                                       config.min_freq_ghz,
                                       config.max_turbo_ghz))
        self._busy(system)
        self._assert_deferred(system)

    def test_cstates_keep_recorder(self):
        config = cannon_lake_i3_8121u().with_overrides(cstates_enabled=True)
        system = System(config)
        self._busy(system)
        self._assert_deferred(system)

    def test_fault_attach_keeps_recorder(self):
        system = System(cannon_lake_i3_8121u())
        FaultInjector([SlotScheduleJitter()]).attach(system)
        self._busy(system)
        self._assert_deferred(system)


class TestKernelScalarEquivalence:
    """The lazy log against the inline-recording oracle."""

    def test_transfer_reports_and_traces_identical(self):
        oracle_system, oracle_report = _run_inline(_run_transfer)
        lazy_system, lazy_report = _run_transfer()
        assert lazy_system.kernel_stats()["flushes"] == 0  # nothing read yet
        assert oracle_report.received == lazy_report.received
        assert oracle_report.ber == lazy_report.ber
        assert oracle_report.measurements_tsc == lazy_report.measurements_tsc
        assert (oracle_system.engine.events_run
                == lazy_system.engine.events_run)
        assert_identical_traces(oracle_system, lazy_system)

    def test_faulted_transfer_identical(self):
        # Thermal drift touches System.thermal mid-run: the recorder must
        # replay the temperature up to now before the ambient moves.
        def faults():
            return [SlotScheduleJitter(seed=7),
                    ThermalDriftRamp(rate_c_per_s=50.0, step_us=100.0),
                    GrantQueueInterference(seed=3)]

        oracle_system, oracle_report = _run_inline(
            _run_transfer, b"\xc3\x0f", faults)
        lazy_system, lazy_report = _run_transfer(b"\xc3\x0f", faults)
        assert lazy_system.faults.event_counts()["thermal-drift"] > 0
        assert oracle_report.received == lazy_report.received
        assert oracle_report.measurements_tsc == lazy_report.measurements_tsc
        assert_identical_traces(oracle_system, lazy_system)

    def test_sync_traces_is_idempotent_and_flushes_pending(self):
        system = System(cannon_lake_i3_8121u())
        spawned = []

        def program():
            result = yield system.execute(0, Loop(IClass.HEAVY_256, 50))
            spawned.append(result)

        system.spawn(program())
        system.run_until(us_to_ns(500.0))
        assert spawned
        assert system.kernel_stats()["pending"] > 0  # run_until defers
        system.sync_traces()
        stats = system.kernel_stats()
        assert stats["pending"] == 0 and stats["flushes"] == 1
        system.sync_traces()
        assert system.kernel_stats() == stats

    def test_trace_reads_inside_a_running_program_match_oracle(self):
        def run():
            # At turbo, every AVX phase moves the frequency trace too.
            config = cannon_lake_i3_8121u()
            system = System(config, governor_freq_ghz=config.max_turbo_ghz)
            seen = []

            def program():
                for step, iclass in enumerate((IClass.HEAVY_256,
                                               IClass.HEAVY_512,
                                               IClass.SCALAR_64,
                                               IClass.LIGHT_128)):
                    yield system.execute(0, Loop(iclass, 40))
                    # Alternate which trace is read first, so each read
                    # must replay the log by itself.
                    if step % 2:
                        freq = system.freq_trace.breakpoints()
                        temp = system.temp_trace.breakpoints()
                    else:
                        temp = system.temp_trace.breakpoints()
                        freq = system.freq_trace.breakpoints()
                    assert freq[-1][0] <= system.now
                    assert temp[-1][0] <= system.now
                    seen.append((system.now, freq, temp))
                    yield system.sleep(us_to_ns(20.0))

            system.spawn(program())
            system.run_to_completion()
            return seen

        oracle_seen = _run_inline(run)
        lazy_seen = run()
        assert len(lazy_seen) == 4
        assert _bits(lazy_seen) == _bits(oracle_seen)

    def test_unread_system_log_stays_within_cap(self):
        def run():
            system = System(cannon_lake_i3_8121u())

            def program(thread_id):
                for i in range(700):
                    iclass = (IClass.HEAVY_512, IClass.SCALAR_64)[i % 2]
                    yield system.execute(thread_id, Loop(iclass, 3))

            for thread_id in range(system.config.n_threads):
                system.spawn(program(thread_id))
            system.run_to_completion()
            return system

        lazy = run()
        stats = lazy.kernel_stats()
        assert stats["flushes"] >= 1
        assert stats["max_batch"] == LOG_CAP
        assert 0 < stats["pending"] <= LOG_CAP
        assert_identical_traces(_run_inline(run), lazy)

    @pytest.mark.parametrize("name", ["demo_transfer", "fig8_slice"])
    def test_golden_scenarios_bit_identical(self, name):
        from repro.verify.digest import diff_documents
        from repro.verify.scenarios import compute_document

        oracle = _run_inline(compute_document, name)
        lazy = compute_document(name)
        assert diff_documents(oracle, lazy) == []


# Random schedules: thread, class, iterations, start offset; plus an
# optional fault-injection flag.
_SETTINGS = dict(max_examples=10, deadline=None)
schedules = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(list(IClass)),
        st.integers(1, 20),
        st.floats(0.0, 30_000.0),
    ),
    min_size=1, max_size=5,
)

# Random programs: per hardware thread, a sequence of execute / sleep /
# suspend-another-thread steps.
_steps = st.one_of(
    st.tuples(st.just("execute"), st.sampled_from(list(IClass)),
              st.integers(1, 30)),
    st.tuples(st.just("sleep"), st.floats(0.0, 60.0)),
    st.tuples(st.just("suspend"), st.integers(0, 7), st.floats(0.5, 40.0)),
)
programs = st.lists(st.lists(_steps, min_size=1, max_size=6),
                    min_size=1, max_size=4)
features = st.fixed_dictionaries({
    "n_cores": st.sampled_from([1, 2, 4]),
    "cstates": st.booleans(),
    "governor": st.sampled_from([None, "construction", "apply"]),
    "faults": st.booleans(),
    "steep_thermal": st.booleans(),
})

#: A package whose steady state sits far above a near-zero ambient, so
#: zero-dt thermal advances are not float no-ops and every repeat of a
#: capture shows in the temperature trace.
STEEP_THERMAL = ThermalSpec(r_th_c_per_w=400.0, tau_s=1e-4,
                            t_ambient_c=0.01, tj_max_c=1e6)


def _run_program(spec, program_steps):
    """Build a System with ``spec``'s features and run random programs."""
    config = cannon_lake_i3_8121u().with_overrides(
        n_cores=spec["n_cores"], cstates_enabled=spec["cstates"])
    if spec["steep_thermal"]:
        config = config.with_overrides(thermal=STEEP_THERMAL)
    governor = Governor(GovernorKind.POWERSAVE, config.min_freq_ghz,
                        config.max_turbo_ghz)
    system = System(config, governor=(
        governor if spec["governor"] == "construction" else None))
    if spec["faults"]:
        FaultInjector([
            ThermalDriftRamp(rate_c_per_s=80.0, step_us=50.0),
            GrantQueueInterference(burst_rate_per_s=4_000.0, hold_us=30.0,
                                   seed=5),
            StateFlush(quantum_us=300.0, hold_us=20.0),
        ]).attach(system)
    if spec["governor"] == "apply":
        def retune():
            yield system.sleep(us_to_ns(45.0))
            system.apply_governor(Governor(GovernorKind.PERFORMANCE,
                                           config.min_freq_ghz,
                                           config.max_turbo_ghz))
        system.spawn(retune())
    n_threads = config.n_threads
    results = []

    def body(thread_id, steps):
        for step in steps:
            if step[0] == "execute":
                _, iclass, iterations = step
                if iclass.width_bits <= config.max_vector_bits:
                    results.append((yield system.execute(
                        thread_id, Loop(iclass, iterations))))
            elif step[0] == "sleep":
                yield system.sleep(us_to_ns(step[1]))
            else:
                target = step[1] % n_threads
                system.suspend_thread(target)
                yield system.sleep(us_to_ns(step[2]))
                system.resume_thread(target)

    for thread_id, steps in enumerate(program_steps[:n_threads]):
        system.spawn(body(thread_id, steps))
    system.run_until(us_to_ns(1_500.0))
    return system, results


class TestKernelProperties:
    @settings(**_SETTINGS)
    @given(schedules, st.booleans())
    def test_random_schedules_bit_identical(self, schedule, with_faults):
        deduped = list({item[0]: item for item in schedule}.values())

        def run():
            system = System(cannon_lake_i3_8121u())
            if with_faults:
                FaultInjector([SlotScheduleJitter(seed=3)]).attach(system)
            results = []

            def program(thread_id, iclass, iterations, start_ns):
                def body():
                    yield system.until(start_ns)
                    result = yield system.execute(
                        thread_id, Loop(iclass, iterations))
                    results.append(result)
                return body()

            for item in deduped:
                system.spawn(program(*item))
            system.run_until(us_to_ns(2_000.0))
            return system, results

        oracle_system, oracle_results = _run_inline(run)
        lazy_system, lazy_results = run()
        assert len(oracle_results) == len(lazy_results)
        for left, right in zip(oracle_results, lazy_results):
            assert left.elapsed_ns == right.elapsed_ns
            assert left.throttled_ns == right.throttled_ns
        assert_identical_traces(oracle_system, lazy_system)
        assert oracle_system.engine.check_cancel_invariant()
        assert lazy_system.engine.check_cancel_invariant()

    @settings(max_examples=30, deadline=None)
    @given(features, programs)
    def test_random_programs_bit_identical(self, spec, program_steps):
        oracle_system, oracle_results = _run_inline(
            _run_program, spec, program_steps)
        lazy_system, lazy_results = _run_program(spec, program_steps)
        assert lazy_results == oracle_results
        assert (lazy_system.engine.events_run
                == oracle_system.engine.events_run)
        assert_identical_traces(oracle_system, lazy_system)
