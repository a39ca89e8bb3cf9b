"""Deferred trace recorder for the event engine (``repro.soc.kernel``).

Every recompute of a :class:`~repro.soc.system.System` produces one set
of observables: total Cdyn, package frequency, per-core throttle state
and activity class, and — through the rail voltage — the package power
that drives the thermal model.  Nothing on a covert channel's critical
path reads them: the receivers decode ``rdtsc`` deltas.  So the system
does not write its traces inline.  :meth:`KernelBatch.capture_state`
appends one compact entry to a log, and :meth:`KernelBatch.flush`
replays the log into the traces only when something reads them
(docs/KERNEL.md):

* a trace property of the System is read (``freq_trace``,
  ``temp_trace``, ...), or a signal accessor (``icc_at``,
  ``vcc_signal``, ...) calls ``System.sync_traces``;
* something touches ``System.thermal`` — the thermal-drift fault must
  integrate the temperature replayed up to ``now``;
* the log reaches :data:`LOG_CAP` entries, so a System whose traces are
  never read holds a bounded log.

Bit-identity contract with inline recording (checked in the test suite
against an inline-recording oracle, and by every committed golden):

* captured values are computed at capture time, from the same state and
  with the same expressions inline recording used;
* the rail voltage is looked up at replay time — sound because
  :class:`~repro.pdn.regulator.VoltageRegulator` history is append-only
  and a new segment starts at the voltage the older history gives at
  that instant, so ``voltage_at(t)`` for any past ``t`` is invariant
  under later commands;
* large replays use the vectorized ``voltages_at``, which applies the
  scalar clamped-fraction formula elementwise in float64 (IEEE-754
  lanes agree with scalar arithmetic bit for bit);
* the thermal chain is replayed in capture order, once per repeat:
  ``n_cores`` identical back-to-back records collapse into one log
  entry for every ``StepTrace`` (same-time records overwrite), but each
  zero-dt ``ThermalModel.advance`` moves the temperature at ULP level,
  so those are replayed one by one.

The log never changes *simulation* state evolution — activities, PMU
requests, rail commands and hysteresis advance identically; only the
recording of observables is deferred.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.isa.instructions import LABEL

#: Replays with at least this many captures evaluate the rail with one
#: vectorized ``voltages_at`` call; smaller ones use the scalar bisect
#: per capture (identical values either way).
VECTOR_THRESHOLD = 32

#: The log is replayed as soon as it holds this many captures, so a
#: System whose traces are never read keeps a bounded log.
LOG_CAP = 4096

#: One capture's observables: total Cdyn, frequency, per-core throttle
#: flags, per-core activity labels, and the number of identical records
#: it stands for.
Snapshot = Tuple[float, float, Tuple[int, ...], Tuple[str, ...], int]


class KernelBatch:
    """The deferred-trace log of one :class:`~repro.soc.system.System`.

    Each entry is a capture time plus an interned :data:`Snapshot`:
    consecutive recomputes mostly reproduce a handful of distinct
    states, so the log costs two list slots per capture.
    """

    __slots__ = ("system", "_times", "_snapshots", "_interned",
                 "flushes", "max_batch")

    def __init__(self, system: Any) -> None:
        self.system = system
        self._times: List[float] = []
        self._snapshots: List[Snapshot] = []
        self._interned: Dict[Snapshot, Snapshot] = {}
        self.flushes = 0
        self.max_batch = 0

    # -- capture -----------------------------------------------------------

    def capture_state(self, repeats: int) -> None:
        """Log one record's worth of observables at the current time.

        ``repeats`` is the number of identical back-to-back records
        inline recording issues (``n_cores`` for a full
        ``_recompute_all``, 1 for a standalone core recompute); it only
        affects the thermal replay, where zero-dt advances are not
        float no-ops.
        """
        system = self.system
        pmu = system.pmu
        n_cores = system.config.n_cores
        core_cdyn = system._core_cdyn
        total_cdyn = sum(core_cdyn(core) for core in range(n_cores))
        is_throttled = pmu.is_core_throttled
        throttles = tuple([
            1 if is_throttled(core) else 0 for core in range(n_cores)
        ])
        labels: List[str] = []
        for threads in system._core_threads:
            top = None
            for thread in threads:
                activity = thread.activity
                if activity is not None:
                    iclass = activity.loop.iclass
                    if top is None or iclass > top:
                        top = iclass
            labels.append("idle" if top is None else LABEL[top])
        snapshot = (total_cdyn, pmu.freq_ghz, throttles, tuple(labels),
                    repeats)
        self._times.append(system.engine.now)
        self._snapshots.append(self._interned.setdefault(snapshot, snapshot))
        if len(self._times) >= LOG_CAP:
            self.flush()

    # -- replay ------------------------------------------------------------

    def flush(self) -> None:
        """Replay every logged capture into the system's traces.

        Replays in capture order, so each trace sees its records
        chronologically and the thermal chain integrates in the order
        inline recording would have.  The rail voltage for each capture
        is evaluated here — past-time lookups are invariant under the
        commands issued since capture (append-only history).
        """
        times = self._times
        if not times:
            return
        snapshots = self._snapshots
        self._times = []
        self._snapshots = []
        self._interned = {}
        self.flushes += 1
        if len(times) > self.max_batch:
            self.max_batch = len(times)

        system = self.system
        rail = system.pmu.rail_of(0)
        if len(times) >= VECTOR_THRESHOLD:
            vccs = rail.voltages_at(np.asarray(times, dtype=float)).tolist()
        else:
            voltage_at = rail.voltage_at
            vccs = [voltage_at(t) for t in times]

        cdyn_record = system._cdyn_trace.record
        freq_record = system._freq_trace.record
        throttle_records = [trace.record for trace in system._throttle_traces]
        activity_records = [trace.record for trace in system._activity_traces]
        temp_record = system._temp_trace.record
        advance = system._thermal.advance
        n_cores = system.config.n_cores
        for now, snapshot, vcc in zip(times, snapshots, vccs):
            total_cdyn, freq, throttles, labels, repeats = snapshot
            cdyn_record(now, total_cdyn)
            freq_record(now, freq)
            for core in range(n_cores):
                throttle_records[core](now, throttles[core])
                activity_records[core](now, labels[core])
            power = total_cdyn * vcc * vcc * freq
            for _ in range(repeats):
                temp_record(now, advance(now, power))

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Replay counters and the current log size."""
        return {
            "flushes": self.flushes,
            "max_batch": self.max_batch,
            "pending": len(self._times),
        }
