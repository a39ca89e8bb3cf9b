"""The layer map: which public simulator functions make up each layer.

:class:`LayerProbe` installs one :class:`~tracer.SpanRecorder` wrapper
per entry of :data:`LAYERS` (and one ``analysis.<name>`` span per paper
experiment), and keeps the counts that only exist at those boundaries:
cache hits, delivered session frames, and a census of every
:class:`~repro.soc.system.System` built during a round (events, simulated
time, batch-kernel state and VR transitions, read from the System's own
public state when it finishes a run).

Layer names follow the package layout (``soc``, ``pdn``, ``pmu``,
``measure``, ``microarch``, ``core``, ``faults``, ``scenarios``,
``runner``) so a regression points at a module.
"""

from __future__ import annotations

import importlib
import weakref
from collections import Counter
from typing import Any, Dict, List, Tuple

from tracer import SpanRecorder

#: (layer name, [(module, class or None, attribute), ...]).  A class
#: entry is also wrapped on every subclass that overrides it; a ``None``
#: class means a module-level function.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, Any, str], ...]], ...] = (
    ("soc.system_init", (("repro.soc.system", "System", "__init__"),)),
    ("soc.run", (("repro.soc.system", "System", "run_until"),
                 ("repro.soc.system", "System", "run_to_completion"))),
    ("soc.kernel.flush", (("repro.soc.kernel", "KernelBatch", "flush"),)),
    ("pdn.command", (("repro.pdn.regulator", "VoltageRegulator", "command"),)),
    ("pdn.voltage_at", (("repro.pdn.regulator", "VoltageRegulator", "voltage_at"),
                        ("repro.pdn.regulator", "VoltageRegulator", "voltages_at"))),
    ("pmu.request", (("repro.pmu.central", "CentralPMU", "request_up"),
                     ("repro.pmu.central", "CentralPMU", "request_down"))),
    ("pmu.local", tuple(("repro.pmu.local", "LocalPMU", attr) for attr in (
        "gate_wake_latency", "touch_gates", "note_execute", "requirement",
        "next_expiry_ns"))),
    ("pmu.thermal.advance", (("repro.pmu.thermal", "ThermalModel", "advance"),)),
    ("measure.trace.record", (("repro.measure.trace", "StepTrace", "record"),)),
    ("measure.trace.query", tuple(("repro.measure.trace", "StepTrace", attr) for attr in (
        "value_at", "values_at", "signal", "changes_in", "time_weighted_mean"))),
    ("microarch.pipeline.run", (("repro.microarch.pipeline", "CorePipeline", "run"),)),
    ("microarch.tsc.read", (("repro.microarch.tsc", "TimestampCounter", "read"),
                            ("repro.microarch.tsc", "TimestampCounter", "read_array"))),
    ("core.calibrate", (("repro.core.channel", "CovertChannel", "calibrate"),)),
    ("core.decode", (("repro.core.calibration", "Calibrator", "decode"),)),
    ("core.run_symbols", (("repro.core.channel", "CovertChannel", "run_symbols"),)),
    ("core.session.send", (("repro.core.session", "CovertSession", "send"),)),
    ("core.ecc", tuple(("repro.core.ecc", cls, attr) for cls, attr in (
        ("RepetitionCode", "encode"), ("RepetitionCode", "decode"),
        ("Hamming74", "encode"), ("Hamming74", "decode"),
        ("CRC8", "checksum"), ("CRC8", "append"), ("CRC8", "verify"),
        (None, "interleave"), (None, "deinterleave")))),
    ("faults.hooks", tuple(("repro.faults.injector", "FaultInjector", attr) for attr in (
        "attach", "attach_daq", "perturb_samples", "perturb_schedule",
        "extra_slot_slack_ns"))),
    ("scenarios.build", (("repro.scenarios.build", None, "build_system"),)),
    ("runner.map", (("repro.runner.sweep", "SweepRunner", "map"),)),
    ("runner.cache.get", (("repro.runner.cache", "ResultCache", "get"),)),
    ("runner.cache.put", (("repro.runner.cache", "ResultCache", "put"),)),
)

#: Paper experiments the report calls, each traced as ``analysis.<name>``.
ANALYSIS_SECTIONS = (
    "fig6_voltage_steps", "fig7_limit_protection", "fig8_throttling",
    "fig9_timeline", "fig10_multilevel", "fig11_idq_signature",
    "fig12_throughput", "fig13_level_distribution",
    "fig14_noise_sensitivity", "table1_mitigations", "table2_comparison",
)

#: Every traced layer name, in table order.
LAYER_NAMES: Tuple[str, ...] = (tuple(name for name, _ in LAYERS)
                                + tuple(f"analysis.{s}" for s in ANALYSIS_SECTIONS))


def system_census(system: Any) -> Tuple[int, float, bool, int]:
    """(events run, simulated ns, kernel active, VR transitions) of a System."""
    return (system.engine.events_run, system.now, system.kernel_active,
            sum(system.pmu.transitions_issued))


class LayerProbe:
    """Installs the layer wrappers and collects boundary counts per round."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.counters: Counter = Counter()
        self._live: "weakref.WeakKeyDictionary[Any, int]" = weakref.WeakKeyDictionary()
        self._census: List[Tuple[int, float, bool, int]] = []

    # -- hooks ---------------------------------------------------------------

    def _on_system(self, args: tuple, _result: Any) -> None:
        system = args[0]
        self._live[system] = len(self._census)
        self._census.append(system_census(system))

    def _on_run(self, args: tuple, _result: Any) -> None:
        system = args[0]
        idx = self._live.get(system)
        if idx is not None:
            self._census[idx] = system_census(system)

    def _on_cache_get(self, _args: tuple, result: Tuple[bool, Any]) -> None:
        self.counters["runner.cache.hits"] += int(bool(result[0]))

    def _on_send(self, _args: tuple, report: Any) -> None:
        self.counters["core.session.frames_delivered"] += sum(
            1 for frame in report.frames if frame.delivered)
        self.counters["core.session.attempts"] += report.total_attempts

    def _task_body(self, args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
        """Route ``SweepRunner.map``'s task function through a ``~`` span.

        ``functools.wraps`` keeps ``__module__``/``__qualname__``, which
        is all the result cache keys a task on.
        """
        if len(args) > 1:
            args = (args[0], self.recorder.wrap(args[1], "~runner.task")) + args[2:]
        else:
            kwargs = dict(kwargs, fn=self.recorder.wrap(kwargs["fn"], "~runner.task"))
        return args, kwargs

    # -- install / remove ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function; :meth:`uninstall` must run before the next install."""
        if self.recorder.patched:
            raise RuntimeError("layer wrappers are already installed")
        on_return = {
            ("System", "__init__"): self._on_system,
            ("System", "run_until"): self._on_run,
            ("System", "run_to_completion"): self._on_run,
            ("ResultCache", "get"): self._on_cache_get,
            ("CovertSession", "send"): self._on_send,
        }
        rec = self.recorder
        for layer, targets in LAYERS:
            for module_name, cls_name, attr in targets:
                module = importlib.import_module(module_name)
                if cls_name is None:
                    rec.patch_function(module_name, attr, layer)
                elif (cls_name, attr) == ("SweepRunner", "map"):
                    rec.patch_method(getattr(module, cls_name), attr, layer,
                                     prepare=self._task_body)
                else:
                    rec.patch_method_tree(getattr(module, cls_name), attr, layer,
                                          on_return.get((cls_name, attr)))
        importlib.import_module("repro.analysis.experiments")
        for section in ANALYSIS_SECTIONS:
            rec.patch_function("repro.analysis.experiments", section,
                               f"analysis.{section}")

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        self.recorder.unpatch_all()

    # -- per-round figures ---------------------------------------------------------

    def end_round(self) -> Dict[str, float]:
        """Census and counter totals of the round just finished; resets both.

        Systems still alive are read again first; the others were read
        when their last run ended.
        """
        for system in list(self._live.keys()):
            self._on_run((system,), None)
        census = self._census
        counters = self.counters
        out = {
            "soc.systems": float(len(census)),
            "soc.engine.events": float(sum(c[0] for c in census)),
            "soc.sim_ms": sum(c[1] for c in census) / 1e6,
            "soc.kernel_active": float(sum(1 for c in census if c[2])),
            "soc.vr_transitions": float(sum(c[3] for c in census)),
            "runner.cache.hits": float(counters["runner.cache.hits"]),
            "core.session.frames_delivered": float(
                counters["core.session.frames_delivered"]),
            "core.session.attempts": float(counters["core.session.attempts"]),
        }
        self._census = []
        self._live = weakref.WeakKeyDictionary()
        self.counters = Counter()
        return out
