"""Tests of the benchmark's own code (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
from layers import LAYERS, LayerProbe  # noqa: E402
from tracer import SpanRecorder, UNATTRIBUTED, self_time, union_length  # noqa: E402
from workloads import TransferWorkload, Workload  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


# -- self time ----------------------------------------------------------------

def test_union_merges_overlaps_and_clips_to_parent():
    assert union_length([(1, 4), (3, 6)], 0, 10) == 5
    assert union_length([(1, 2), (5, 7)], 0, 10) == 3
    assert union_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10 - 5 - 1)
    assert self_time(0.0, 10.0, [(-1.0, 2.0), (9.0, 12.0)]) == pytest.approx(7)
    assert self_time(0.0, 10.0, []) == 10


def _clock(*ticks):
    ticks = iter(ticks)
    return lambda: next(ticks)


def test_recorder_self_time_of_nested_spans():
    # Each inner close reads the clock once more, for its parent.
    rec = SpanRecorder(clock=_clock(0, 1, 2, 3, 3, 4, 6, 6, 8, 8, 10))
    inner = rec.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    outer = rec.wrap(body, "outer")
    rec.begin("round")
    outer()
    rec.end()
    out = rec.take()
    assert out["outer"] == {"calls": 1, "self_s": 7 - 3, "total_s": 7}
    assert out["inner"] == {"calls": 2, "self_s": 3, "total_s": 3}
    assert out[UNATTRIBUTED]["self_s"] == 10 - 7
    assert rec.take() == {UNATTRIBUTED: {"calls": 0, "self_s": 0.0, "total_s": 0.0}}


def test_transparent_spans_fold_into_unattributed():
    rec = SpanRecorder(clock=_clock(0, 1, 2, 3, 4, 4, 6, 6, 7, 7, 10))
    leaf = rec.wrap(lambda: None, "layer")
    task = rec.wrap(leaf, "~task")
    layer = rec.wrap(task, "layer")
    rec.begin("round")
    layer()
    rec.end()
    out = rec.take()
    assert out["layer"]["calls"] == 2
    assert out["layer"]["self_s"] == (6 - 4) + 1
    assert out[UNATTRIBUTED]["self_s"] == (4 - 1) + (10 - 6)
    assert "~task" not in out and "round" not in out


# -- the percentile rule ------------------------------------------------------

def test_p90_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.resolved(100, 0.9)
    assert not stats.resolved(99, 0.9)
    assert stats.samples_beyond(1000, 0.99) == 10
    assert not stats.resolved(19, 0.5) and stats.resolved(20, 0.5)


def test_transfer_round_resolves_its_p90():
    from workloads import TRANSFER_ROUND

    assert stats.resolved(TRANSFER_ROUND, 0.9)
    assert not stats.resolved(TRANSFER_ROUND - 3, 0.9)


def test_percentile_interpolates_like_numpy():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(samples, 0.5) == 3.0
    assert stats.percentile(samples, 0.9) == pytest.approx(4.6)


# -- output checks --------------------------------------------------------------

class _Echo(Workload):
    """Three ops returning fixed strings; digest = the string itself."""

    name = "echo"

    def __init__(self, expected):
        super().__init__(0, {}, HERE)
        self.expected = expected

    def ops(self):
        return [lambda v=v: v for v in ("a", "b", "c")]

    def output_digest(self, index, result):
        return result

    def expected_digest(self, index):
        return self.expected[index]


def test_perturbed_digest_counts_as_failed_op():
    log = run.run_rounds(_Echo(["a", "B", "c"]), seconds=0, rounds=2)
    assert [len(entry["failures"]) for entry in log] == [1, 1]
    assert "op 1" in log[0]["failures"][0]
    clean = run.run_rounds(_Echo(["a", "b", "c"]), seconds=0, rounds=2)
    assert all(not entry["failures"] for entry in clean)


def test_raising_op_counts_as_failed_op():
    class Boom(_Echo):
        def ops(self):
            def boom():
                raise RuntimeError("boom")
            return [boom]

    log = run.run_rounds(Boom([None]), seconds=0, rounds=1)
    assert log[0]["failures"] == ["op 0: raised"]


def test_transfer_digest_matches_reference_and_perturbation_fails(tmp_path):
    ref = REFERENCE["workloads"]["transfer"]
    workload = TransferWorkload(1, ref, tmp_path)
    result = workload.ops()[0]()
    assert workload.check(0, result) == (True, "")
    digests = list(ref["op_digests"]["1"])
    digests[0] = "0" * 64
    perturbed = TransferWorkload(1, {"op_digests": {"1": digests}}, tmp_path)
    ok, reason = perturbed.check(0, result)
    assert not ok and "recorded" in reason


# -- wrappers come off -------------------------------------------------------------

def _targets():
    import importlib

    for _, targets in LAYERS:
        for module_name, cls_name, attr in targets:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            yield owner, attr


def test_wrappers_are_removed_after_traced_run(tmp_path):
    import repro.mitigations.matrix.cells as cells

    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in _targets()}
    cell_build = cells.build_system
    probe = LayerProbe()
    probe.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in originals.items())
        assert cells.build_system is not cell_build
        workload = TransferWorkload(1, {}, tmp_path)
        workload.inputs = workload.inputs[:3]
        traced = run.run_rounds(workload, seconds=0, rounds=1, probe=probe)
        assert traced[0]["layers"]["soc.system_init"]["calls"] == 3
    finally:
        probe.uninstall()
    assert probe.recorder.patched == 0
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in originals.items())
    assert cells.build_system is cell_build
