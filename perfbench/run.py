"""Same-host benchmark of covert transfers, the mitigation matrix and the report.

Run from the repository root::

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps every layer's public functions (see ``layers.py``),
runs traced rounds for ``--seconds``, removes the wrappers, then runs the
same number of untraced rounds; it reports per-layer calls and self
times plus the tracing overhead.  Both modes check every op's output,
print a table of every metric by name, write the same figures to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json`` and print one
JSON object as the last line of standard output.

Set-up time (imports, input generation and one untimed warm-up op) is
sampled :data:`SETUP_SAMPLES` times -- this process plus fresh child
processes started with ``--setup-probe`` -- and reported as the median.

Every host time reported as a metric is scaled to the reference host
speed of ``hostspeed.py``, measured just before and just after the
interval it scales; the raw seconds and the scale factors are kept in
the JSON report.
"""

import time

import hostspeed

# Set-up time is measured from here: it covers the imports below.
_SPEED_BEFORE = hostspeed.measure()
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, NoReturn, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up samples per untraced run: this process plus child probes.
SETUP_SAMPLES = 3


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("transfer", "matrix", "report"))
    parser.add_argument("--seed", type=int, default=1,
                        help="drives transfer payloads and System seeds")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget of the timed (or traced) rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time, exit")
    return parser.parse_args(argv)


def _set_up(name: str, seed: int, scratch: Path):
    """Import the simulator, build the inputs and run the warm-up op."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    workload = workloads.WORKLOADS[name](seed, reference["workloads"][name], scratch)
    workload.warm_up()
    return workload, reference


def _setup_probe(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process (one ``--setup-probe`` child)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        _fail(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_rounds(workload: Any, seconds: float, rounds: Optional[int] = None,
               probe: Any = None) -> List[Dict[str, Any]]:
    """Timed rounds until ``seconds`` have passed (or ``rounds`` ran).

    A round that starts inside the budget runs to its end, so the last
    one may overrun it; at least one round always runs.
    """
    log: List[Dict[str, Any]] = []
    clock = time.perf_counter
    started = clock()
    while True:
        ops = workload.ops()
        if probe is not None:
            probe.recorder.take()   # drop what ran between rounds
            probe.end_round()
        results: List[Any] = []
        op_s: List[float] = []
        speed_before = hostspeed.measure()
        if probe is not None:
            probe.recorder.begin("round")
        t_round = clock()
        cpu_round = time.process_time()
        for op in ops:
            t_op = clock()
            try:
                results.append(op())
            except Exception:  # a failed op is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                results.append(None)
            op_s.append(clock() - t_op)
        round_s = clock() - t_round
        cpu_s = time.process_time() - cpu_round
        entry: Dict[str, Any] = {"round_s": round_s, "op_s": op_s, "cpu_s": cpu_s}
        if probe is not None:
            probe.recorder.end()
            entry["layers"] = probe.recorder.take()
            entry["census"] = probe.end_round()
        entry["speed"] = hostspeed.REFERENCE_S / statistics.mean(
            (speed_before, hostspeed.measure()))
        failures = []
        for index, result in enumerate(results):
            ok, reason = (False, "raised") if result is None else workload.check(index, result)
            if not ok:
                failures.append(f"op {index}: {reason}")
        entry["sim_ms"] = workload.sim_ms(results)
        entry["failures"] = failures
        workload.cleanup(results)
        del results
        log.append(entry)
        if len(log) == rounds or (rounds is None and clock() - started >= seconds):
            return log


def end_to_end(log: List[Dict[str, Any]], setup_samples: List[float]) -> Dict[str, Any]:
    """The untraced metrics, each with its unit, sample count and statistic.

    Op percentiles are taken per round and then the median over rounds,
    so a burst of host contention that covers a minority of the rounds
    moves none of them.
    """
    import stats

    rounds = [entry["round_s"] * entry["speed"] for entry in log]
    rates = [entry["sim_ms"] / (entry["round_s"] * entry["speed"]) for entry in log
             if entry["sim_ms"] is not None]
    per_round = len(log[0]["op_s"])

    def op_ms(q: float) -> float:
        return stats.median([stats.percentile(entry["op_s"], q) * entry["speed"] * 1e3
                             for entry in log])

    return {
        "setup_s": {"value": stats.median(setup_samples), "unit": "s",
                    "n": len(setup_samples), "stat": "median of set-ups"},
        "wall_s": {"value": stats.median(rounds), "unit": "s",
                   "n": len(rounds), "stat": "median round"},
        "op_p50_ms": {"value": op_ms(0.5), "unit": "ms", "n": len(rounds) * per_round,
                      "stat": f"median over rounds of p50 of {per_round} ops"},
        "op_p90_ms": {"value": op_ms(0.9), "unit": "ms", "n": len(rounds) * per_round,
                      "stat": f"median over rounds of p90 of {per_round} ops"
                              + ("" if stats.resolved(per_round, 0.9) else
                                 " (unresolved: under 10 beyond)")},
        "sim_ms_per_s": {"value": stats.median(rates) if rates else 0.0,
                         "unit": "ms/s", "n": len(rates),
                         "stat": "median round simulated ms per host s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "n": 1, "stat": "max resident set"},
    }


def per_layer(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer figures: medians over traced rounds, plus tracing overhead."""
    import stats
    from layers import LAYER_NAMES
    from tracer import UNATTRIBUTED

    def med(fn) -> float:
        return stats.median([fn(entry) for entry in traced])

    def layer(entry: Dict[str, Any], name: str, key: str) -> float:
        value = entry["layers"].get(name, {}).get(key, 0.0)
        return value if key == "calls" else value * entry["speed"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    n = len(traced)
    out: Dict[str, Any] = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = {"value": med(lambda e: layer(e, name, "calls")),
                                "unit": "count", "n": n, "stat": "median per round"}
        out[f"{name}.self_s"] = {"value": med(lambda e: layer(e, name, "self_s")),
                                 "unit": "s", "n": n, "stat": "median per round"}
        if name.startswith("analysis."):
            # A figure's own code is thin; its inclusive time says which moved.
            out[f"{name}.total_s"] = {"value": med(lambda e: layer(e, name, "total_s")),
                                      "unit": "s", "n": n, "stat": "median per round"}
    extra = {
        "soc.systems": ("count", lambda e: e["census"]["soc.systems"]),
        "soc.engine.events": ("count", lambda e: e["census"]["soc.engine.events"]),
        "soc.sim_ms": ("ms_sim", lambda e: e["census"]["soc.sim_ms"]),
        "soc.host_us_per_event": ("us", lambda e: 1e6 * ratio(
            layer(e, "soc.run", "total_s"), e["census"]["soc.engine.events"])),
        "soc.kernel_active_frac": ("ratio", lambda e: ratio(
            e["census"]["soc.kernel_active"], e["census"]["soc.systems"])),
        "core.session.useful_ratio": ("ratio", lambda e: ratio(
            e["census"]["core.session.frames_delivered"],
            e["census"]["core.session.attempts"])),
        "runner.cache.hit_ratio": ("ratio", lambda e: ratio(
            e["census"]["runner.cache.hits"], layer(e, "runner.cache.get", "calls"))),
        "unattributed_s": ("s", lambda e: layer(e, UNATTRIBUTED, "self_s")),
        "trace.wall_s": ("s", lambda e: e["round_s"] * e["speed"]),
    }
    for name, (unit, fn) in extra.items():
        out[name] = {"value": med(fn), "unit": unit, "n": n, "stat": "median per round"}
    plain = stats.median([entry["round_s"] * entry["speed"] for entry in untraced])
    out["trace.untraced_wall_s"] = {"value": plain, "unit": "s", "n": len(untraced),
                                    "stat": "median round, wrappers removed"}
    out["trace.overhead_s"] = {"value": out["trace.wall_s"]["value"] - plain,
                               "unit": "s", "n": n, "stat": "traced - untraced wall_s"}
    return out


def traced_checks(traced: List[Dict[str, Any]], workload_ref: Dict[str, Any],
                  metrics: Dict[str, Any]) -> List[str]:
    """Problems with the traced rounds' own bookkeeping (empty when sound)."""
    problems = []
    first = traced[0]
    keys = ("soc.engine.events", "soc.sim_ms", "soc.vr_transitions")
    for i, entry in enumerate(traced[1:], start=1):
        for key in keys:
            if entry["census"][key] != first["census"][key]:
                problems.append(f"round {i}: {key} {entry['census'][key]} "
                                f"!= round 0 {first['census'][key]}")
        for name in ("pdn.command", "pmu.request"):
            got = entry["layers"].get(name, {}).get("calls", 0)
            want = first["layers"].get(name, {}).get("calls", 0)
            if got != want:
                problems.append(f"round {i}: {name}.calls {got} != round 0 {want}")
    for i, entry in enumerate(traced):
        commands = entry["layers"].get("pdn.command", {}).get("calls", 0)
        if commands != entry["census"]["soc.vr_transitions"]:
            problems.append(f"round {i}: pdn.command.calls {commands} != "
                            f"VR transitions {entry['census']['soc.vr_transitions']}")
    recorded = workload_ref.get("sim_ms_per_round")
    if recorded is not None:
        measured = metrics["soc.sim_ms"]["value"]
        if abs(measured - recorded) > 1e-9 * max(1.0, recorded):
            problems.append(f"soc.sim_ms {measured!r} != recorded {recorded!r}")
    return problems


def bypass_checks(predictions: Dict[str, List[str]], metrics: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The recorded zero / nonzero call predictions, each with its outcome."""
    rows = []
    for expect in ("zero", "nonzero"):
        for layer in predictions.get(expect, []):
            calls = metrics[f"{layer}.calls"]["value"]
            held = (calls == 0) if expect == "zero" else (calls > 0)
            rows.append({"layer": layer, "expect": expect, "calls": calls, "held": held})
    return rows


def _print_table(title: str, metrics: Dict[str, Any]) -> None:
    print(f"\n{title}")
    print(f"{'Metric':<44} {'Value':>14} {'Unit':<6} {'n':>6}  Statistic")
    print("-" * 96)
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']:<6} {m['n']:>6}  {m['stat']}")


def _print_layers(metrics: Dict[str, Any]) -> None:
    from layers import LAYER_NAMES

    wall = metrics["trace.wall_s"]["value"]
    rows = [(name, metrics[f"{name}.calls"]["value"], metrics[f"{name}.self_s"]["value"])
            for name in LAYER_NAMES]
    rows.append(("unattributed_s", 0, metrics["unattributed_s"]["value"]))
    rows.sort(key=lambda row: -row[2])
    print(f"\n{'Layer (per traced round)':<34} {'calls':>10} {'self_s':>12} {'share':>7}")
    print("-" * 66)
    for name, calls, self_s in rows:
        if calls or self_s:
            share = 100.0 * self_s / wall if wall else 0.0
            print(f"{name:<34} {calls:>10.0f} {self_s:>12.6f} {share:>6.1f}%")
    print(f"{'tracing overhead (traced - untraced wall_s)':<58} "
          f"{metrics['trace.overhead_s']['value']:>8.4f} s")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; see the module docstring."""
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no simulator sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args: argparse.Namespace, scratch: Path) -> int:
    workload, reference = _set_up(args.workload, args.seed, scratch)
    setup_s = time.perf_counter() - _STARTED
    setup_s *= hostspeed.REFERENCE_S / statistics.mean((_SPEED_BEFORE, hostspeed.measure()))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workload_ref = reference["workloads"][args.workload]

    if args.trace:
        from layers import LayerProbe

        probe = LayerProbe()
        probe.install()
        try:
            traced = run_rounds(workload, args.seconds, probe=probe)
        finally:
            probe.uninstall()
        untraced = run_rounds(workload, args.seconds, rounds=len(traced))
        log = traced + untraced
        metrics = per_layer(traced, untraced)
        problems = traced_checks(traced, workload_ref, metrics)
        bypass = bypass_checks(reference["predictions"]["bypass"][args.workload], metrics)
    else:
        setup_samples = [setup_s] + [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        log = run_rounds(workload, args.seconds)
        metrics = end_to_end(log, setup_samples)
        problems, bypass = [], []

    attempted = sum(len(entry["op_s"]) for entry in log)
    failures = [f for entry in log for f in entry["failures"]]
    failed = len(failures)
    correct = failed == 0 and not problems
    seed_note = (str(args.seed) if workload.seed_applies
                 else f"{args.seed} (not applicable: fixed paper inputs)")

    speeds = [entry["speed"] for entry in log]
    print(f"perfbench  workload={args.workload}  seed={seed_note}  "
          f"trace={args.trace}  rounds={len(log)}  ops={attempted}")
    print(f"host times are scaled to the reference speed (hostspeed.py); "
          f"round scale factors {min(speeds):.3f}..{max(speeds):.3f}")
    _print_table("End-to-end metrics" if not args.trace else "Per-layer metrics", metrics)
    print(f"\nfailed_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    for line in failures[:10] + problems:
        print(f"  CHECK FAILED: {line}")
    if args.trace:
        _print_layers(metrics)
        print("\nBypass predictions:")
        for row in bypass:
            print(f"  {row['layer']:<28} expect {row['expect']:<8} calls={row['calls']:<10.0f} "
                  f"{'held' if row['held'] else 'NOT HELD'}")

    document = {
        "workload": args.workload, "seed": args.seed,
        "seed_applies": workload.seed_applies, "trace": args.trace,
        "rounds": len(log), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures,
        "problems": problems, "bypass_predictions": bypass,
        "digests": [workload.first_digests[i] for i in sorted(workload.first_digests)],
        "sim_ms_per_round": [entry["sim_ms"] for entry in log],
        "round_s": [entry["round_s"] for entry in log],
        "round_cpu_s": [entry["cpu_s"] for entry in log],
        "round_speed": [entry["speed"] for entry in log],
        "metrics": metrics,
    }
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(document, indent=1, sort_keys=True))
    print(f"\nwrote {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
