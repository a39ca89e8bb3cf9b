"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one client: :meth:`Workload.ops`
returns one *round* of operations, run back to back, and
:meth:`Workload.check` decides afterwards, outside the timed region,
whether each operation's output is correct.  A round is the fixed unit
``wall_s`` times; every round of a run repeats the same inputs, so each
operation's output must also equal its first-round output.

* ``transfer`` — a round is :data:`TRANSFER_ROUND` covert transfers of a
  seeded random 16-byte payload, each on a fresh seeded System, rotating
  through the thread, SMT and cross-core channels.
* ``matrix`` — a round is one cold pass of the full 9x7 mitigation
  matrix into a fresh result cache, then one warm pass served from it.
* ``report`` — a round is one full-trial paper report.

``matrix`` and ``report`` are fixed paper inputs: the seed does not
apply to them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from layers import system_census

#: Transfers per round of the ``transfer`` workload (34 per channel):
#: the fewest that leave ten samples beyond each round's p90.
TRANSFER_ROUND = 102

#: Bytes per transfer payload.
PAYLOAD_BYTES = 16


def digest(obj: Any) -> str:
    """SHA-256 of ``obj`` as canonical JSON (or of a text as UTF-8)."""
    if isinstance(obj, str):
        blob = obj.encode()
    else:
        blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class Workload:
    """One workload: inputs, a warm-up, a round of ops and their check."""

    name = ""
    seed_applies = False

    def __init__(self, seed: int, reference: Dict[str, Any], scratch: Path) -> None:
        self.seed = seed
        self.reference = reference
        self.scratch = scratch
        #: Output digest of each op position in the first checked round.
        self.first_digests: Dict[int, str] = {}

    def warm_up(self) -> None:
        """One untimed op that pays imports, lazy set-up and caches."""
        raise NotImplementedError

    def ops(self) -> List[Callable[[], Any]]:
        """One round of operations, in order."""
        raise NotImplementedError

    def output_digest(self, index: int, result: Any) -> str:
        """Digest of op ``index``'s output; raises if the output is wrong."""
        raise NotImplementedError

    def sim_ms(self, results: Sequence[Any]) -> Optional[float]:
        """Simulated ms of one round.

        The fixed paper workloads build their Systems internally, out of
        reach of an untraced run; their figure is the recorded one, which
        every traced run re-measures and checks.
        """
        return self.reference.get("sim_ms_per_round")

    def expected_digest(self, index: int) -> Optional[str]:
        """Recorded digest for op ``index`` at this seed, if any."""
        return self.reference.get("digest")

    def check(self, index: int, result: Any) -> Tuple[bool, str]:
        """(ok, reason) for op ``index``'s result."""
        try:
            got = self.output_digest(index, result)
        except ValueError as exc:
            return False, f"output check failed: {exc}"
        expected = self.expected_digest(index)
        if expected is not None and got != expected:
            return False, f"digest {got[:16]} != recorded {expected[:16]}"
        first = self.first_digests.setdefault(index, got)
        if got != first:
            return False, f"digest {got[:16]} != first round {first[:16]}"
        return True, ""

    def cleanup(self, results: Sequence[Any]) -> None:
        """Release what a round left behind (untimed)."""


class TransferWorkload(Workload):
    """Back-to-back covert transfers on fresh Systems."""

    name = "transfer"
    seed_applies = True

    def __init__(self, seed: int, reference: Dict[str, Any], scratch: Path) -> None:
        super().__init__(seed, reference, scratch)
        from repro import System, cannon_lake_i3_8121u
        from repro.core import IccCoresCovert, IccSMTcovert, IccThreadCovert

        self._system = System
        self._config = cannon_lake_i3_8121u
        channels = (IccThreadCovert, IccSMTcovert, IccCoresCovert)
        rng = np.random.default_rng(seed)
        self.inputs: List[Tuple[type, bytes, int]] = []
        for i in range(TRANSFER_ROUND):
            payload = rng.bytes(PAYLOAD_BYTES)
            system_seed = int(rng.integers(0, 2**31))
            self.inputs.append((channels[i % len(channels)], payload, system_seed))

    def _op(self, channel: type, payload: bytes, system_seed: int) -> Callable[[], Any]:
        def transfer() -> Tuple[Any, Tuple[int, float, bool, int]]:
            system = self._system(self._config(), seed=system_seed)
            report = channel(system).transfer(payload)
            return report, system_census(system)
        return transfer

    def warm_up(self) -> None:
        for channel, payload, system_seed in self.inputs[:3]:
            self._op(channel, payload, system_seed)()

    def ops(self) -> List[Callable[[], Any]]:
        return [self._op(*args) for args in self.inputs]

    def output_digest(self, index: int, result: Any) -> str:
        report, census = result
        sent = self.inputs[index][1]
        if report.sent != sent or report.received != sent:
            raise ValueError(f"op {index}: received {report.received.hex()} "
                             f"for {sent.hex()}")
        # The census (events, simulated time, kernel state, VR
        # transitions) is part of the output: traced and untraced runs
        # must simulate exactly the same work.
        return digest({"fingerprint": report.fingerprint(),
                       "census": list(census)})

    def expected_digest(self, index: int) -> Optional[str]:
        recorded = self.reference.get("op_digests", {}).get(str(self.seed))
        if recorded is None:
            return None
        # A reference recorded for another round size matches nothing.
        return recorded[index] if index < len(recorded) else "missing"

    def sim_ms(self, results: Sequence[Any]) -> Optional[float]:
        return sum(result[1][1] for result in results if result is not None) / 1e6


class MatrixWorkload(Workload):
    """The full mitigation matrix, cold into a fresh cache, then warm."""

    name = "matrix"

    def __init__(self, seed: int, reference: Dict[str, Any], scratch: Path) -> None:
        super().__init__(seed, reference, scratch)
        from repro.mitigations.matrix import run_matrix
        from repro.mitigations.matrix.attackers import attacker_names
        from repro.mitigations.matrix.defenders import defender_names
        from repro.runner import ResultCache, SweepRunner

        self._run_matrix = run_matrix
        self._runner = lambda root: SweepRunner(jobs=1, cache=ResultCache(root))
        defenders = defender_names()
        #: Every attacker once and every defender at least once.
        self._diagonal = [(attacker, defenders[i % len(defenders)])
                          for i, attacker in enumerate(attacker_names())]

    def _op(self, attackers: Optional[Sequence[str]] = None,
            defenders: Optional[Sequence[str]] = None) -> Callable[[], Any]:
        def cold_then_warm() -> Tuple[Path, str, str]:
            root = Path(tempfile.mkdtemp(prefix="matrix-cache-", dir=self.scratch))
            cold = self._run_matrix(attackers, defenders, runner=self._runner(root))
            warm = self._run_matrix(attackers, defenders, runner=self._runner(root))
            return root, cold.to_json_text(), warm.to_json_text()
        return cold_then_warm

    def warm_up(self) -> None:
        # One cell per attacker over a diagonal of defenders touches every
        # channel, protocol tier and defender, plus the cache, for a
        # fifth of a full pass.
        results = [self._op([attacker], [defender])()
                   for attacker, defender in self._diagonal]
        self.cleanup(results)

    def ops(self) -> List[Callable[[], Any]]:
        return [self._op()]

    def output_digest(self, index: int, result: Any) -> str:
        _, cold, warm = result
        if warm != cold:
            raise ValueError("warm (cached) matrix differs from the cold pass")
        return digest(cold)

    def cleanup(self, results: Sequence[Any]) -> None:
        for result in results:
            if result is not None:
                shutil.rmtree(result[0], ignore_errors=True)


class ReportWorkload(Workload):
    """The whole paper report at full trial counts."""

    name = "report"

    def __init__(self, seed: int, reference: Dict[str, Any], scratch: Path) -> None:
        super().__init__(seed, reference, scratch)
        from repro.analysis.report import generate_report

        self._generate = generate_report

    def warm_up(self) -> None:
        self._generate(quick=True)

    def ops(self) -> List[Callable[[], Any]]:
        return [self._generate]

    def output_digest(self, index: int, result: Any) -> str:
        if not result.startswith("# IChannels reproduction report"):
            raise ValueError("report text lacks its title")
        return digest(result)


WORKLOADS = {cls.name: cls for cls in (TransferWorkload, MatrixWorkload, ReportWorkload)}
