"""Bit-level pins for the channels the verify goldens do not cover.

Each case runs one transfer on fresh seeded Systems and hashes what it
observed: every calibration sample and every decoded reading (recorded
at the :class:`~repro.core.calibration.Calibrator` seam), the channel's
report, and each System's final ``now`` and ``engine.events_run``.  A
change to any slot's timing, any spawn order (event sequence numbers)
or any reading moves the digest.
"""

import dataclasses
import enum
import hashlib
import json

import pytest

from repro.analysis.experiments import multi_pair_interference
from repro.core.baselines import DFSCovert, NetSpectreGadget, PowerT, TurboCC
from repro.core.broadcast import IccBroadcast
from repro.core.burst_channel import IccSMTBurst
from repro.core.calibration import Calibrator
from repro.core.five_level import FiveLevelThreadChannel
from repro.core.levels import ChannelLocation
from repro.core.side_channel import InstructionClassSpy
from repro.isa.instructions import IClass
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.system import System

SEED = 11
BITS = [1, 0, 1, 1, 0, 0, 1, 0]
PAYLOAD = b"\x5a\xc3"


def _system(**kwargs):
    return System(cannon_lake_i3_8121u(), seed=SEED, **kwargs)


CASES = {
    "five_level": lambda: FiveLevelThreadChannel(_system()).transfer(PAYLOAD),
    "broadcast": lambda: IccBroadcast(_system()).transfer(PAYLOAD),
    "burst": lambda: IccSMTBurst(_system()).transfer(PAYLOAD),
    "spy": lambda: InstructionClassSpy(
        _system(), ChannelLocation.ACROSS_SMT).spy(
            [IClass.HEAVY_256, IClass.SCALAR_64, IClass.LIGHT_128,
             IClass.HEAVY_512, IClass.SCALAR_64]),
    "netspectre": lambda: NetSpectreGadget(_system()).transfer_bits(BITS),
    "turbocc": lambda: TurboCC(
        _system(governor_freq_ghz=3.1)).transfer_bits(BITS),
    "dfscovert": lambda: DFSCovert(
        _system(governor_freq_ghz=3.2)).transfer_bits(BITS),
    "powert": lambda: PowerT(
        _system(governor_freq_ghz=2.2)).transfer_bits(BITS),
    "multi_pair_interference": lambda: multi_pair_interference(
        payload=b"\x5a", seed=SEED),
}

#: sha256 of each case's observation document, computed before the
#: channels shared one slot loop; the refactor must not move any.
EXPECTED = {
    "broadcast": "df12c896c90788b125d068c1539790d6f2bb46b631b3e4aa058d72c2d863ba8a",
    "burst": "2dd5b41cb3dd798ec68d258ceda3bdbd3b27eafa680020fb9f6e938df16d70d1",
    "dfscovert": "32f8e0bc316b0ccb3dcf0fe4e9a98e09c046ed6f5fda1a928c02ec22bfb57324",
    "five_level": "73f357192ea4da4724af15717dbe5a649264c144faac969cf43c34a5854a026f",
    "multi_pair_interference":
        "fce88498d2484b655629450051dfaa8ab9e701c308e7c33c63d87e8c81b8d15d",
    "netspectre": "0b9dd29d014df7d84a592e776b6417d9a0d7f056e4b19629929f1fdd96fb1a5e",
    "powert": "63444cf740444893079d2258153fa848da51e437ce873e1b718c18f11cafb643",
    "spy": "9ea4521da292072c5a82ea43e9ea2e0eac6db586b034ba31154ee275a1a80b7a",
    "turbocc": "ce3e8d03a6f6eb191ab3796fd36290d271cc4901034b9cffadff214eb0d35778",
}


def _plain(value):
    """JSON-ready form of reports (enums, bytes, enum-keyed dicts)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(_plain(k)): _plain(v) for k, v in sorted(
            value.items(), key=lambda item: str(_plain(item[0])))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _observe(monkeypatch, case):
    systems, training, decoded = [], [], []
    init_system, init_calibrator = System.__init__, Calibrator.__init__
    decode = Calibrator.decode

    def recording_system(self, *args, **kwargs):
        init_system(self, *args, **kwargs)
        systems.append(self)

    def recording_calibrator(self, samples, *args, **kwargs):
        samples = list(samples)
        training.append([[int(s), float(v)] for s, v in samples])
        init_calibrator(self, samples, *args, **kwargs)

    def recording_decode(self, measurement):
        symbol = decode(self, measurement)
        decoded.append([float(measurement), int(symbol)])
        return symbol

    monkeypatch.setattr(System, "__init__", recording_system)
    monkeypatch.setattr(Calibrator, "__init__", recording_calibrator)
    monkeypatch.setattr(Calibrator, "decode", recording_decode)
    report = CASES[case]()
    return {
        "report": _plain(report),
        "training": training,
        "decoded": decoded,
        "systems": [[float(s.now), s.engine.events_run] for s in systems],
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_channel_observations_are_pinned(monkeypatch, case):
    document = _observe(monkeypatch, case)
    assert document["systems"] and document["decoded"]
    digest = hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()
    assert digest == EXPECTED[case]
