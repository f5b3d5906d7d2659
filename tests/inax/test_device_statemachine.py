"""Stateful property test of the INAX device protocol.

Drives the functional device through random begin_wave / step /
end_wave and replay_wave sequences and checks the §IV-B2 handshake
invariants hold in every reachable state: illegal transitions always
raise, legal ones always succeed, and the cycle report only ever grows.

Live sets are random, so slots left out of one step come back in a
later one.  Every output must equal the slot's own
:meth:`ProcessingUnit.infer` bit for bit, and every report field a twin
device's that a disarmed fault injector keeps stepping per PU — also
after a replayed wave, which the twin steps through the same live sets.
"""

import dataclasses

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.inax.accelerator import INAX, INAXConfig
from repro.inax.pu import ProcessingUnit
from repro.inax.synthetic import synthetic_population
from repro.resilience.faults import FaultPlan
from repro.resilience.injectors import DeviceFaultInjector
from repro.telemetry import TelemetrySession

_NUM_PUS = 12
_NUM_PES = 2
_POP = synthetic_population(num_individuals=_NUM_PUS, num_hidden=6, seed=99)


def _reference_pu(config):
    pu = ProcessingUnit(_NUM_PES)
    pu.load(config)
    return pu


class DeviceProtocol(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        config = INAXConfig(num_pus=_NUM_PUS, num_pes_per_pu=_NUM_PES)
        self.device = INAX(config)
        self.per_pu = INAX(
            config, fault_injector=DeviceFaultInjector(FaultPlan(seed=0))
        )
        self.reference: list[ProcessingUnit] = []
        self.wave_size = 0  # 0 = no wave in progress
        self.total_cycles_seen = 0.0

    def _step(self, live, seed):
        obs = np.random.default_rng(seed).standard_normal((len(live), 8))
        outputs = self.device.step(live, obs)
        twin = self.per_pu.step(live, obs)
        assert outputs.shape == (len(live), 4)
        for row, slot in enumerate(live):
            expected, _ = self.reference[slot].infer(obs[row])
            assert outputs[row].tobytes() == expected.tobytes()
            assert twin[row].tobytes() == expected.tobytes()
            assert np.isfinite(outputs[row]).all()

    # ------------------------------------------------------------- rules
    @precondition(lambda self: self.wave_size == 0)
    @rule(size=st.integers(1, _NUM_PUS), prefetched=st.booleans())
    def begin_wave(self, size, prefetched):
        self.device.begin_wave(_POP[:size], prefetched=prefetched)
        self.per_pu.begin_wave(_POP[:size], prefetched=prefetched)
        self.reference = [_reference_pu(config) for config in _POP[:size]]
        self.wave_size = size

    @precondition(lambda self: self.wave_size == 0)
    @rule(
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=_NUM_PUS),
        prefetched=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def replay_wave(self, lengths, prefetched, seed):
        """The device replays a whole wave; the twin steps the live sets
        the replay charges (every slot whose episode outlives ``t``)."""
        configs = _POP[: len(lengths)]
        self.device.replay_wave(configs, lengths, prefetched=prefetched)
        self.per_pu.begin_wave(configs, prefetched=prefetched)
        rng = np.random.default_rng(seed)
        for t in range(max(lengths)):
            live = [slot for slot, n in enumerate(lengths) if n > t]
            self.per_pu.step(live, rng.standard_normal((len(live), 8)))
        self.per_pu.end_wave()

    @precondition(lambda self: self.wave_size > 0)
    @rule(data=st.data())
    def step_some_slots(self, data):
        # one coin per slot: wide and narrow live sets alike, and
        # slots left out of one step come back in a later one
        mask = data.draw(
            st.lists(
                st.booleans(),
                min_size=self.wave_size,
                max_size=self.wave_size,
            ),
            label="live mask",
        )
        live = [slot for slot, alive in enumerate(mask) if alive] or [0]
        seed = data.draw(st.integers(0, 2**32 - 1), label="obs seed")
        self._step(live, seed)

    @precondition(lambda self: self.wave_size > 0)
    @rule(seed=st.integers(0, 2**32 - 1))
    def step_every_slot(self, seed):
        self._step(list(range(self.wave_size)), seed)

    @precondition(lambda self: self.wave_size > 0)
    @rule()
    def end_wave(self):
        self.device.end_wave()
        self.per_pu.end_wave()
        self.wave_size = 0

    # ------------------------------------------------- illegal transitions
    @precondition(lambda self: self.wave_size > 0)
    @rule()
    def begin_during_wave_rejected(self):
        try:
            self.device.begin_wave(_POP[:1])
        except RuntimeError:
            pass
        else:  # pragma: no cover - the bug this test exists to catch
            raise AssertionError("begin_wave during a wave must raise")

    @precondition(lambda self: self.wave_size > 0)
    @rule()
    def replay_during_wave_rejected(self):
        try:
            self.device.replay_wave(_POP[:1], [1])
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("replay_wave during a wave must raise")

    @precondition(lambda self: self.wave_size == 0)
    @rule()
    def step_without_wave_rejected(self):
        try:
            self.device.step([0], np.zeros((1, 8)))
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("step without a wave must raise")

    @precondition(lambda self: self.wave_size == 0)
    @rule()
    def end_without_wave_rejected(self):
        try:
            self.device.end_wave()
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("end_wave without a wave must raise")

    # --------------------------------------------------------- invariants
    @invariant()
    def cycles_monotone(self):
        total = self.device.report.total_cycles
        assert total >= self.total_cycles_seen
        self.total_cycles_seen = total

    @invariant()
    def utilization_bounded(self):
        assert 0.0 <= self.device.report.u_pe <= 1.0
        assert 0.0 <= self.device.report.u_pu <= 1.0

    @invariant()
    def report_matches_per_pu_path(self):
        assert dataclasses.asdict(self.device.report) == dataclasses.asdict(
            self.per_pu.report
        )


DeviceProtocol.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestDeviceProtocol = DeviceProtocol.TestCase


def test_revived_slots_match_per_pu_path():
    """A fixed walk through a full wave, a shrink, a single slot, then
    slots left out coming back: outputs and reports match the twin's
    and so do the traced per-PU timelines."""
    machine = DeviceProtocol()
    machine.per_pu.track_prefix = "ref."
    walk = [
        list(range(_NUM_PUS)),
        list(range(4)),
        [1],
        list(range(1, _NUM_PUS, 2)),
        list(range(_NUM_PUS)),
    ]
    with TelemetrySession() as session:
        machine.begin_wave(_NUM_PUS, prefetched=False)
        for seed, live in enumerate(walk):
            machine._step(live, seed)
            machine.report_matches_per_pu_path()
        machine.end_wave()

    def device_spans(reference):
        return [
            (span.name, span.track.removeprefix("ref."), span.start,
             span.duration, span.attrs)
            for span in session.tracer.spans
            if span.track != "host"
            and span.track.startswith("ref.") == reference
        ]

    spans = device_spans(reference=False)
    assert any(name == "pu.compute" for name, *_ in spans)
    assert spans == device_spans(reference=True)
