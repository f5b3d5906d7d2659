"""The replayed device against the stepped device, on generated waves.

:meth:`INAX.replay_wave` charges a wave from its members' cost
descriptors and episode lengths alone, through the closed-form wave
pricer.  A twin device that a disarmed fault injector keeps on the
per-PU :meth:`INAX.step` path runs the same waves through the live sets
the replay charges (step ``t`` runs every slot whose episode is longer
than ``t``).  Every :class:`CycleReport` field and every wave span must
come out equal, with ``==`` and no tolerance, whether the replay gets
each member's weighted :class:`HWNetConfig` or the weight-free
:class:`ShapeCost` a compiled backend replays with, and so must
:func:`schedule_waves`, the analytic pricer.

The ``@example`` cases are the shrunk counterexamples the property
found (``--hypothesis-seed=0``) against deliberately broken copies of
the replay, kept as permanent fixtures: a live set that keeps a slot
one horizon too long, a replay that drops ``prefetched``, a step that
ignores ``overlap_io``, PE activity charged as step cycles, and PU
activity charged as the slowest slot's.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compile.structure import ShapeCost, _RowRecipe
from repro.inax.accelerator import INAX, INAXConfig, schedule_waves
from repro.inax.synthetic import synthetic_population
from repro.resilience.faults import FaultPlan
from repro.resilience.injectors import DeviceFaultInjector
from repro.telemetry import TelemetrySession

#: irregular configs of one, two and three hidden layers
POOL = [
    config
    for layers, seed in ((1, 3), (2, 4), (3, 5))
    for config in synthetic_population(
        num_individuals=4,
        num_inputs=4,
        num_outputs=2,
        num_hidden=7,
        sparsity=0.5,
        num_hidden_layers=layers,
        seed=seed,
    )
]


def _shape(hw):
    """``hw``'s weight-free cost descriptor, as its compiled shape
    would carry it."""
    return ShapeCost(
        hw.input_keys,
        hw.output_keys,
        tuple(
            tuple(
                _RowRecipe(
                    plan.key,
                    plan.activation,
                    plan.aggregation,
                    tuple(source for source, _ in plan.ingress),
                )
                for plan in layer
            )
            for layer in hw.layers
        ),
    )


@st.composite
def replay_cases(draw):
    """One generated run of waves, as plain values (see :func:`_build`)."""
    num_pus = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, num_pus), min_size=1, max_size=4))
    total = sum(sizes)
    return {
        "num_pus": num_pus,
        "num_pes": draw(st.integers(1, 4)),
        "overlap_io": draw(st.booleans()),
        "sizes": sizes,
        "picks": draw(
            st.lists(
                st.integers(0, len(POOL) - 1),
                min_size=total,
                max_size=total,
            )
        ),
        "lengths": draw(
            st.lists(st.integers(1, 9), min_size=total, max_size=total)
        ),
        "prefetch": draw(st.booleans()),
    }


def _build(case):
    """``(config, configs, waves, lengths, prefetch)`` for a case: the
    waves split one flat list of individuals by ``sizes``, and
    individual ``i`` runs ``POOL[picks[i]]`` for ``lengths[i]`` steps."""
    config = INAXConfig(
        num_pus=case["num_pus"],
        num_pes_per_pu=case["num_pes"],
        overlap_io=case["overlap_io"],
    )
    starts = np.cumsum([0] + case["sizes"]).tolist()
    waves = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
    configs = [POOL[i] for i in case["picks"]]
    return config, configs, waves, case["lengths"], case["prefetch"]


def _run(config, configs, waves, lengths, prefetch):
    """Replay the waves on one device, replay them from shape costs on
    another, and step them on a third twin, traced.

    Returns the three devices and their spans, track prefixes stripped.
    """
    replayed = INAX(config)
    replayed.track_prefix = "replay."
    shaped = INAX(config)
    shaped.track_prefix = "shape."
    stepped = INAX(
        config, fault_injector=DeviceFaultInjector(FaultPlan(seed=0))
    )
    stepped.track_prefix = "step."
    rng = np.random.default_rng(0)
    with TelemetrySession() as session:
        for ordinal, indices in enumerate(waves):
            wave = [configs[i] for i in indices]
            wave_lengths = [lengths[i] for i in indices]
            prefetched = prefetch and ordinal > 0
            replayed.replay_wave(wave, wave_lengths, prefetched=prefetched)
            shaped.replay_wave(
                [_shape(c) for c in wave], wave_lengths, prefetched=prefetched
            )
            stepped.begin_wave(wave, prefetched=prefetched)
            for t in range(max(wave_lengths)):
                live = [s for s, n in enumerate(wave_lengths) if n > t]
                obs = rng.standard_normal((len(live), wave[0].num_inputs))
                stepped.step(live, obs)
            stepped.end_wave()

    def spans(prefix):
        return [
            (span.name, span.track.removeprefix(prefix), span.start,
             span.duration, span.attrs)
            for span in session.tracer.spans
            if span.track.startswith(prefix)
        ]

    return (
        replayed,
        shaped,
        stepped,
        spans("replay."),
        spans("shape."),
        spans("step."),
    )


@settings(max_examples=60, deadline=None)
@given(case=replay_cases())
# shrunk against a slot kept live one horizon too long
@example(
    case={
        "num_pus": 2,
        "num_pes": 1,
        "overlap_io": False,
        "sizes": [1, 2],
        "picks": [0, 0, 0],
        "lengths": [1, 1, 2],
        "prefetch": False,
    }
)
# shrunk against the replay dropping ``prefetched``
@example(
    case={
        "num_pus": 1,
        "num_pes": 1,
        "overlap_io": False,
        "sizes": [1, 1],
        "picks": [0, 0],
        "lengths": [1, 1],
        "prefetch": True,
    }
)
# shrunk against a step ignoring ``overlap_io``
@example(
    case={
        "num_pus": 1,
        "num_pes": 1,
        "overlap_io": True,
        "sizes": [1],
        "picks": [0],
        "lengths": [1],
        "prefetch": False,
    }
)
# shrunk against PE activity charged as step cycles
@example(
    case={
        "num_pus": 1,
        "num_pes": 1,
        "overlap_io": False,
        "sizes": [1],
        "picks": [0],
        "lengths": [1],
        "prefetch": False,
    }
)
# shrunk against PU activity charged as the slowest slot's
@example(
    case={
        "num_pus": 2,
        "num_pes": 1,
        "overlap_io": False,
        "sizes": [2],
        "picks": [0, 1],
        "lengths": [1, 1],
        "prefetch": False,
    }
)
def test_replay_equals_stepping_and_the_pricer(case):
    config, configs, waves, lengths, prefetch = _build(case)
    replayed, shaped, stepped, replay_spans, shape_spans, step_spans = _run(
        config, configs, waves, lengths, prefetch
    )
    report = dataclasses.asdict(replayed.report)
    assert report == dataclasses.asdict(stepped.report)
    assert replay_spans == step_spans
    assert dataclasses.asdict(shaped.report) == report
    assert shape_spans == step_spans
    assert any(name == "pu.compute" for name, *_ in replay_spans)
    assert report == dataclasses.asdict(
        schedule_waves(config, configs, lengths, waves, prefetch=prefetch)
    )
    # the replay computed no node; the twin computed every one
    assert not any(pe.nodes_computed for pu in replayed.pus for pe in pu.pes)
    assert any(pe.nodes_computed for pu in stepped.pus for pe in pu.pes)
    # the handshake still holds after replays: no wave may open twice
    replayed.begin_wave(configs[:1])
    with pytest.raises(RuntimeError):
        replayed.replay_wave(configs[:1], [1])
    replayed.abort_wave()


class TestReplayMisuse:
    def _device(self, **overrides):
        return INAX(INAXConfig(num_pus=2, num_pes_per_pu=1, **overrides))

    def test_replay_while_a_wave_is_open(self):
        device = self._device()
        device.begin_wave(POOL[:1])
        with pytest.raises(RuntimeError, match="already in progress"):
            device.replay_wave(POOL[:1], [3])

    def test_no_wave_is_left_open(self):
        device = self._device()
        device.replay_wave(POOL[:2], [2, 1])
        with pytest.raises(RuntimeError):
            device.step([0], np.zeros((1, 4)))
        with pytest.raises(RuntimeError):
            device.end_wave()

    @pytest.mark.parametrize(
        "lengths", [[1], [1, 2, 3], [0, 1], [-1, 2]],
        ids=["too-few", "too-many", "zero", "negative"],
    )
    def test_bad_lengths(self, lengths):
        device = self._device()
        with pytest.raises(ValueError):
            device.replay_wave(POOL[:2], lengths)
        assert device.report.waves == 0

    def test_wider_than_the_device(self):
        with pytest.raises(ValueError, match="exceeds"):
            self._device().replay_wave(POOL[:3], [1, 1, 1])

    @pytest.mark.parametrize(
        "device",
        [
            INAX(
                INAXConfig(num_pus=2, num_pes_per_pu=1),
                fault_injector=DeviceFaultInjector(FaultPlan(seed=0)),
            ),
            INAX(
                INAXConfig(
                    num_pus=2, num_pes_per_pu=1, skip_zero_activations=True
                )
            ),
        ],
        ids=["injector", "skip-zero"],
    )
    def test_data_dependent_devices_must_step(self, device):
        assert not device.replayable
        with pytest.raises(RuntimeError, match="replay_wave"):
            device.replay_wave(POOL[:1], [1])
        assert device.report.waves == 0
