"""Golden traces: synthesis and translation, bit for bit.

``golden_trace.json`` holds SHA-256 digests of

* every virtual :class:`~repro.trace.record.TraceBatch` column that each
  ``default_suite`` profile emits, at two seed offsets, and
* the translated :class:`~repro.sched.process.PreparedBatch` columns of
  the first batches a ``scenarios/base.toml`` run (level 8) prepares.

Trace synthesis and the batch page lookup are pure performance code:
any change to them must leave every digest as recorded.  The digests
come from the simulator itself, so a deliberate change to the trace
model re-records them::

    PYTHONPATH=src python tests/test_golden_trace.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.simulator import Simulation
from repro.experiments.common import workload
from repro.scenario import resolve_scenario
from repro.sched.process import PreparedBatch
from repro.trace.benchmarks import default_suite
from repro.trace.synthetic import SyntheticBenchmark

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_trace.json")
#: Five batches per profile: four full ones and a short last one, across
#: several code phases of every profile.
INSTRUCTIONS = 300_000
SEED_OFFSETS = (0, 10007)
#: Translated batches of the base run to pin.
PREPARED_BATCHES = 16
COLUMNS = ("pc", "kind", "addr", "partial", "syscall")


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(f"{array.dtype.str}:{len(array)};".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def synthesized() -> dict:
    """Per profile and seed offset, one digest per virtual column."""
    digests = {}
    for offset in SEED_OFFSETS:
        for profile in default_suite(INSTRUCTIONS):
            source = SyntheticBenchmark(replace(profile,
                                                seed=profile.seed + offset))
            batches = []
            while (batch := source.next_batch()) is not None:
                batches.append(batch)
            digests[f"{profile.name}@{offset}"] = {
                name: _digest([getattr(b, name) for b in batches])
                for name in COLUMNS}
    return digests


class _Enough(Exception):
    """Stops the base run once enough batches were prepared."""


def base_run_batches(engine: str = "native"):
    """The simulation and ``(pid, prepared batch)`` for the first
    :data:`PREPARED_BATCHES` batches a base.toml run prepares."""
    resolved = resolve_scenario(ROOT / "scenarios" / "base.toml")
    scale = resolved.scale
    sim = Simulation(config=resolved.machine, profiles=workload(scale),
                     time_slice=scale.time_slice, level=scale.level,
                     engine=engine)
    seen = []
    original = PreparedBatch.from_batch

    def recording(batch, pid, page_table, trace_errors="raise"):
        prepared = original(batch, pid, page_table, trace_errors)
        seen.append((pid, prepared))
        if len(seen) == PREPARED_BATCHES:
            raise _Enough
        return prepared

    PreparedBatch.from_batch = staticmethod(recording)
    try:
        sim.run()
    except _Enough:
        pass
    finally:
        PreparedBatch.from_batch = staticmethod(original)
    assert len(seen) == PREPARED_BATCHES
    return sim, seen


def prepared_digest(pid: int, prepared: PreparedBatch) -> str:
    return _digest(prepared.arrays) + f"@{pid}"


def recorded() -> dict:
    return {
        "instructions_per_benchmark": INSTRUCTIONS,
        "seed_offsets": list(SEED_OFFSETS),
        "synthesized": synthesized(),
        "base_prepared": [prepared_digest(pid, prepared)
                          for pid, prepared in base_run_batches()[1]],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_synthesized_columns_match(golden):
    assert golden["instructions_per_benchmark"] == INSTRUCTIONS
    assert golden["seed_offsets"] == list(SEED_OFFSETS)
    assert synthesized() == golden["synthesized"]


@pytest.mark.parametrize("engine", ["native", "reference"])
def test_base_run_translations_match(golden, engine):
    # Each engine brings its own page lookup (compiled or NumPy).
    sim, seen = base_run_batches(engine)
    assert sim.page_table.compiled == (engine == "native")
    assert [prepared_digest(pid, prepared) for pid, prepared in seen] \
        == golden["base_prepared"]


def test_forced_library_failure_falls_back_identically(golden, monkeypatch):
    from repro.core.engine import EngineUnavailable, native
    from repro.obs.metrics import global_registry

    def broken():
        raise EngineUnavailable("load_failed", "forced by the test")

    def fallbacks():
        counter = global_registry().get("sim_engine_fallbacks_total")
        return 0 if counter is None else counter.value_of("load_failed")

    monkeypatch.setattr(native, "kernel", broken)
    before = fallbacks()
    sim, seen = base_run_batches("native")
    assert sim.memsys.engine.name == "reference"
    assert not sim.page_table.compiled
    assert fallbacks() == before + 1
    assert [prepared_digest(pid, prepared) for pid, prepared in seen] \
        == golden["base_prepared"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_trace.py --record")
    GOLDEN.write_text(json.dumps(recorded(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
