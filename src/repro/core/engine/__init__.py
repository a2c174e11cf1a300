"""Pluggable simulation engines for :class:`repro.core.hierarchy.MemorySystem`.

The memory system owns *state* (tag arrays, write buffer, L2, TLBs, timing
constants, statistics); an **engine** owns the *hot loop* that advances that
state over a prepared instruction batch.  Two engines ship:

``reference``
    The original pure-Python per-instruction loop
    (:class:`repro.core.engine.reference.ReferenceEngine`).  Simple,
    auditable, the semantic ground truth, and the one engine that emits
    obs per-event traces.

``native``
    The same loop and every handler it calls compiled to C
    (:class:`repro.core.engine.native.NativeEngine`), built on first use
    and loaded with :mod:`ctypes`.  Bit-identical to ``reference`` by test
    (``tests/test_engine_lockstep.py`` and its sibling batteries), and the
    default.

The protocol between the two sides is deliberately narrow:

* an engine is constructed with the :class:`MemorySystem` it drives, by
  :func:`create_engine`;
* ``run_slice(pcs, kinds, addrs, partials, syscalls, start, deadline)``
  executes instructions and returns a :class:`SliceResult`; a
  ``columnar`` engine takes the columns as NumPy arrays, the others as
  plain lists;
* ``on_state_loaded()`` is called after ``MemorySystem.load_state``
  replaced the state arrays, so an engine can adopt them.

A native engine that cannot run — no compiler, a failed build or
``dlopen``, obs tracing switched on — is replaced by the reference engine
through :func:`fall_back`, which counts the reason in the obs registry
(``sim_engine_fallbacks_total{reason=...}``) and logs one warning per
process and reason.  Results are identical either way.

Policy and refill/timing handlers of the reference engine live in
:mod:`repro.core.engine.policies` and :mod:`repro.core.engine.timing`;
dispatch is resolved **once at construction**
(:func:`repro.core.engine.policies.resolve_policy` returns the handler
pair, which the memory system binds as methods), never per access.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, List, NamedTuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hierarchy import MemorySystem

#: Reasons a slice of execution stopped.
REASON_END = "end"          # batch exhausted
REASON_SYSCALL = "syscall"  # voluntary system call executed
REASON_SLICE = "slice"      # cycle deadline reached

#: Engine used when none is requested, everywhere engines are selectable.
DEFAULT_ENGINE = "native"

#: Every engine name :func:`resolve_engine` accepts: one that explains and
#: one that runs fast.
ENGINE_NAMES = ("reference", "native")

#: Engines that no longer exist -> the engine that replaced them.
RETIRED_ENGINES = {"batched": "native"}

_log = logging.getLogger("repro.engine")
_warned = set()


class SliceResult(NamedTuple):
    """Outcome of one ``run_slice`` call."""

    consumed: int
    reason: str


class EngineUnavailable(Exception):
    """An engine cannot run here.  ``reason`` labels the fallback metric:
    ``no_compiler``, ``build_failed``, ``load_failed``, ``tracing`` or
    ``unsupported``."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


class Engine:
    """The narrow protocol every engine implements.

    Engines hold no architectural state of their own — everything
    observable lives on the memory system, which is what makes engines
    interchangeable mid-run via checkpoints.
    """

    #: Wire/CLI identifier; must appear in :data:`ENGINE_NAMES`.
    name: str = "abstract"
    #: Whether ``run_slice`` takes NumPy columns (else plain lists).
    columnar: bool = False

    def __init__(self, ms: "MemorySystem"):
        self.ms = ms

    def run_slice(self, pcs: List[int], kinds: List[int], addrs: List[int],
                  partials: List[bool], syscalls: List[bool],
                  start: int, deadline: int) -> SliceResult:
        raise NotImplementedError

    def on_state_loaded(self) -> None:
        """Hook after ``load_state`` replaced the state arrays."""


def engine_hint(name: object) -> str:
    """A did-you-mean suffix for an unknown engine name: the successor of
    a retired engine, else the closest valid name, else ``""``."""
    if name in RETIRED_ENGINES:
        return (f" (the {name!r} engine was retired; did you mean "
                f"{RETIRED_ENGINES[name]!r}?)")
    from repro.core.serialization import did_you_mean

    return did_you_mean(str(name), ENGINE_NAMES)


def unknown_engine_message(name: object) -> str:
    """The shared diagnostic for an unknown engine name."""
    return (f"unknown simulation engine {name!r}{engine_hint(name)} "
            f"(available: {', '.join(ENGINE_NAMES)})")


def engine_arg(value: str) -> str:
    """``argparse`` type for ``--engine``: the name, or a did-you-mean
    usage error."""
    if value not in ENGINE_NAMES:
        import argparse

        raise argparse.ArgumentTypeError(unknown_engine_message(value))
    return value


def resolve_engine(name: str):
    """Map an engine name to its class; raises
    :class:`~repro.errors.ConfigurationError` for unknown names."""
    if name == "reference":
        from repro.core.engine.reference import ReferenceEngine

        return ReferenceEngine
    if name == "native":
        from repro.core.engine.native import NativeEngine

        return NativeEngine
    raise ConfigurationError(unknown_engine_message(name))


def check_recorded_engine(name: object, where: str) -> None:
    """Raise :class:`~repro.errors.CheckpointError` when a checkpoint or
    journal names an engine this build does not have (``None`` — no
    record — passes)."""
    if name is None or name in ENGINE_NAMES:
        return
    from repro.errors import CheckpointError

    successor = RETIRED_ENGINES.get(name, DEFAULT_ENGINE)
    raise CheckpointError(
        f"{where} was written under the {name!r} engine, which this "
        f"build does not have{engine_hint(name)}.  Simulation state is "
        f"engine-agnostic: continue a checkpoint with resume(path, "
        f"engine={successor!r}), or rerun a sweep with --engine "
        f"{successor}")


def create_engine(name: str, ms: "MemorySystem") -> Engine:
    """The engine ``name`` driving ``ms``, or the reference engine (via
    :func:`fall_back`) when that engine cannot run here."""
    cls = resolve_engine(name)
    try:
        return cls(ms)
    except EngineUnavailable as exc:
        return fall_back(ms, exc)


def fall_back(ms: "MemorySystem", exc: EngineUnavailable) -> Engine:
    """Hand ``ms`` to a new reference engine, counting and logging why."""
    from repro.core.engine.reference import ReferenceEngine
    from repro.obs.metrics import global_registry

    global_registry().counter(
        "sim_engine_fallbacks_total",
        "Runs a native engine handed to the reference engine, by reason",
        ("reason",)).labels(exc.reason).inc()
    if exc.reason not in _warned:
        _warned.add(exc.reason)
        _log.warning("native engine unavailable (%s); running the "
                     "reference engine instead", exc)
    ms.engine = ReferenceEngine(ms)
    return ms.engine
