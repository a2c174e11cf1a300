"""The native engine: the whole ``run_slice`` hot path in compiled C.

The kernel (``native.c`` next to this file) is a line-for-line port of
the reference loop and of every handler it calls: L1-I/L1-D hit checks,
the four write policies and three bypass modes, the write buffer and the
L2-D dirty buffer, direct-mapped and associative true-LRU L2 halves, the
PID-tagged TLBs, and the refill and miss-penalty timing.  It touches no
Python object: state arrives as flat NumPy arrays and the slice's
statistics leave through an int64 counter block that Python folds into
:class:`~repro.core.stats.SimStats` once per call.

Build on first use
------------------

:func:`kernel` compiles the C source with the setuptools compiler the
package build uses, into a per-user cache directory
(:func:`cache_dir`), keyed by the hash of the source, the compiler
command line and the platform.  A build writes into a private temporary
directory and publishes with :func:`os.replace`, so concurrent first uses
(forked serve and farm workers) all succeed.  Every published library
carries a trailer with its length and SHA-256, checked before ``dlopen``
(mapping a truncated shared object can kill the process with SIGBUS); a
cached library that fails the check or does not load (corrupt, wrong ABI)
is rebuilt once.  When no
library can be had, :class:`~repro.core.engine.EngineUnavailable` names
the reason and the memory system falls back to the reference engine
(counted and logged; see :func:`repro.core.engine.create_engine`).

State ownership
---------------

The memory system's L1 arrays, the TLBs' slot arrays and the L2 halves'
tag/dirty slot arrays are NumPy arrays while this engine drives them:
the kernel writes them in place, and ``state_dict``,
``check_invariants`` and the fault injector read and write the very same
arrays.  The small structures — scalar timing state and the write-buffer
FIFO (at most ``depth`` entries) — stay in their Python objects between
calls and are copied in and out around every call.  Any array a caller
replaces (``load_state``, ``Cache.flush``) is re-adopted on the next
call, after its length, dtype and contiguity are checked.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from repro.core.config import BypassMode, WritePolicy
from repro.core.engine import (
    REASON_END,
    REASON_SLICE,
    REASON_SYSCALL,
    Engine,
    EngineUnavailable,
    SliceResult,
    fall_back,
)
from repro.errors import StateCorruptionError
from repro.obs import runtime as _obs
from repro.params import PAGE_WORDS, log2i

#: Must equal ``NATIVE_ABI`` in ``native.c``.
NATIVE_ABI = 2
_SOURCE = Path(__file__).with_name("native.c")
_INT64_MAX = (1 << 63) - 1
#: Ends every published library, after its 8-byte length and SHA-256.
_SEAL = b"repro-native-seal"
#: Widest L1-D line whose valid mask fits the kernel's int64 words.
MAX_DLINE_WORDS = 32

#: SimStats fields of the counter block, in ``native.c`` ``C_*`` order.
STAT_COUNTERS = (
    "loads", "stores", "l1i_misses", "l1d_read_misses",
    "l1d_write_only_read_misses", "l1d_write_misses",
    "l2i_accesses", "l2i_misses", "l2i_dirty_victims",
    "l2d_accesses", "l2d_misses", "l2d_dirty_victims",
    "l2_write_accesses", "l2_write_misses", "l2_write_dirty_victims",
    "stall_l1i_miss", "stall_l1d_miss", "stall_l1_writes", "stall_wb",
    "stall_l2i_miss", "stall_l2d_miss", "stall_tlb",
)
#: Then the write-buffer, L2-half and TLB counters (``C_WB_PUSHES`` ..).
_N_COUNTERS = len(STAT_COUNTERS) + 11
#: ``state[S_REASON]`` -> reason (``native.c`` ``REASON_*`` order).
_REASONS = (REASON_END, REASON_SYSCALL, REASON_SLICE)
_BYPASS = {BypassMode.NONE: 0, BypassMode.DIRTY_BIT: 1,
           BypassMode.ASSOCIATIVE: 2}
_POLICY = {WritePolicy.WRITE_BACK: 0, WritePolicy.WRITE_MISS_INVALIDATE: 1,
           WritePolicy.WRITE_ONLY: 2, WritePolicy.SUBBLOCK: 3}

# ------------------------------------------------------------------ build


def cache_dir() -> Path:
    """The per-user directory holding built kernels.

    ``~/.cache/repro/native``; a per-user directory under the system
    temporary directory when the home directory is not writable.  It is
    deliberately separate from any farm result cache, which callers may
    wipe between runs.
    """
    home = Path.home() / ".cache" / "repro" / "native"
    try:
        home.mkdir(parents=True, exist_ok=True)
        if os.access(home, os.W_OK):
            return home
    except OSError:
        pass
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    fallback = Path(tempfile.gettempdir()) / f"repro-native-{uid}"
    fallback.mkdir(parents=True, exist_ok=True)
    return fallback


def library_name() -> str:
    """File name of the kernel for this source, compiler and platform."""
    config = sysconfig.get_config_vars("CC", "CFLAGS", "CCSHARED",
                                       "LDSHARED")
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    for part in (*config, sys.platform, platform.machine(),
                 str(NATIVE_ABI)):
        digest.update(b"\0" + str(part).encode())
    suffix = ".dll" if sys.platform == "win32" else ".so"
    return f"repro_native-{digest.hexdigest()[:20]}{suffix}"


def _compiler():
    """A configured setuptools C compiler; raises EngineUnavailable."""
    try:
        from setuptools._distutils.ccompiler import new_compiler
        from setuptools._distutils.sysconfig import customize_compiler
    except ImportError as exc:
        raise EngineUnavailable("no_compiler",
                                f"setuptools is unavailable: {exc}") from exc
    compiler = new_compiler()
    customize_compiler(compiler)
    executable = getattr(compiler, "compiler_so", None) or ["cc"]
    if shutil.which(executable[0]) is None:
        raise EngineUnavailable("no_compiler",
                                f"C compiler {executable[0]!r} not found")
    return compiler


def build(target: Path) -> None:
    """Compile the kernel and atomically publish it at ``target``."""
    compiler = _compiler()
    workdir = Path(tempfile.mkdtemp(prefix=".build-", dir=target.parent))
    try:
        source = workdir / "native.c"
        shutil.copyfile(_SOURCE, source)
        try:
            objects = compiler.compile([str(source)],
                                       output_dir=str(workdir))
            built = workdir / target.name
            compiler.link_shared_object(objects, str(built))
        except Exception as exc:
            # A failed build must degrade to the reference engine.  The
            # compiler raises CompileError/LinkError from whichever of the
            # two distutils module copies loaded its class, so no single
            # class catches them all.
            raise EngineUnavailable(
                "build_failed", f"compiling {_SOURCE.name}: {exc}") from exc
        library = built.read_bytes()
        with open(built, "ab") as handle:
            handle.write(len(library).to_bytes(8, "little")
                         + hashlib.sha256(library).digest() + _SEAL)
        os.replace(built, target)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _sealed(path: Path) -> bool:
    """Whether ``path`` is a complete library as :func:`build` sealed it."""
    data = path.read_bytes()
    trailer = 8 + 32 + len(_SEAL)
    if len(data) < trailer or not data.endswith(_SEAL):
        return False
    size = int.from_bytes(data[-trailer:-trailer + 8], "little")
    digest = data[-trailer + 8:-len(_SEAL)]
    return (size == len(data) - trailer
            and hashlib.sha256(data[:size]).digest() == digest)


class Kernel(NamedTuple):
    """The library's entry points (argument types set)."""

    #: ``repro_run_slice``: the engine's hot path.
    run_slice: Callable
    #: ``repro_translate``: the batch page lookup behind
    #: :meth:`repro.mmu.page_table.PageTable.translate_batch`.
    translate: Callable


def _load(path: Path) -> Kernel:
    """The library's entry points from ``path``; raises OSError when it is
    incomplete, cannot be loaded or has the wrong ABI."""
    if not _sealed(path):
        raise OSError(f"{path.name}: truncated or not a sealed kernel")
    library = ctypes.CDLL(str(path))
    try:
        abi = library.repro_native_abi
        run = library.repro_run_slice
        translate = library.repro_translate
    except AttributeError as exc:
        raise OSError(f"{path.name}: missing kernel symbol: {exc}") from exc
    abi.restype = ctypes.c_int64
    abi.argtypes = []
    if abi() != NATIVE_ABI:
        raise OSError(f"{path.name}: kernel ABI {abi()} != {NATIVE_ABI}")
    run.restype = ctypes.c_int64
    run.argtypes = [ctypes.c_void_p] * 23 + [ctypes.c_int64] * 3
    translate.restype = ctypes.c_int64
    translate.argtypes = ([ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2
                          + [ctypes.c_void_p] + [ctypes.c_int64] * 2
                          + [ctypes.c_void_p] * 2)
    return Kernel(run, translate)


def load_kernel(directory: Path) -> Kernel:
    """Load the kernel from ``directory``, building it when it is missing
    and rebuilding it once when the cached copy does not load."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / library_name()
    if path.exists():
        try:
            return _load(path)
        except OSError:
            pass  # truncated or corrupt: rebuild below
    build(path)
    try:
        return _load(path)
    except OSError as exc:
        raise EngineUnavailable("load_failed", str(exc)) from exc


#: The loaded entry points, or why there are none; one per process.  Threads
#: racing on first use each load the same atomically published library,
#: so no lock guards it (and no fork can inherit a held one).
_kernel = None


def kernel() -> Kernel:
    """The process-wide kernel entry points (built/loaded once); raises
    :class:`~repro.core.engine.EngineUnavailable` with the reason when
    the native library cannot be had in this process."""
    global _kernel
    if _kernel is None:
        try:
            _kernel = load_kernel(cache_dir())
        except EngineUnavailable as exc:
            _kernel = exc
        except OSError as exc:
            _kernel = EngineUnavailable("build_failed", str(exc))
    if isinstance(_kernel, EngineUnavailable):
        raise _kernel
    return _kernel


# ----------------------------------------------------------------- engine


def _as_array(values, dtype) -> np.ndarray:
    """A fresh writable ``dtype`` copy of a state column."""
    if (isinstance(values, list) and values
            and values.count(values[0]) == len(values)):
        # A freshly built machine's columns are uniform; np.full skips the
        # per-element conversion that dominates construction otherwise.
        return np.full(len(values), values[0], dtype=dtype)
    return np.array(values, dtype=dtype)


def _column(values, dtype, n: int, name: str) -> np.ndarray:
    """``values`` as a C-contiguous ``dtype`` array of length ``n``."""
    if (type(values) is not np.ndarray or values.dtype != dtype
            or not values.flags.c_contiguous):
        values = np.ascontiguousarray(values, dtype=dtype)
    if values.shape != (n,):
        raise ValueError(f"trace column {name} has shape {values.shape}, "
                         f"expected ({n},)")
    return values


class NativeEngine(Engine):
    """The compiled hot path; bit-identical to the reference engine."""

    name = "native"
    columnar = True

    def __init__(self, ms):
        if _obs.enabled:
            raise EngineUnavailable(
                "tracing", "obs per-event tracing needs the reference "
                "engine's instrumentation points")
        config = ms.config
        if config.dcache.line_words > MAX_DLINE_WORDS:
            raise EngineUnavailable(
                "unsupported", f"L1-D lines of {config.dcache.line_words} "
                f"words exceed the kernel's {MAX_DLINE_WORDS}-word valid "
                f"mask")
        self._run = kernel().run_slice
        super().__init__(ms)
        l2i, l2d = ms.l2.instruction_half, ms.l2.data_half
        itlb, dtlb = ms.itlb, ms.dtlb
        self._params = np.array([
            ms._il_shift, ms._i_mask, ms._dl_shift, ms._d_mask,
            ms._dline_mask, ms._d_full_valid, ms._i_l2_delta,
            ms._d_l2_delta, ms._i_refill_cycles, ms._d_refill_cycles,
            ms._wb_word_cost, ms._wb_victim_cost, ms._l2_clean,
            ms._l2_dirty, ms._l2_writeback_cost, int(ms._i_waits_for_wb),
            _BYPASS[ms._bypass], int(ms._dirty_buffer),
            _POLICY[config.write_policy], int(ms._tlb_enabled),
            ms._tlb_penalty, l2i.sets, l2i.ways, l2d.sets, l2d.ways,
            ms.wb.depth, ms.wb.overlap_cycles,
            itlb.sets, itlb.ways, dtlb.sets, dtlb.ways,
            log2i(PAGE_WORDS),
        ], dtype=np.int64)
        self._state = np.zeros(9, dtype=np.int64)
        self._counters = np.zeros(_N_COUNTERS, dtype=np.int64)
        self._wb_lines = np.zeros(0, dtype=np.int64)
        self._wb_completions = np.zeros(0, dtype=np.int64)
        self._columns = ms._shared_arrays()
        self._adopted: Tuple = ()
        self._pointers: Tuple[int, ...] = ()
        self.on_state_loaded()

    # -------------------------------------------------------------- state

    def on_state_loaded(self) -> None:
        """Adopt the (possibly replaced) shared arrays right away."""
        self._shared_pointers()

    def _shared_pointers(self) -> Tuple[int, ...]:
        """Pointers to the shared L1/L2 arrays, converting any array a
        caller replaced since the last call."""
        columns = self._columns
        current = tuple(getattr(owner, attr) for owner, attr, _, _
                        in columns)
        if (len(current) == len(self._adopted)
                and all(a is b for a, b in zip(current, self._adopted))):
            return self._pointers
        arrays = []
        for (owner, attr, dtype, n), values in zip(columns, current):
            if (type(values) is not np.ndarray or values.dtype != dtype
                    or not values.flags.c_contiguous
                    or not values.flags.writeable):
                values = _as_array(values, dtype)
            if values.shape != (n,):
                raise StateCorruptionError(
                    f"{type(owner).__name__}.{attr} holds "
                    f"{values.shape} entries, expected ({n},)",
                    details={"structure": attr})
            setattr(owner, attr, values)
            arrays.append(values)
        pointers = [a.ctypes.data for a in arrays]
        if len(pointers) == 11:  # unified L2: both halves are one pair
            pointers += pointers[-2:]
        self._adopted = tuple(arrays)
        self._pointers = tuple(pointers)
        return self._pointers

    # ------------------------------------------------------------ hot path

    def run_slice(self, pcs, kinds, addrs, partials, syscalls,
                  start: int, deadline: int) -> SliceResult:
        ms = self.ms
        if _obs.enabled:
            engine = fall_back(ms, EngineUnavailable(
                "tracing", "obs per-event tracing was switched on"))
            columns = [c.tolist() if isinstance(c, np.ndarray) else c
                       for c in (pcs, kinds, addrs, partials, syscalls)]
            return engine.run_slice(*columns, start, deadline)
        n = len(pcs)
        pcs = _column(pcs, np.int64, n, "pcs")
        kinds = _column(kinds, np.uint8, n, "kinds")
        addrs = _column(addrs, np.int64, n, "addrs")
        partials = _column(partials, np.bool_, n, "partials")
        syscalls = _column(syscalls, np.bool_, n, "syscalls")
        if not 0 <= start <= n:
            raise ValueError(f"start {start} outside the batch of {n}")
        shared = self._shared_pointers()

        wb = ms.wb
        entries = wb._entries
        capacity = max(wb.depth, len(entries))
        if len(self._wb_lines) < capacity:
            self._wb_lines = np.zeros(capacity, dtype=np.int64)
            self._wb_completions = np.zeros(capacity, dtype=np.int64)
        if entries:
            lines, completions = zip(*entries)
            self._wb_lines[:len(entries)] = lines
            self._wb_completions[:len(entries)] = completions

        state = self._state
        state[:] = (ms.now, ms._dirty_epoch, ms._dirty_buffer_free,
                    ms._last_ipage, ms._last_dpage, len(entries),
                    wb._last_completion, wb.max_occupancy, 0)
        counters = self._counters
        counters[:] = 0
        consumed = self._run(
            self._params.ctypes.data, state.ctypes.data, counters.ctypes.data,
            *shared,
            self._wb_lines.ctypes.data, self._wb_completions.ctypes.data,
            pcs.ctypes.data, kinds.ctypes.data, addrs.ctypes.data,
            partials.ctypes.data, syscalls.ctypes.data,
            n, start, min(deadline, _INT64_MAX))

        (now, ms._dirty_epoch, ms._dirty_buffer_free, ms._last_ipage,
         ms._last_dpage, count, wb._last_completion, wb.max_occupancy,
         reason) = state.tolist()
        reason = _REASONS[reason]
        ms.now = now
        if entries or count:
            wb._entries.clear()
            wb._entries.extend(zip(self._wb_lines[:count].tolist(),
                                   self._wb_completions[:count].tolist()))

        values: List[int] = counters.tolist()
        st = ms.stats
        for name, value in zip(STAT_COUNTERS, values):
            if value:
                setattr(st, name, getattr(st, name) + value)
        (pushes, retired, full_stall, l2i_hits, l2i_misses, l2d_hits,
         l2d_misses, itlb_probes, itlb_misses, dtlb_probes,
         dtlb_misses) = values[len(STAT_COUNTERS):]
        wb.pushes += pushes
        wb.retired += retired
        wb.full_stall_cycles += full_stall
        l2i, l2d = ms.l2.instruction_half, ms.l2.data_half
        l2i.hits += l2i_hits
        l2i.misses += l2i_misses
        l2d.hits += l2d_hits
        l2d.misses += l2d_misses
        ms.itlb.probes += itlb_probes
        ms.itlb.misses += itlb_misses
        ms.dtlb.probes += dtlb_probes
        ms.dtlb.misses += dtlb_misses

        st.instructions += consumed
        if reason == REASON_SYSCALL:
            st.syscalls += 1
        st.cycles = now - ms._cycles_base
        ms._sync_tlb_stats()
        if ms.energy is not None:
            ms.energy.account(st)
        return SliceResult(consumed, reason)
