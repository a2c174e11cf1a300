"""Checkpoint/resume: atomic, checksummed snapshots of a whole simulation.

On-disk format: a gzip-compressed JSON envelope ::

    {"magic": "repro-ckpt", "version": 1,
     "sha256": "<hex digest of the canonical payload JSON>",
     "payload": {config, profiles, simulation, page_table, memsys, scheduler}}

The digest is computed over ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` — a canonical form, so the check is stable across
writers.  Files are written via :func:`repro.robust.atomic.atomic_write_bytes`,
so an interrupted save leaves the previous checkpoint intact.

The payload embeds the full configuration and workload definition:
:func:`resume` reconstructs the :class:`~repro.core.simulator.Simulation`
from the file alone and restores its state, after which ``sim.run()``
produces statistics **bit-identical** to a run that was never interrupted
(property-tested in ``tests/test_checkpoint.py`` across write policies and
bypass modes).

Every malformed-file condition — missing, truncated, bit-flipped, wrong
magic, unsupported version, checksum mismatch, missing sections — raises
:class:`~repro.errors.CheckpointError`; a corrupt checkpoint can never be
half-loaded into a simulation.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import zlib
from typing import Optional, Union

from repro.errors import CheckpointError
from repro.robust.atomic import atomic_write_bytes

PathLike = Union[str, os.PathLike]

CHECKPOINT_MAGIC = "repro-ckpt"
CHECKPOINT_VERSION = 1


def _canonical(payload: dict) -> bytes:
    try:
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint payload is not JSON-serializable: {exc}") from exc


def save_checkpoint(sim, path: PathLike) -> None:
    """Snapshot ``sim`` (a :class:`~repro.core.simulator.Simulation`) to
    ``path`` atomically."""
    payload = sim.state_dict()
    canonical = _canonical(payload)
    envelope = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "sha256": hashlib.sha256(canonical).hexdigest(),
        "payload": payload,
    }
    blob = gzip.compress(json.dumps(envelope).encode("utf-8"), compresslevel=6)
    atomic_write_bytes(path, blob)


def load_checkpoint(path: PathLike) -> dict:
    """Read, verify, and return a checkpoint's payload dict.

    Raises :class:`~repro.errors.CheckpointError` for every way the file can
    be wrong; never returns unverified data.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        text = gzip.decompress(blob).decode("utf-8")
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
        raise CheckpointError(
            f"checkpoint {path} is not a valid gzip stream "
            f"(truncated or corrupted): {exc}") from exc
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} holds invalid JSON: {exc}") from exc
    if not isinstance(envelope, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if envelope.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint {path} has wrong magic "
            f"{envelope.get('magic')!r} (expected {CHECKPOINT_MAGIC!r})")
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version {version!r} "
            f"(this reader understands version {CHECKPOINT_VERSION})")
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} payload is missing")
    digest = hashlib.sha256(_canonical(payload)).hexdigest()
    if digest != envelope.get("sha256"):
        raise CheckpointError(
            f"checkpoint {path} failed checksum verification: payload "
            f"digest {digest} != recorded {envelope.get('sha256')!r}")
    return payload


def resume(path: PathLike, engine: Optional[str] = None):
    """Reconstruct a :class:`~repro.core.simulator.Simulation` from a
    checkpoint file, ready to continue bit-identically.

    A run that had already completed resumes as a no-op: ``run()`` returns
    the final statistics immediately.

    Args:
        path: the checkpoint file.
        engine: override the engine recorded in the snapshot (engines
            share one architectural state representation, so a run
            checkpointed under one engine continues bit-identically
            under the other).
    """
    from repro.core.engine import check_recorded_engine
    from repro.core.serialization import config_from_dict, profile_from_dict
    from repro.core.simulator import Simulation
    from repro.errors import ConfigurationError

    payload = load_checkpoint(path)
    try:
        config = config_from_dict(payload["config"])
        profiles = [profile_from_dict(p) for p in payload["profiles"]]
        sim_kwargs = dict(payload["simulation"])
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint {path} is missing section {exc}") from exc
    except ConfigurationError as exc:
        raise CheckpointError(
            f"checkpoint {path} holds an invalid configuration: {exc}"
        ) from exc
    if engine is not None:
        sim_kwargs["engine"] = engine
    check_recorded_engine(sim_kwargs.get("engine"), f"checkpoint {path}")
    try:
        sim = Simulation(config=config, profiles=profiles, **sim_kwargs)
    except TypeError as exc:
        raise CheckpointError(
            f"checkpoint {path} simulation section is malformed: {exc}"
        ) from exc
    sim.load_state(payload)
    return sim
