"""Scenario document validation against the real dataclasses.

A scenario that passes :func:`validate_document` resolves into objects
the simulator itself constructs — ``[machine]`` goes through
:func:`repro.core.serialization.config_from_dict` (which runs
``SystemConfig.validate``), ``[workload]`` becomes an
:class:`~repro.experiments.common.ExperimentScale`, and engine/energy
names are checked against the live registries.  Every rejection is a
:class:`~repro.errors.ConfigurationError` naming the full dotted path of
the offending key, with a nearest-valid-key suggestion.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.engine import ENGINE_NAMES, engine_hint
from repro.core.serialization import did_you_mean, unknown_key_error
from repro.errors import ConfigurationError

#: Top-level tables a scenario document may contain.
TOP_KEYS = ("scenario", "machine", "workload", "engine", "energy", "sweep")

_SCENARIO_KEYS = ("name", "description", "experiment", "extends")
_WORKLOAD_KEYS = ("instructions_per_benchmark", "level", "time_slice",
                  "warmup_fraction")
_SWEEP_KEYS = ("mode", "axes")
_SWEEP_MODES = ("product", "zip")


def _require_table(doc: Dict[str, Any], key: str) -> Dict[str, Any]:
    value = doc.get(key)
    if not isinstance(value, dict):
        raise ConfigurationError(f"'{key}' must be a table, got "
                                 f"{type(value).__name__}")
    return value


def _check_keys(section: Dict[str, Any], path: str, valid) -> None:
    unknown = set(section) - set(valid)
    if unknown:
        raise unknown_key_error(path, unknown, valid)


def _validate_scenario_section(doc: Dict[str, Any]) -> None:
    section = _require_table(doc, "scenario")
    _check_keys(section, "scenario", _SCENARIO_KEYS)
    if not isinstance(section.get("name"), str) or not section["name"]:
        raise ConfigurationError(
            "scenario.name must be a non-empty string")
    for key in ("description", "experiment", "extends"):
        if key in section and not isinstance(section[key], str):
            raise ConfigurationError(f"scenario.{key} must be a string")


def _validate_workload(doc: Dict[str, Any]) -> None:
    if "workload" not in doc:
        return
    section = _require_table(doc, "workload")
    _check_keys(section, "workload", _WORKLOAD_KEYS)
    for key in ("instructions_per_benchmark", "level", "time_slice"):
        if key in section:
            value = section[key]
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 1):
                raise ConfigurationError(
                    f"workload.{key} must be a positive integer, got "
                    f"{value!r}")
    if "warmup_fraction" in section:
        value = section["warmup_fraction"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not 0.0 <= float(value) < 1.0):
            raise ConfigurationError(
                "workload.warmup_fraction must be a number in [0, 1), "
                f"got {value!r}")


def _validate_engine(doc: Dict[str, Any]) -> None:
    if "engine" not in doc:
        return
    section = _require_table(doc, "engine")
    _check_keys(section, "engine", ("name",))
    name = section.get("name")
    if not isinstance(name, str) or name not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine.name {name!r}{engine_hint(name)}; "
            f"available engines: {', '.join(ENGINE_NAMES)}")


def _validate_energy(doc: Dict[str, Any]) -> None:
    if "energy" not in doc:
        return
    from repro.energy import ENERGY_TECHNOLOGIES  # deferred: heavy layer

    section = _require_table(doc, "energy")
    _check_keys(section, "energy", ("technology",))
    tech = section.get("technology")
    if tech is None:
        # An empty [energy] table (e.g. technology removed by an overlay's
        # delete sentinel) means no energy accounting, same as no table.
        return
    if not isinstance(tech, str) or tech not in ENERGY_TECHNOLOGIES:
        raise ConfigurationError(
            f"unknown energy.technology {tech!r}"
            f"{did_you_mean(str(tech), ENERGY_TECHNOLOGIES)}; "
            f"available technologies: "
            f"{', '.join(sorted(ENERGY_TECHNOLOGIES))}")


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool))


def _validate_axis(name: str, values: Any) -> None:
    path = f"sweep.axes.{name}"
    if not isinstance(values, list) or not values:
        raise ConfigurationError(
            f"{path} must be a non-empty list of axis values")
    if all(_is_scalar(v) for v in values):
        return
    if all(isinstance(v, dict) for v in values):
        for v in values:
            bad = [k for k, item in v.items() if not _is_scalar(item)]
            if bad:
                raise ConfigurationError(
                    f"{path} table values must map keys to scalars "
                    f"(offending key: {bad[0]!r})")
        return
    raise ConfigurationError(
        f"{path} must be a list of scalars or a list of tables, not a "
        "mixture")


def _validate_sweep(doc: Dict[str, Any]) -> None:
    if "sweep" not in doc:
        return
    section = _require_table(doc, "sweep")
    _check_keys(section, "sweep", _SWEEP_KEYS)
    mode = section.get("mode", "product")
    if mode not in _SWEEP_MODES:
        raise ConfigurationError(
            f"unknown sweep.mode {mode!r}"
            f"{did_you_mean(str(mode), _SWEEP_MODES)}; "
            f"valid modes: {', '.join(_SWEEP_MODES)}")
    axes = section.get("axes")
    if not isinstance(axes, dict) or not axes:
        raise ConfigurationError(
            "sweep.axes must be a non-empty table of axis-name -> list")
    for name, values in axes.items():
        _validate_axis(name, values)
    if mode == "zip":
        lengths = {name: len(values) for name, values in axes.items()}
        if len(set(lengths.values())) > 1:
            detail = ", ".join(f"{name}={n}"
                               for name, n in sorted(lengths.items()))
            raise ConfigurationError(
                f"sweep.mode = 'zip' needs equal-length axes ({detail})")


def validate_document(doc: Dict[str, Any]) -> None:
    """Validate a fully merged scenario document; raises on any defect.

    Called at resolve time (after extends/overlay composition) so a typo
    in an overlay is caught even when the base was fine.  ``[machine]``
    is validated by actually constructing the
    :class:`~repro.core.config.SystemConfig`, so there is exactly one
    source of truth for what a machine is.
    """
    _check_keys(doc, "", TOP_KEYS)
    if "scenario" not in doc:
        raise ConfigurationError(
            "scenario document needs a [scenario] table with at least "
            "'name'")
    _validate_scenario_section(doc)
    if "machine" in doc:
        from repro.core.serialization import config_from_dict

        machine = _require_table(doc, "machine")
        config_from_dict(machine, path="machine")
    _validate_workload(doc)
    _validate_engine(doc)
    _validate_energy(doc)
    _validate_sweep(doc)
