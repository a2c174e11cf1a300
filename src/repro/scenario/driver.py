"""Run a resolved scenario: bind it to an experiment, or sweep generically.

Two execution shapes:

* ``scenario.experiment = "fig5"`` — the document drives a *registered*
  experiment.  :func:`bind_params` checks the declared sweep axes
  against what the experiment's ``@register(axes=...)`` promised, and
  the experiment function receives a
  :class:`~repro.scenario.params.ScenarioParams`.
* no ``experiment`` key — a *generic* sweep: every axis name is a dotted
  document path (``machine.dcache.size_kw``, ``workload.level``) and
  the grid is expanded point by point over the base document.

This module also owns the *default params* lookup: a registered
experiment invoked the legacy way (``repro-experiments fig5``) resolves
``scenarios/fig5.toml`` for its grid, which is what makes the committed
scenario files the single source of truth for every figure.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.serialization import did_you_mean
from repro.errors import ConfigurationError
from repro.scenario.params import ScenarioParams
from repro.scenario.resolve import ResolvedScenario, resolve_scenario

#: Environment override for the committed scenario directory (tests point
#: this at fixtures; workers inherit it across fork/spawn).
SCENARIO_DIR_ENV = "REPRO_SCENARIO_DIR"


def scenario_dir() -> Path:
    """The directory holding the committed per-experiment scenarios."""
    override = os.environ.get(SCENARIO_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "scenarios"


def builtin_scenario_path(experiment_id: str) -> Path:
    """The committed scenario file for a registered experiment."""
    return scenario_dir() / f"{experiment_id}.toml"


_DEFAULT_CACHE: Dict[Tuple[str, str], ScenarioParams] = {}


def default_params(experiment_id: str) -> ScenarioParams:
    """Resolve the committed scenario for an experiment id (memoized).

    ``repro-experiments fig5`` lands here: the legacy invocation path
    and ``repro-experiments run scenarios/fig5.toml`` resolve the same
    document, so they share one ``scenario_sha256`` — and therefore one
    cache namespace and bit-identical reports.
    """
    key = (experiment_id, str(scenario_dir()))
    if key in _DEFAULT_CACHE:
        return _DEFAULT_CACHE[key]
    path = builtin_scenario_path(experiment_id)
    if not path.exists():
        raise ConfigurationError(
            f"no committed scenario for experiment {experiment_id!r} "
            f"(expected {path}); set {SCENARIO_DIR_ENV} or add the file")
    resolved = resolve_scenario(path)
    if resolved.experiment != experiment_id:
        raise ConfigurationError(
            f"{path} declares scenario.experiment = "
            f"{resolved.experiment!r}, expected {experiment_id!r}")
    params = bind_params(resolved, experiment_id)
    _DEFAULT_CACHE[key] = params
    return params


def bind_params(resolved: ResolvedScenario,
                experiment_id: str) -> ScenarioParams:
    """Check a scenario's axes against an experiment's declaration.

    The experiment's ``@register(axes=...)`` names the axes it consumes;
    the scenario must declare exactly those — a missing axis would crash
    mid-run, an extra one would be silently ignored (the worst failure
    mode for a config file), so both are errors here, up front.
    """
    from repro.experiments.common import EXPERIMENT_AXES

    expected = set(EXPERIMENT_AXES.get(experiment_id, ()))
    declared = set(resolved.axes)
    # Report unknown axes before missing ones: a typo'd axis name produces
    # both, and the did-you-mean suggestion is the actionable message.
    unknown = declared - expected
    if unknown:
        first = sorted(unknown)[0]
        raise ConfigurationError(
            f"scenario {resolved.name!r} declares sweep axes unknown to "
            f"experiment {experiment_id!r}: {', '.join(sorted(unknown))}"
            f"{did_you_mean(first, expected)}; expected axes: "
            f"{', '.join(sorted(expected)) or 'none'}")
    missing = expected - declared
    if missing:
        raise ConfigurationError(
            f"scenario {resolved.name!r} is missing sweep axes required "
            f"by experiment {experiment_id!r}: "
            f"{', '.join(sorted(missing))}")
    return ScenarioParams(machine=resolved.machine, axes=dict(resolved.axes),
                          scenario_sha256=resolved.scenario_sha256)


def expand_grid(axes: Dict[str, Tuple[Any, ...]],
                mode: str = "product") -> List[Dict[str, Any]]:
    """Expand named axes into grid points, in declaration order.

    ``product`` crosses every axis (first axis outermost); ``zip`` walks
    them in lockstep (equal lengths enforced at validation).
    """
    if not axes:
        return []
    names = list(axes)
    if mode == "zip":
        lengths = {len(values) for values in axes.values()}
        if len(lengths) > 1:
            raise ConfigurationError(
                "zip sweep needs equal-length axes")
        return [dict(zip(names, combo))
                for combo in zip(*(axes[n] for n in names))]
    return [dict(zip(names, combo))
            for combo in itertools.product(*(axes[n] for n in names))]


def _set_path(doc: Dict[str, Any], dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(
                f"sweep axis {dotted!r} descends through non-table "
                f"key {part!r}")
    node[parts[-1]] = value


def _generic_sweep(resolved: ResolvedScenario):
    """Sweep dotted-path axes over the base document, one run per point."""
    import copy

    from repro.experiments.common import ExperimentResult, run_systems
    from repro.scenario.resolve import _build

    for name in resolved.axes:
        root = name.split(".", 1)[0]
        if root not in ("machine", "workload"):
            raise ConfigurationError(
                f"generic sweep axis {name!r} must start with 'machine.' "
                "or 'workload.' (or set scenario.experiment to drive a "
                "registered experiment)")
    assignments = expand_grid(resolved.axes, resolved.sweep_mode) or [{}]
    headers = [*resolved.axes, "CPI", "memory CPI"]
    points = []
    for assignment in assignments:
        doc = copy.deepcopy(resolved.document)
        for dotted, value in assignment.items():
            _set_path(doc, dotted, value)
        points.append(_build(doc, None))
    grid = run_systems([point.machine for point in points], points[0].scale,
                       scales=[point.scale for point in points])
    rows: List[List[Any]] = []
    for assignment, point, stats in zip(assignments, points, grid):
        cpi = stats.cpi(point.machine.cpu_stall_cpi)
        rows.append([*assignment.values(), round(cpi, 3),
                     round(stats.memory_cpi, 3)])
    return ExperimentResult(
        experiment_id=resolved.name,
        title=resolved.description or "scenario sweep",
        headers=headers,
        rows=rows,
        notes=f"generic sweep over {', '.join(resolved.axes) or 'nothing'} "
              f"({resolved.sweep_mode} mode)",
    )


def run_scenario(resolved: ResolvedScenario, scale=None):
    """Execute a resolved scenario; returns an ``ExperimentResult``.

    The caller owns the surrounding :func:`~repro.farm.context.
    farm_session` (jobs, cache, nodes, journal, and the scenario's
    ``scenario_sha256``); this function only decides *what* to run.
    """
    if resolved.experiment is None:
        return _generic_sweep(resolved)
    from repro.experiments import experiment_registry

    registry = experiment_registry()
    if resolved.experiment not in registry:
        raise ConfigurationError(
            f"scenario {resolved.name!r} names unknown experiment "
            f"{resolved.experiment!r}"
            f"{did_you_mean(resolved.experiment, registry)}; "
            f"available: {', '.join(sorted(registry))}")
    params = bind_params(resolved, resolved.experiment)
    return registry[resolved.experiment](scale if scale is not None
                                         else resolved.scale,
                                         params=params)
