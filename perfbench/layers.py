"""The one module-to-layer table of the benchmark.

Every ``repro`` module belongs to exactly one layer.  The per-layer host
times of the traced pass, the retained bytes of the memory pass and the
self-check below all read this table, so a layer means the same set of
files everywhere.

An entry ``"a.b"`` names the module ``repro.a.b`` alone; ``"a.b.*"``
names the package ``repro.a.b`` and every module under it; ``""`` is the
root package ``repro``.  The first modules of each row are the ones the
layer is named for; the rest are small helpers placed with the layer that
calls them most.
"""

from __future__ import annotations

import importlib
import pkgutil

ROOT = "repro"

#: layer -> module entries (see the module docstring for the syntax).
LAYERS: dict[str, tuple[str, ...]] = {
    "kernel": ("core.kernel_plugin", "core.kernel_registry", "kernels.*",
               "pilot.description", "md.*"),
    "drivers": ("core.drivers.*", "core.patterns.*", "core.execution_pattern",
                "core.resource_handle", "core", "core.overhead",
                "core.strategy"),
    "umgr": ("pilot.unit_manager", "pilot.retry"),
    "unit_store": ("pilot.unit_store", "pilot.unit", "pilot.states"),
    "agent": ("pilot.agent.agent", "pilot.agent"),
    "slots": ("pilot.agent.slots",),
    "executor": ("pilot.agent.executor", "pilot.agent.staging",
                 "pilot.agent.launch_method", "pilot.faults"),
    "eventsim": ("eventsim.*", "utils.timing"),
    "profiler": ("pilot.profiler", "telemetry.sink"),
    "telemetry": ("telemetry.metrics", "telemetry.span", "telemetry"),
    "analytics": ("core.profiler", "analytics.*", "telemetry.analysis",
                  "telemetry.export", "telemetry.cli"),
    "pilot": ("pilot.session", "pilot.pilot_manager", "pilot.pilot",
              "cluster.*", "saga.*", "", "pilot", "pilot.db", "utils",
              "utils.ids", "utils.logger", "utils.config", "exceptions"),
}

#: Layers whose retained bytes per unit the memory pass reports.
RETAINED_LAYERS = ("kernel", "drivers", "unit_store", "profiler")


def _matches(entry: str, module: str) -> bool:
    if entry.endswith(".*"):
        package = f"{ROOT}.{entry[:-2]}"
        return module == package or module.startswith(package + ".")
    return module == (f"{ROOT}.{entry}" if entry else ROOT)


def layers_matching(module: str) -> list[str]:
    """Every layer with an entry naming *module* (one, if the table is sound)."""
    return [
        layer for layer, entries in LAYERS.items()
        if any(_matches(entry, module) for entry in entries)
    ]


def layer_of(module: str | None) -> str | None:
    """The layer of a ``repro`` module; ``None`` for any other module."""
    if not module or not (module == ROOT or module.startswith(ROOT + ".")):
        return None
    found = layers_matching(module)
    return found[0] if len(found) == 1 else None


def table_errors(modules) -> list[str]:
    """Modules of ``repro`` that map to no layer or to more than one."""
    errors = []
    for module in sorted(modules):
        if module != ROOT and not module.startswith(ROOT + "."):
            continue
        found = layers_matching(module)
        if len(found) != 1:
            errors.append(f"{module} maps to {found or 'no layer'}")
    return errors


def import_table_modules() -> list[str]:
    """Import every module the table names, so instrumentation sees them all.

    Modules that the run would otherwise import lazily (inside a function)
    must exist before the wrappers are installed, or their calls would
    escape attribution.
    """
    names = []
    for entries in LAYERS.values():
        for entry in entries:
            if entry.endswith(".*"):
                package = importlib.import_module(f"{ROOT}.{entry[:-2]}")
                names.append(package.__name__)
                for info in pkgutil.walk_packages(
                    package.__path__, prefix=package.__name__ + "."
                ):
                    names.append(importlib.import_module(info.name).__name__)
            else:
                name = f"{ROOT}.{entry}" if entry else ROOT
                names.append(importlib.import_module(name).__name__)
    return names
