"""Registry of kernel plugins.

Plugins register under dotted names (``misc.mkfile``, ``md.amber``,
``analysis.coco``).  Importing :mod:`repro.kernels` registers the built-in
library; applications can register their own with :func:`register_kernel`
or the :func:`kernel` class decorator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, TypeVar

from repro.exceptions import KernelError, NoKernelPluginError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel_plugin import KernelPlugin

__all__ = [
    "register_kernel", "get_kernel_plugin", "get_plugin_instance",
    "list_kernel_plugins", "kernel",
]

_REGISTRY: dict[str, type] = {}
#: The one instance of each plugin class (see :func:`get_plugin_instance`).
_INSTANCES: dict[type, "KernelPlugin"] = {}

P = TypeVar("P")


def register_kernel(plugin_cls: type, *, replace: bool = False) -> type:
    """Register *plugin_cls* under its ``name`` attribute."""
    name = getattr(plugin_cls, "name", "")
    if not name:
        raise KernelError(f"kernel plugin {plugin_cls!r} has no name")
    if name in _REGISTRY and not replace:
        raise KernelError(f"kernel plugin {name!r} is already registered")
    _REGISTRY[name] = plugin_cls
    return plugin_cls


def kernel(plugin_cls: type) -> type:
    """Class decorator form of :func:`register_kernel`."""
    return register_kernel(plugin_cls)


#: Built-in plugin modules by dotted-name prefix.  Loading only the
#: module a lookup needs keeps light workloads light: ``misc.sleep``
#: must not drag in the MD/analysis stack (and its scipy import), which
#: used to dominate simulated-run wall time.
_BUILTIN_MODULES = {
    "misc": "repro.kernels.misc",
    "md": "repro.kernels.md",
    "analysis": "repro.kernels.analysis",
    "exchange": "repro.kernels.exchange",
}


def get_kernel_plugin(name: str) -> type:
    """Look a plugin class up by name; built-ins load lazily per family."""
    if name not in _REGISTRY:
        import importlib

        module = _BUILTIN_MODULES.get(name.partition(".")[0])
        if module is not None:
            importlib.import_module(module)
    if name not in _REGISTRY:
        # Unknown prefix: load the whole built-in library before giving
        # up, so third-party registrations hooked into it still resolve.
        import repro.kernels

        repro.kernels.register_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise NoKernelPluginError(name, list(_REGISTRY)) from None


def get_plugin_instance(name: str) -> "KernelPlugin":
    """The shared instance of the plugin registered as *name*.

    Plugins are stateless by contract (``docs/kernels.md``), so every
    kernel of one plugin class holds the same instance; its bound
    ``execute`` is the payload of every description bound from it.
    """
    plugin_cls = get_kernel_plugin(name)
    instance = _INSTANCES.get(plugin_cls)
    if instance is None:
        instance = _INSTANCES[plugin_cls] = plugin_cls()
    return instance


def list_kernel_plugins() -> list[str]:
    """Names of all registered plugins (built-ins included), sorted."""
    import repro.kernels

    repro.kernels.register_builtins()
    return sorted(_REGISTRY)
