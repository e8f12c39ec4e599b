"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` declares its re-exports in one table instead of
importing them, so importing the package, or any one of its submodules,
loads none of the others::

    __getattr__, __dir__ = lazy_exports(globals(), {
        ".faults": ("FaultConfig", "FaultInjector"),
        ".watchdog": ("RequestWatchdog",),
    })
"""

from importlib import import_module


def lazy_exports(namespace, table):
    """Module ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``.  ``table`` maps each relative submodule to
    the public names it defines; a name is imported on first access and
    cached in ``namespace``, so later reads are plain global lookups."""
    package = namespace["__name__"]
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name):
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__
