"""Lazy package exports (PEP 562): a name costs its import on first use."""

from importlib import import_module


def lazy_exports(namespace: dict, homes: dict[str, str]):
    """``(__getattr__, __dir__)`` for a package exporting ``homes``.

    ``homes`` maps each public name to the module defining it. The
    first access imports that module and caches the object in
    ``namespace`` (the package's ``globals()``), so the hook runs once
    per name.
    """

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(import_module(homes[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | homes.keys())

    return __getattr__, __dir__
