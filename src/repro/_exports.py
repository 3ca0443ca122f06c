"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists its public names in ``__all__`` and gets
them from loader functions, each a run of static ``from repro.x.y import
Name`` statements ending in ``return locals()``.  Importing the package
runs no loader: a name's first lookup runs the loader that binds it and
stores everything that loader bound in the package, so later lookups
are plain attribute reads and ``from pkg import *`` still works.  The
loaders' imports carry ``# noqa: F401``: their names leave through
``locals()``, which the linter does not count as a use.
"""

from __future__ import annotations

from typing import Any, Callable, Dict


def lazy_exports(
    namespace: Dict[str, Any], *loaders: Callable[[], Dict[str, Any]]
) -> Callable[[str], Any]:
    """The ``__getattr__`` of the package whose globals are ``namespace``.

    A loader's names are its local variables, read off its code object,
    so each re-exported name is written once, in its import statement.
    """
    owner = {name: load for load in loaders for name in load.__code__.co_varnames}
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        load = owner.get(name)
        if load is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace.update(load())
        return namespace[name]

    return __getattr__
