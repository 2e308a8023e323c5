"""Lazy module exports (PEP 562): a name's module loads on first use.

A package that re-exports its submodules' names eagerly makes every
importer pay for all of them: a plain Table-IV run would load the
whole fleet stack, the sweep, the campaign scheduler and telemetry's
sinks although it touches none of them.
:func:`lazy_exports` keeps such a package's public surface unchanged
(``from repro.distribute import DistributedSession`` still works, and
``__all__``/``dir()`` still list every name) while importing each
source module only when one of its names is first read.

A registry filled when its module loads (backends, scenarios, wire
types) is still filled before it is read, because every reader imports
the module that fills it; no package ``__init__`` fills one on the
side.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks of a lazy module.

    ``namespace`` is the module's ``globals()``; ``exports`` maps each
    source module to the names it provides, and each entry reads like
    the ``from SOURCE import NAMES`` statement it replaces: the source
    is absolute or, with a leading dot, relative to the module's
    package, a name may be ``"alias=name"``, and a name the source
    lacks is imported as its submodule.  A resolved name is cached in
    ``namespace``, so the hook runs once per name; an unknown name
    raises :class:`AttributeError` as it would on any module.  Use::

        __getattr__, __dir__ = lazy_exports(globals(), {
            ".codec": ("MuseCode", "DecodeStatus"),
            ".naming": ("parse_error_class=parse",),
        })
    """
    where: dict[str, tuple[str, str]] = {}
    for source, names in exports.items():
        for entry in names:
            alias, _, name = entry.partition("=")
            where[alias] = (source, name or alias)
    module_name = namespace["__name__"]
    package = namespace["__package__"]

    def __getattr__(name: str) -> Any:
        try:
            source, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(source, package)
        try:
            value = getattr(module, attr)
        except AttributeError:
            value = importlib.import_module(f"{module.__name__}.{attr}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *where})

    return __getattr__, __dir__
