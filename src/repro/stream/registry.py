"""The consumer registry: plugin-style construction of stream consumers.

Experiments request derived analyses by *name* (a ``RunSpec`` carries a
``consumers`` tuple); at run time the runner resolves each name through
this registry into a live consumer attached to the run's stream.  The
registry is the seam where new backends plug in without touching the
producers::

    from repro.stream import register_consumer

    @register_consumer("my-analysis", plane="refs", spec_safe=True)
    def _build(context):
        return MyConsumer(context.machine)

``plane`` says which stream the consumer attaches to: ``"refs"`` (the
interpreter's raw reference stream) or ``"lines"`` (the hierarchy's
resolved line-event stream).  ``spec_safe`` marks consumers that a
declarative :class:`~repro.engine.RunSpec` may request: they must be
constructible from the build context alone and their ``summary()`` must
be a small JSON-safe dict (it is persisted in the result store).
Consumers needing extra arguments (an output path, say) register with
``spec_safe=False`` and read ``context.options``.

A third-party refs consumer sees data references only unless it opts
in: declare ``wants_ifetch`` to also receive instruction fetches, and
``wants_trace_ids`` to receive trace ids; otherwise every id is
``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class BuildContext:
    """What a consumer factory may depend on."""

    machine: Any = None
    program: Any = None
    options: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ConsumerEntry:
    name: str
    plane: str  # "refs" | "lines"
    factory: Callable[[BuildContext], Any]
    spec_safe: bool
    doc: str


class ConsumerRegistry:
    """Name -> factory registry for stream consumers."""

    def __init__(self) -> None:
        self._entries: Dict[str, ConsumerEntry] = {}

    def register(self, name: str, plane: str = "refs",
                 spec_safe: bool = False, doc: str = ""):
        """Decorator registering ``factory`` under ``name``."""
        if plane not in ("refs", "lines"):
            raise ValueError(f"unknown plane {plane!r}")

        def deco(factory: Callable[[BuildContext], Any]):
            if name in self._entries:
                raise ValueError(f"consumer {name!r} already registered")
            self._entries[name] = ConsumerEntry(
                name=name, plane=plane, factory=factory,
                spec_safe=spec_safe, doc=doc or (factory.__doc__ or ""),
            )
            return factory
        return deco

    def entry(self, name: str) -> ConsumerEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown consumer {name!r}; known: {sorted(self._entries)}"
            ) from None

    def create(self, name: str, context: Optional[BuildContext] = None):
        """Build one consumer; returns ``(entry, consumer)``."""
        entry = self.entry(name)
        consumer = entry.factory(context or BuildContext())
        return entry, consumer

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def spec_safe_names(self) -> Tuple[str, ...]:
        return tuple(sorted(n for n, e in self._entries.items()
                            if e.spec_safe))


#: The process-wide default registry.
REGISTRY = ConsumerRegistry()

register_consumer = REGISTRY.register


def spec_safe_consumer_names() -> Tuple[str, ...]:
    """Names a declarative RunSpec may request (built-ins registered)."""
    _ensure_builtins()
    return REGISTRY.spec_safe_names()


def create_consumer(name: str, context: Optional[BuildContext] = None):
    """Resolve one name through the default registry."""
    _ensure_builtins()
    return REGISTRY.create(name, context)


def consumer_names() -> Tuple[str, ...]:
    _ensure_builtins()
    return REGISTRY.names()


_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the built-in consumers exactly once (registration side
    effect).  Deferred so that ``repro.stream`` never drags the memory
    / core layers in at import time (they import this package)."""
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        from . import consumers  # noqa: F401  (registers built-ins)
