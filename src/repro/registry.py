"""A tiny named-registry primitive shared by every pluggable surface.

The public API of the repo is organised around *registries*: protocols,
adversary strategies, delay policies and scenario generators are all
addressable by name, and all of them register through the same mechanism so
that user extensions look exactly like the built-ins::

    from repro.adversary.registry import register_adversary

    @register_adversary("my_attack")
    class MyAttack(Adversary):
        ...

A :class:`Registry` is deliberately dumb — a named dict with decorator
support and helpful error messages.  It lives at the very bottom of the
layer stack (it imports nothing from the package) so every layer may use it
without creating import cycles.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class Registry:
    """A mapping from names to registered objects, with decorator support.

    Parameters
    ----------
    kind:
        Human-readable description of what is being registered (``"protocol"``,
        ``"adversary"``, ...), used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._items: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, name: str, obj: Optional[T] = None, *, replace: bool = False
    ) -> Callable[[T], T]:
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        Direct form: ``registry.register("none", factory)``.
        Decorator form::

            @registry.register("silent")
            class SilentAdversary: ...

        Registering a name twice raises ``ValueError`` unless ``replace=True``
        (tests use ``replace`` to shadow a built-in temporarily).
        """

        def _add(value: T) -> T:
            if not replace and name in self._items:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass replace=True to override it"
                )
            self._items[name] = value
            return value

        if obj is None:
            return _add
        return _add(obj)  # type: ignore[return-value]

    def unregister(self, name: str) -> None:
        """Remove a registration (primarily for test isolation)."""
        self._items.pop(name, None)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> object:
        """Return the object registered under ``name`` or raise ``ValueError``."""
        try:
            return self._items[name]
        except KeyError:
            known = ", ".join(sorted(self._items)) or "(nothing registered)"
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered: {known}"
            ) from None

    def names(self) -> List[str]:
        """Sorted list of registered names."""
        return sorted(self._items)

    def items(self) -> List[Tuple[str, object]]:
        """``(name, object)`` pairs, sorted by name."""
        return sorted(self._items.items())

    def __contains__(self, name: object) -> bool:
        return name in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()})"
