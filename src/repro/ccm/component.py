"""Component executors and the implementation repository.

A :class:`ComponentImpl` subclass is the *executor*: the user code
inside a component (the paper's encapsulated legacy code).  Conventions:

- for each ``provides`` port, define ``provide_<port>()`` returning the
  object implementing the facet's interface (often ``self``);
- IDL attributes map to plain Python attributes;
- the container injects :attr:`context` before activation; use it to
  reach receptacles (``context.get_connection``).

The :class:`ImplementationRepository` stands in for the binary archives
of CCM software packages: deployment descriptors reference an
implementation UUID; component servers look the executor factory up at
install time (the paper's "deployment of components in binary form")."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.ccm.container import CcmContext


class ComponentImpl:
    """Base class for component executors (CCM programming model)."""

    context: "CcmContext"

    # -- lifecycle callbacks (CCM session component) ----------------------
    def ccm_activate(self) -> None:
        """Called once the component is fully connected and configured."""

    def ccm_passivate(self) -> None:
        """Called before the component is disconnected."""

    def ccm_remove(self) -> None:
        """Called when the component is destroyed."""

    def set_session_context(self, context: "CcmContext") -> None:
        self.context = context


class ImplementationRepository:
    """Global registry: implementation UUID → executor factory."""

    _factories: dict[str, tuple[str, Callable[[], ComponentImpl]]] = {}

    @classmethod
    def register(cls, impl_id: str, component: str,
                 factory: Callable[[], ComponentImpl]) -> None:
        """Register ``factory`` as the implementation ``impl_id`` of the
        IDL component type ``component`` (scoped name)."""
        if impl_id in cls._factories:
            raise ValueError(f"implementation {impl_id!r} already registered")
        cls._factories[impl_id] = (component, factory)

    @classmethod
    def lookup(cls, impl_id: str) -> tuple[str, Callable[[], ComponentImpl]]:
        try:
            return cls._factories[impl_id]
        except KeyError:
            raise LookupError(
                f"no implementation {impl_id!r} in the repository "
                f"(known: {sorted(cls._factories)})") from None

    @classmethod
    def unregister(cls, impl_id: str) -> None:
        cls._factories.pop(impl_id, None)

    @classmethod
    def clear(cls) -> None:
        cls._factories.clear()


def implementation(impl_id: str, component: str) -> Callable:
    """Class decorator registering an executor in the repository::

        @implementation("DCE:1234", "App::Chemistry")
        class ChemistryImpl(ComponentImpl): ...
    """
    def wrap(cls: type) -> type:
        ImplementationRepository.register(impl_id, component, cls)
        return cls

    return wrap
