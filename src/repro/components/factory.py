"""Auto-generated component factories (§2.1.2).

"Factory interfaces are needed in CORBA-LC to manage the set of
instances of a component.  Clients can search for a factory of the
required component and ask it for the creation of a component
instance."

The factory interface is defined in IDL and compiled by our IDL
compiler at import time; the servant is generated from the component's
lifecycle description by delegating to the container.
"""

from __future__ import annotations

from repro.idl import compile_idl
from repro.orb.core import Servant

_FACTORY_IDL = """
#pragma prefix "corbalc"
module Framework {
  exception CreationFailed { string reason; };
  exception NoSuchInstance { string instance_id; };

  interface ComponentFactory {
    // Creates an instance; returns its instance id.
    string create_instance(in string name) raises (CreationFailed);
    // IOR of a provided port (facet) of an existing instance.
    Object get_facet(in string instance_id, in string port)
        raises (NoSuchInstance);
    void destroy_instance(in string instance_id) raises (NoSuchInstance);
    sequence<string> instance_ids();
    readonly attribute string component_name;
  };
};
"""

_module = compile_idl(_FACTORY_IDL)
FACTORY_IFACE = _module.Framework.ComponentFactory
CreationFailed = _module.Framework.CreationFailed
NoSuchInstance = _module.Framework.NoSuchInstance


class ComponentFactoryServant(Servant):
    """Factory for one component type, generated over a container.

    The container supplies the actual lifecycle work; the factory tracks
    which instance ids it created (its "set of instances").
    """

    _interface = FACTORY_IFACE

    def __init__(self, container, component_name: str) -> None:
        self._container = container
        self._component_name = component_name
        self._ids: list[str] = []

    # -- IDL operations -----------------------------------------------------
    def create_instance(self, name: str) -> str:
        try:
            instance = self._container.create_instance(
                self._component_name, requested_name=name or None
            )
        except Exception as exc:
            raise CreationFailed(str(exc)) from exc
        self._ids.append(instance.instance_id)
        return instance.instance_id

    def get_facet(self, instance_id: str, port: str):
        instance = self._container.find_instance(instance_id)
        if instance is None:
            raise NoSuchInstance(instance_id)
        from repro.components.ports import PortError
        try:
            return instance.ports.facet(port).ior
        except PortError as exc:
            raise NoSuchInstance(f"{instance_id}: {exc}") from None

    def destroy_instance(self, instance_id: str) -> None:
        if instance_id not in self._ids:
            raise NoSuchInstance(instance_id)
        # The container calls forget() on us during destruction, so the
        # id is gone from our list by the time this returns.
        self._container.destroy_instance(instance_id)

    def instance_ids(self) -> list[str]:
        return list(self._ids)

    def _get_component_name(self) -> str:
        return self._component_name

    # -- local bookkeeping -----------------------------------------------------
    def forget(self, instance_id: str) -> None:
        """Drop an id without destroying (instance migrated away)."""
        if instance_id in self._ids:
            self._ids.remove(instance_id)
