"""The CCM equivalent interfaces (Components module).

Every component instance is reachable through a ``CCMObject`` reference
offering generic navigation (facets), connection management
(receptacles) and attribute configuration — the runtime face of the CCM
abstract model.  Homes and component servers are plain CORBA objects
too, so the whole deployment machinery runs over GIOP."""

from __future__ import annotations

from repro.corba.idl.compiler import CompiledIdl, compile_idl

COMPONENTS_IDL = """
module Components {
    exception InvalidName { string name; };
    exception InvalidConnection { string why; };
    exception AlreadyConnected { string port; };
    exception NoConnection { string port; };
    exception CreateFailure { string why; };

    interface CCMObject {
        Object provide_facet(in string name) raises (InvalidName);
        void connect(in string name, in Object target)
            raises (InvalidName, AlreadyConnected, InvalidConnection);
        void disconnect(in string name)
            raises (InvalidName, NoConnection);
        void configure(in string name, in any value) raises (InvalidName);
        any get_attribute(in string name) raises (InvalidName);
        string component_type();
        void configuration_complete();
        void remove();
    };

    interface CCMHome {
        CCMObject create() raises (CreateFailure);
        void remove_component(in CCMObject comp);
    };

    interface ComponentServer {
        CCMHome install_home(in string component_type, in string impl_id)
            raises (CreateFailure);
        sequence<string> installed_homes();
    };
};
"""


def components_idl() -> CompiledIdl:
    """A fresh compiled copy of the Components module."""
    return compile_idl(COMPONENTS_IDL)
