"""GridCCM compiler: parallelism XML + internal interface generation."""

import pytest

from repro.core import (
    GridCcmCompiler,
    ParallelismDescriptor,
    ParallelismError,
)
from repro.corba import compile_idl
from repro.corba.idl.types import ObjRefType, SequenceType, StringType

IDL = """
module App {
    typedef sequence<double> Vector;
    struct Meta { string name; };
    exception Full { long used; };
    interface Compute {
        double norm2(in Vector values);
        void store(in Vector values, in string tag) raises (Full);
        Vector scale(in Vector values, in double factor);
        void notag(in Meta m);
        oneway void fire(in Vector values);
        void outparam(in Vector values, out long n);
    };
    component Solver {
        provides Compute input;
        uses Compute peer;
    };
    home SolverHome manages Solver {};
};
"""

XML = """
<parallelism component="App::Solver">
  <port name="input">
    <operation name="norm2">
      <argument name="values" distribution="block"/>
      <result policy="sum"/>
    </operation>
    <operation name="store">
      <argument name="values" distribution="cyclic"/>
      <result policy="none"/>
    </operation>
  </port>
</parallelism>
"""


def _compile(xml=XML):
    idl = compile_idl(IDL)
    desc = ParallelismDescriptor.parse(xml)
    return idl, GridCcmCompiler(idl, desc).compile()


def test_descriptor_parsing():
    desc = ParallelismDescriptor.parse(XML)
    assert desc.component == "App::Solver"
    assert desc.ports() == ["input"]
    spec = desc.spec_for("input", "norm2")
    assert spec.result_policy == "sum"
    assert spec.args[0].distribution == "block"
    assert desc.spec_for("input", "store").args[0].distribution == "cyclic"
    assert desc.spec_for("input", "nope") is None


@pytest.mark.parametrize("bad_xml,msg", [
    ("<nope/>", "expected <parallelism>"),
    ("<parallelism/>", "component name"),
    ('<parallelism component="C"/>', "no parallel operations"),
    ('<parallelism component="C"><port><operation name="x"/></port>'
     '</parallelism>', "needs a name"),
    ('<parallelism component="C"><port name="p">'
     '<operation name="x"><argument name="a" distribution="hexagonal"/>'
     '</operation></port></parallelism>', "unknown distribution"),
    ('<parallelism component="C"><port name="p">'
     '<operation name="x"><argument name="a" '
     'distribution="block-cyclic"/></operation></port></parallelism>',
     "blocksize"),
    ("garbage<", "malformed"),
])
def test_descriptor_validation(bad_xml, msg):
    with pytest.raises(ParallelismError) as ei:
        ParallelismDescriptor.parse(bad_xml)
    assert msg in str(ei.value)


def test_internal_interface_shape():
    idl, plan = _compile()
    internal = plan.internal_interfaces["input"]
    assert internal.scoped_name == "App::GridCCM_Compute"
    assert internal.scoped_name in idl.interfaces  # registered
    op = internal.operations["norm2"]
    names = [n for n, _d, _t in op.params]
    assert names == ["gridccm_request", "gridccm_src_rank",
                     "gridccm_src_parts", "gridccm_expected",
                     "values_total", "values_chunk"]
    # the chunk keeps the user's sequence type
    chunk_t = dict((n, t) for n, _d, t in op.params)["values_chunk"]
    assert isinstance(chunk_t, SequenceType)
    # plain args pass through untouched
    store = internal.operations["store"]
    store_names = [n for n, _d, _t in store.params]
    assert store_names[-1] == "tag"
    assert isinstance(dict((n, t) for n, _d, t in store.params)["tag"],
                      StringType)


def test_proxy_interface_extends_original():
    idl, plan = _compile()
    proxy = plan.proxy_interfaces["input"]
    assert proxy.bases == ["App::Compute"]
    assert "norm2" in proxy.operations      # inherited: sequential clients
    assert "gridccm_size" in proxy.operations
    node_op = proxy.operations["gridccm_node"]
    assert node_op.return_type == ObjRefType("App::GridCCM_Compute")


def test_emit_internal_idl_text():
    _idl, plan = _compile()
    text = plan.emit_internal_idl()
    assert "module App {\n// internal interface for port 'input'" in text
    assert "interface GridCCM_Compute" in text
    assert "gridccm_request" in text
    assert "sequence<double> values_chunk" in text
    assert "in string tag) raises (App::Full);" in text
    assert "interface GridCCMProxy_Compute : App::Compute" in text
    assert "App::GridCCM_Compute gridccm_node(in unsigned long rank);" \
        in text


def test_emitted_idl_compiles_to_the_plan():
    """The Figure 5 text is the runtime's model: compiled next to the
    original IDL it yields the plan's internal and proxy interfaces."""
    _idl, plan = _compile()
    recompiled = compile_idl(IDL + plan.emit_internal_idl())
    generated = [*plan.internal_interfaces.values(),
                 *plan.proxy_interfaces.values()]
    assert len(generated) == 2
    for idef in generated:
        got = recompiled.interface(idef.scoped_name)
        assert (got.repo_id, got.bases) == (idef.repo_id, idef.bases)
        assert list(got.operations) == list(idef.operations)
        for name, op in idef.operations.items():
            mine = got.operations[name]
            assert mine.params == op.params
            assert mine.return_type == op.return_type
            assert mine.raises == op.raises


def test_emit_internal_idl_keeps_sequence_bounds():
    # the generated IDL is what a real ORB would compile: a bounded
    # sequence must stay bounded there, at every depth
    idl = compile_idl("""
    module B {
        typedef sequence<sequence<double,4> > Rows;
        interface Tagged { void put(in Rows rows, in sequence<long,10> ids); };
        component C { provides Tagged input; };
        home H manages C {};
    };
    """)
    desc = ParallelismDescriptor.parse("""
    <parallelism component="B::C">
      <port name="input">
        <operation name="put">
          <argument name="rows" distribution="block"/>
          <result policy="none"/>
        </operation>
      </port>
    </parallelism>
    """)
    text = GridCcmCompiler(idl, desc).compile().emit_internal_idl()
    assert "in sequence<sequence<double,4>> rows_chunk" in text
    assert "in sequence<long,10> ids" in text


def test_original_interface_untouched():
    """Paper constraint: 'the IDL is not modified'."""
    idl, plan = _compile()
    original = idl.interface("App::Compute")
    op = original.operations["norm2"]
    assert [n for n, _d, _t in op.params] == ["values"]


@pytest.mark.parametrize("xml,msg", [
    # unknown port
    ('<parallelism component="App::Solver"><port name="ghost">'
     '<operation name="norm2"><argument name="values"/></operation>'
     '</port></parallelism>', "no provides port"),
    # uses port is not a provides port
    ('<parallelism component="App::Solver"><port name="peer">'
     '<operation name="norm2"><argument name="values"/></operation>'
     '</port></parallelism>', "no provides port"),
    # unknown operation
    ('<parallelism component="App::Solver"><port name="input">'
     '<operation name="ghost"><argument name="values"/></operation>'
     '</port></parallelism>', "no operation"),
    # unknown argument
    ('<parallelism component="App::Solver"><port name="input">'
     '<operation name="norm2"><argument name="ghost"/></operation>'
     '</port></parallelism>', "no parameter"),
    # non-sequence argument
    ('<parallelism component="App::Solver"><port name="input">'
     '<operation name="notag"><argument name="m"/></operation>'
     '</port></parallelism>', "only sequences"),
    # oneway op
    ('<parallelism component="App::Solver"><port name="input">'
     '<operation name="fire"><argument name="values"/></operation>'
     '</port></parallelism>', "oneway"),
    # out param
    ('<parallelism component="App::Solver"><port name="input">'
     '<operation name="outparam"><argument name="values"/></operation>'
     '</port></parallelism>', "out/inout"),
    # sum on void
    ('<parallelism component="App::Solver"><port name="input">'
     '<operation name="store"><argument name="values"/>'
     '<result policy="sum"/></operation></port></parallelism>',
     "'sum' on a void"),
    # concat on scalar
    ('<parallelism component="App::Solver"><port name="input">'
     '<operation name="norm2"><argument name="values"/>'
     '<result policy="concat"/></operation></port></parallelism>',
     "'concat' needs a sequence"),
    # no distributed argument at all
    ('<parallelism component="App::Solver"><port name="input">'
     '<operation name="norm2"/></port></parallelism>',
     "at least one distributed"),
])
def test_compiler_rejects_invalid_specs(xml, msg):
    idl = compile_idl(IDL)
    desc = ParallelismDescriptor.parse(xml)
    with pytest.raises(ParallelismError) as ei:
        GridCcmCompiler(idl, desc).compile()
    assert msg in str(ei.value)


def test_unknown_component_rejected():
    idl = compile_idl(IDL)
    desc = ParallelismDescriptor.parse(
        XML.replace("App::Solver", "App::Ghost"))
    from repro.corba.idl import IdlError
    with pytest.raises(IdlError):
        GridCcmCompiler(idl, desc).compile()
