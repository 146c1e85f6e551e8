"""IDL lexer, parser and compiler."""

import pytest

from repro.corba.idl import (
    IdlError,
    IdlParseError,
    compile_idl,
    parse_idl,
    tokenize,
)
from repro.corba.idl.types import (
    ObjRefType,
    PrimitiveType,
    SequenceType,
    StringType,
)


def test_tokenize_basics():
    toks = tokenize("module M { interface I; };")
    kinds = [(t.kind, t.value) for t in toks]
    assert kinds[0] == ("keyword", "module")
    assert kinds[1] == ("ident", "M")
    assert kinds[-1] == ("eof", "")


def test_tokenize_comments_and_preproc_skipped():
    toks = tokenize("""
    // a line comment
    /* a block
       comment */
    #include "x.idl"
    module M {};
    """)
    assert toks[0].value == "module"
    assert toks[0].line == 6


def test_tokenize_rejects_garbage():
    with pytest.raises(IdlParseError):
        tokenize("module M { $$$ };")


def test_tokenize_literals():
    toks = tokenize("1 0x1F 2.5 1e3 'c' \"str\"")
    assert [t.kind for t in toks[:-1]] == \
        ["int", "int", "float", "float", "char", "string"]


def test_parse_error_has_position():
    with pytest.raises(IdlParseError) as ei:
        parse_idl("module M {\n  interface {\n};")
    assert ei.value.line == 2


def test_compile_simple_module():
    idl = compile_idl("""
    module Demo {
        struct Point { double x, y; };
        enum Color { RED, GREEN, BLUE };
        typedef sequence<long> LongSeq;
        typedef sequence<long, 16> BoundedSeq;
        exception Oops { string why; };
        interface Thing {
            long op(in long a, inout double b, out string c);
            readonly attribute long count;
        };
    };
    """)
    pt = idl.type("Demo::Point")
    assert [f[0] for f in pt.fields] == ["x", "y"]
    seq = idl.type("Demo::LongSeq")
    assert isinstance(seq, SequenceType)
    assert seq.element == PrimitiveType("long")
    assert idl.type("Demo::BoundedSeq").bound == 16
    thing = idl.interface("Demo::Thing")
    op = thing.operation("op")
    assert [d for _n, d, _t in op.params] == ["in", "inout", "out"]
    assert [n for n, _t in op.in_params] == ["a", "b"]
    assert [n for n, _t in op.out_params] == ["b", "c"]
    assert thing.attributes["count"].readonly
    assert thing.repo_id == "IDL:Demo/Thing:1.0"


def test_interface_inheritance_flattens_operations():
    idl = compile_idl("""
    interface A { void fa(); attribute long x; };
    interface B : A { void fb(); };
    interface C : B { void fc(); };
    """)
    c = idl.interface("C")
    assert set(c.operations) == {"fa", "fb", "fc"}
    assert "x" in c.attributes
    assert c.bases == ["B"]


def test_interface_multiple_inheritance():
    idl = compile_idl("""
    interface A { void fa(); };
    interface B { void fb(); };
    interface AB : A, B {};
    """)
    assert set(idl.interface("AB").operations) == {"fa", "fb"}


def test_cross_module_name_resolution():
    idl = compile_idl("""
    module Base { struct S { long v; }; };
    module App {
        typedef sequence<Base::S> SList;
        interface I { Base::S get(); };
    };
    """)
    slist = idl.type("App::SList")
    assert slist.element is idl.type("Base::S")


def test_relative_resolution_prefers_inner_scope():
    idl = compile_idl("""
    struct S { long outer; };
    module M {
        struct S { long inner; };
        interface I { S get(); };
    };
    """)
    op = idl.interface("M::I").operation("get")
    assert op.return_type is idl.type("M::S")


def test_interface_reference_becomes_objref():
    idl = compile_idl("""
    interface Worker { void run(); };
    interface Factory { Worker create(); };
    """)
    ret = idl.interface("Factory").operation("create").return_type
    assert ret == ObjRefType("Worker")


def test_object_generic_type():
    idl = compile_idl("interface NS { Object resolve(in string n); };")
    ret = idl.interface("NS").operation("resolve").return_type
    assert ret == ObjRefType("")


def test_raises_clause_resolution():
    idl = compile_idl("""
    module M {
        exception E1 { long code; };
        interface I { void f() raises (E1); };
    };
    """)
    op = idl.interface("M::I").operation("f")
    assert op.raises[0] is idl.type("M::E1")


def test_raises_must_name_exception():
    with pytest.raises(IdlError):
        compile_idl("""
        struct NotAnExc { long x; };
        interface I { void f() raises (NotAnExc); };
        """)


def test_unknown_name_rejected():
    with pytest.raises(IdlError):
        compile_idl("interface I { Mystery get(); };")


def test_duplicate_names_rejected():
    with pytest.raises(IdlError):
        compile_idl("struct S { long a; }; struct S { long b; };")


def test_duplicate_operation_rejected():
    with pytest.raises(IdlError):
        compile_idl("interface I { void f(); void f(); };")


def test_oneway_must_be_void():
    with pytest.raises(IdlParseError):
        compile_idl("interface I { oneway long f(); };")


def test_component_declaration():
    idl = compile_idl("""
    module App {
        interface Port1 { void m(); };
        component Worker {
            provides Port1 input;
            uses Port1 output;
            attribute long size;
        };
        home WorkerHome manages Worker {
            factory make(in long size);
        };
    };
    """)
    comp = idl.component("App::Worker")
    assert comp.provides == {"input": "App::Port1"}
    assert comp.uses == {"output": "App::Port1"}
    assert "size" in comp.attributes
    home = idl.home("App::WorkerHome")
    assert home.manages == "App::Worker"
    assert home.factories[0].name == "make"
    assert idl.home_for_component("App::Worker") is home


@pytest.mark.parametrize("construct,source,line", [
    ("union", """module M {
        union U switch (long) { case 1: long a; };
    };""", 2),
    ("const", """module M {
        interface I {
            const long N = 4;
        };
    };""", 3),
    ("eventtype", """module M {
        eventtype E { long n; };
    };""", 2),
    ("emits", """module M {
        component C {
            emits E done;
        };
        eventtype E { long n; };
    };""", 3),
    ("publishes", """module M {
        component C {
            publishes E done;
        };
        eventtype E { long n; };
    };""", 3),
    ("consumes", """module M {
        component C {
            consumes E done;
        };
        eventtype E { long n; };
    };""", 3),
], ids=["union", "const", "eventtype", "emits", "publishes", "consumes"])
def test_removed_constructs_fail_at_their_line(construct, source, line):
    with pytest.raises(IdlError) as ei:
        compile_idl(source)
    assert repr(construct) in str(ei.value)
    assert f"(line {line}," in str(ei.value)


def test_component_inheritance_merges_ports():
    idl = compile_idl("""
    interface P { void m(); };
    component Base { provides P a; };
    component Derived : Base { uses P b; };
    """)
    d = idl.component("Derived")
    assert set(d.all_ports()) == {"a", "b"}


def test_duplicate_port_rejected():
    with pytest.raises(IdlError):
        compile_idl("""
        interface P { void m(); };
        component C { provides P a; uses P a; };
        """)


def test_home_must_manage_component():
    with pytest.raises(IdlError):
        compile_idl("""
        interface I { void f(); };
        home H manages I {};
        """)


def test_nested_interface_types():
    idl = compile_idl("""
    interface I {
        struct Inner { long v; };
        Inner get();
    };
    """)
    inner = idl.type("I::Inner")
    assert idl.interface("I").operation("get").return_type is inner


def test_merge_compiled_units():
    a = compile_idl("struct A { long x; };")
    b = compile_idl("struct B { long y; };")
    a.merge(b)
    assert "B" in a.types
    with pytest.raises(IdlError):
        a.merge(compile_idl("struct B { long z; };"))


def test_string_bounds_and_primitives():
    idl = compile_idl("""
    struct S {
        string<32> name;
        unsigned long long big;
        long long sbig;
        octet o;
        char c;
        boolean flag;
        float f;
    };
    """)
    fields = dict(idl.type("S").fields)
    assert fields["name"] == StringType(32)
    assert fields["big"] == PrimitiveType("unsigned long long")
    assert fields["sbig"] == PrimitiveType("long long")


def test_circular_struct_rejected():
    with pytest.raises(IdlError):
        compile_idl("struct S { sequence<S> kids; };")
