"""Call-graph slice extraction and project-level resolution."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis import ModuleContext
from repro.analysis.callgraph import (
    MODULE_BODY,
    CallGraph,
    FileSlice,
    build_slice,
    enclosing_function,
)
from repro.analysis.suppress import Suppressions


def make_slice(source: str, *, path: str = "mod_a.py",
               module: str | None = None) -> FileSlice:
    source = textwrap.dedent(source)
    ctx = ModuleContext(path, source, ast.parse(source), module,
                        False, Suppressions.scan(source))
    return build_slice(ctx)


def graph_of(*slices: FileSlice) -> CallGraph:
    return CallGraph.from_slices(list(slices))


def edges(graph: CallGraph) -> set[tuple[str, str]]:
    return {(caller, callee)
            for caller, sites in graph.edges.items()
            for _site, callee in sites}


def test_forward_reference_resolves():
    # ping is defined before pong yet calls it: name binding happens at
    # call time in Python, so both directions must be edges
    graph = graph_of(make_slice("""\
        def ping(n):
            return pong(n)

        def pong(n):
            return ping(n - 1)
    """))
    assert ("mod_a.ping", "mod_a.pong") in edges(graph)
    assert ("mod_a.pong", "mod_a.ping") in edges(graph)


def test_self_method_and_inherited_method():
    graph = graph_of(make_slice("""\
        class Base:
            def shared(self):
                return 1

        class Child(Base):
            def run(self):
                return self.shared() + self.local()

            def local(self):
                return 2
    """))
    got = edges(graph)
    assert ("mod_a.Child.run", "mod_a.Base.shared") in got
    assert ("mod_a.Child.run", "mod_a.Child.local") in got


def test_constructor_resolves_to_init():
    graph = graph_of(make_slice("""\
        class Widget:
            def __init__(self, size):
                self.size = size

        def build():
            return Widget(4)
    """))
    assert ("mod_a.build", "mod_a.Widget.__init__") in edges(graph)


def test_unique_method_fallback_and_ambiguity():
    graph = graph_of(make_slice("""\
        class Transport:
            def connect(self, host):
                return host

        class Codec:
            def encode(self, x):
                return x

        class Other:
            def encode(self, x):
                return x

        def use(t, c):
            t.connect("n0")   # unique across the project: resolved
            c.encode(b"")     # two classes define encode: dropped
    """))
    got = edges(graph)
    assert ("mod_a.use", "mod_a.Transport.connect") in got
    assert not any(callee.endswith(".encode") for _c, callee in got)


def test_cross_file_import_resolution():
    helper = make_slice("""\
        def send_zero_copy(stream, arr):
            stream.write_bulk(arr)
    """, path="helper.py")
    caller = make_slice("""\
        from helper import send_zero_copy

        def run(stream, data):
            send_zero_copy(stream, data)
    """, path="caller.py", module=None)
    graph = graph_of(helper, caller)
    assert ("caller.run", "helper.send_zero_copy") in edges(graph)


def test_enclosing_function_is_innermost():
    sl = make_slice("""\
        def outer():
            def inner():
                return 1
            return inner

        X = 1
    """)
    assert enclosing_function(sl, 3) == "mod_a.outer.inner"
    assert enclosing_function(sl, 4) == "mod_a.outer"
    assert enclosing_function(sl, 6) == f"mod_a.{MODULE_BODY}"


def test_callee_at_site_index():
    sl = make_slice("""\
        def helper():
            return 1

        def run():
            return helper()
    """)
    graph = graph_of(sl)
    (site, callee), = graph.callees("mod_a.run")
    assert callee == "mod_a.helper"
    assert graph.callee_at("mod_a.py", site.line, site.col) == \
        "mod_a.helper"
