"""Command-line tools (idlc, gridccm_gen)."""

import pytest

from repro.tools import gridccm_gen, idlc

IDL = """
module T {
    typedef sequence<double> Vec;
    exception Bad { string why; };
    interface Svc {
        double f(in Vec v) raises (Bad);
        readonly attribute long count;
    };
    component Comp { provides Svc port0; };
    home CompHome manages Comp {};
};
"""

XML = """
<parallelism component="T::Comp">
  <port name="port0">
    <operation name="f">
      <argument name="v" distribution="block"/>
      <result policy="sum"/>
    </operation>
  </port>
</parallelism>
"""


def test_idlc_summary(tmp_path, capsys):
    f = tmp_path / "t.idl"
    f.write_text(IDL)
    assert idlc.main([str(f)]) == 0
    out = capsys.readouterr().out
    assert "T::Svc" in out
    assert "double f(in sequence<double> v) raises(T::Bad)" in out
    assert "readonly attribute long count" in out
    assert "provides T::Svc port0" in out
    assert "T::CompHome manages T::Comp" in out


def test_idlc_repo_ids(tmp_path, capsys):
    f = tmp_path / "t.idl"
    f.write_text(IDL)
    assert idlc.main([str(f), "--repo-ids"]) == 0
    assert "[IDL:T/Svc:1.0]" in capsys.readouterr().out


def test_idlc_multiple_files_and_errors(tmp_path, capsys):
    a = tmp_path / "a.idl"
    a.write_text("struct A { long x; };")
    b = tmp_path / "b.idl"
    b.write_text("struct B { long y; };")
    assert idlc.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "A = struct A" in out and "B = struct B" in out

    bad = tmp_path / "bad.idl"
    bad.write_text("interface { broken")
    assert idlc.main([str(bad)]) == 1
    assert "bad.idl" in capsys.readouterr().err

    assert idlc.main([str(tmp_path / "missing.idl")]) == 2


def test_gridccm_gen_stdout(tmp_path, capsys):
    fi = tmp_path / "t.idl"
    fi.write_text(IDL)
    fx = tmp_path / "p.xml"
    fx.write_text(XML)
    assert gridccm_gen.main([str(fi), str(fx)]) == 0
    out = capsys.readouterr().out
    assert "interface GridCCM_Svc" in out
    assert "gridccm_request" in out
    assert "sequence<double> v_chunk" in out
    assert "GridCCMProxy_Svc : T::Svc" in out


def test_gridccm_gen_output_file(tmp_path):
    fi = tmp_path / "t.idl"
    fi.write_text(IDL)
    fx = tmp_path / "p.xml"
    fx.write_text(XML)
    dest = tmp_path / "gen.idl"
    assert gridccm_gen.main([str(fi), str(fx), "-o", str(dest)]) == 0
    assert "GridCCM_Svc" in dest.read_text()


def test_gridccm_gen_bad_inputs(tmp_path, capsys):
    fi = tmp_path / "t.idl"
    fi.write_text(IDL)
    fx = tmp_path / "p.xml"
    fx.write_text(XML.replace("port0", "ghostport"))
    assert gridccm_gen.main([str(fi), str(fx)]) == 1
    assert "no provides port" in capsys.readouterr().err
    assert gridccm_gen.main([str(fi), str(tmp_path / "nope.xml")]) == 2
