"""Deployment descriptor parsing and validation."""

import pytest

from repro.ccm import (
    AssemblyDescriptor,
    DescriptorError,
    SoftwarePackage,
)

PKG = """
<softpkg name="chemistry" version="1.2">
  <implementation id="DCE:chem-1">
    <component>App::Chemistry</component>
    <os name="Linux"/>
    <processor name="i686"/>
  </implementation>
  <implementation id="DCE:chem-2">
    <component>App::ChemistryMT</component>
  </implementation>
</softpkg>
"""

ASM = """
<componentassembly id="coupling">
  <componentfiles>
    <componentfile id="chem" softpkg="chemistry"/>
    <componentfile id="trans" softpkg="transport"/>
  </componentfiles>
  <instance id="chem0" componentfile="chem" destination="nodeA"/>
  <instance id="trans0" componentfile="trans">
    <constraint label="company-x"/>
  </instance>
  <connection>
    <uses instance="trans0" port="density"/>
    <provides instance="chem0" port="densities"/>
  </connection>
  <property instance="chem0" name="tolerance" type="double" value="0.01"/>
  <property instance="chem0" name="label" value="prod"/>
  <property instance="trans0" name="steps" type="long" value="12"/>
  <property instance="trans0" name="verbose" type="boolean" value="true"/>
</componentassembly>
"""


def test_parse_software_package():
    pkg = SoftwarePackage.parse(PKG)
    assert pkg.name == "chemistry"
    assert pkg.version == "1.2"
    impl = pkg.implementation_for("App::Chemistry")
    assert impl.impl_id == "DCE:chem-1"
    assert impl.os == "Linux"
    assert impl.processor == "i686"
    with pytest.raises(DescriptorError):
        pkg.implementation_for("App::Nothing")


def test_package_requires_implementation():
    with pytest.raises(DescriptorError):
        SoftwarePackage.parse('<softpkg name="x"></softpkg>')
    with pytest.raises(DescriptorError):
        SoftwarePackage.parse(
            '<softpkg name="x"><implementation id="a"/></softpkg>')


def test_parse_assembly():
    asm = AssemblyDescriptor.parse(ASM)
    assert asm.id == "coupling"
    assert asm.componentfiles == {"chem": "chemistry", "trans": "transport"}
    chem0 = asm.instance("chem0")
    assert chem0.destination == "nodeA"
    trans0 = asm.instance("trans0")
    assert trans0.destination is None
    assert trans0.constraints == ("company-x",)
    [iface] = asm.connections
    assert (iface.user_instance, iface.user_port) == ("trans0", "density")
    assert (iface.provider_instance, iface.provider_port) == \
        ("chem0", "densities")
    props = {(i, n): v for i, n, v in asm.properties}
    assert props[("chem0", "tolerance")] == 0.01
    assert props[("chem0", "label")] == "prod"
    assert props[("trans0", "steps")] == 12
    assert props[("trans0", "verbose")] is True


@pytest.mark.parametrize("bad,msg", [
    ("<wrongroot/>", "expected"),
    ("<componentassembly/>", "missing attribute"),
    ("""<componentassembly id="a">
        <instance id="i" componentfile="ghost"/>
        </componentassembly>""", "unknown componentfile"),
    ("""<componentassembly id="a">
        <componentfiles><componentfile id="c" softpkg="p"/></componentfiles>
        <instance id="i" componentfile="c"/>
        <instance id="i" componentfile="c"/>
        </componentassembly>""", "duplicate instance"),
    ("""<componentassembly id="a">
        <componentfiles><componentfile id="c" softpkg="p"/></componentfiles>
        <instance id="i" componentfile="c"/>
        <connection>
          <uses instance="ghost" port="p"/>
          <provides instance="i" port="q"/>
        </connection>
        </componentassembly>""", "unknown instance"),
    ("""<componentassembly id="a">
        <componentfiles><componentfile id="c" softpkg="p"/></componentfiles>
        <instance id="i" componentfile="c"/>
        <property instance="ghost" name="x" value="1"/>
        </componentassembly>""", "unknown instance"),
    ("not xml at all <", "malformed"),
    ("""<componentassembly id="a">
        <componentfiles><componentfile id="c" softpkg="p"/></componentfiles>
        <instance id="i" componentfile="c"/>
        <instance id="j" componentfile="c"/>
        <connectevent>
          <emitter instance="i" port="done"/>
          <consumer instance="j" port="tick"/>
        </connectevent>
        </componentassembly>""", "(<connectevent>) are not supported"),
])
def test_assembly_validation_errors(bad, msg):
    with pytest.raises(DescriptorError) as ei:
        AssemblyDescriptor.parse(bad)
    assert msg in str(ei.value)


def test_unsupported_property_type():
    with pytest.raises(DescriptorError):
        AssemblyDescriptor.parse("""
        <componentassembly id="a">
          <componentfiles><componentfile id="c" softpkg="p"/></componentfiles>
          <instance id="i" componentfile="c"/>
          <property instance="i" name="x" type="matrix" value="1"/>
        </componentassembly>""")
