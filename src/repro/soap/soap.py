"""Minimal SOAP 1.1-style RPC: XML envelopes over VLink.

Value mapping: int/float/bool/str/None, lists, dicts with string keys,
and boolean, integer or floating numpy arrays of any shape (encoded as
whitespace-separated text — deliberately faithful to how early SOAP
toolkits shipped arrays, and the reason Web Services lose the Figure-7
race so badly).

A value either round-trips exactly or :func:`encode_envelope` raises
:class:`SoapError` naming it: strings may hold only XML 1.0 characters
(``'\r'`` travels as a character reference, so end-of-line
normalisation cannot turn it into ``'\n'``), names must be XML names,
and an array keeps its shape and dtype (integers are written as
integers, never through a float).  Two normalisations are by design: a
tuple arrives as a list, and a numpy scalar as the Python scalar of its
kind."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.padicotm.abstraction.vlink import VLink
from repro.padicotm.modules import PadicoModule
from repro.sim.kernel import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess

#: CPU cost of text (de)serialisation, per payload byte and side.
#: Roughly 10× CDR copying cost: printf/strtod per value.
SOAP_TEXT_COST = 7.0e-8

#: per-message envelope processing overhead, per side
SOAP_CALL_OVERHEAD = 80e-6


class SoapError(RuntimeError):
    """Malformed SOAP message or transport failure."""


class SoapFault(RuntimeError):
    """A SOAP Fault returned by the server."""

    def __init__(self, faultcode: str, faultstring: str):
        super().__init__(f"{faultcode}: {faultstring}")
        self.faultcode = faultcode
        self.faultstring = faultstring


# ---------------------------------------------------------------------------
# envelope codec
# ---------------------------------------------------------------------------

#: a character outside XML 1.0's ``Char`` production
_NOT_XML_CHAR = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
_NAME_START = ("A-Z_a-z\xc0-\xd6\xd8-\xf6\xf8-\u02ff\u0370-\u037d"
               "\u037f-\u1fff\u200c\u200d\u2070-\u218f\u2c00-\u2fef"
               "\u3001-\ud7ff\uf900-\ufdcf\ufdf0-\ufffd"
               "\U00010000-\U000effff")
#: an XML name without a colon (a colon would need a namespace)
_XML_NAME = re.compile(
    f"[{_NAME_START}][{_NAME_START}\\-.0-9\xb7\u0300-\u036f"
    f"\u203f\u2040]*")


def _xml_text(text: str) -> str:
    bad = _NOT_XML_CHAR.search(text)
    if bad is not None:
        raise SoapError(f"character {bad.group()!r} of {text!r} is not "
                        f"allowed in XML")
    return text


def _element(parent: ET.Element, name: str) -> ET.Element:
    if _XML_NAME.fullmatch(name) is None:
        raise SoapError(f"{name!r} is not an XML name")
    return ET.SubElement(parent, name)


def _encode_value(parent: ET.Element, name: str, value: Any) -> None:
    el = _element(parent, name)
    if value is None:
        el.set("nil", "true")
    elif isinstance(value, bool):
        el.set("type", "xsd:boolean")
        el.text = "true" if value else "false"
    elif isinstance(value, (int, np.integer)):
        el.set("type", "xsd:int")
        el.text = str(int(value))
    elif isinstance(value, (float, np.floating)):
        el.set("type", "xsd:double")
        el.text = repr(float(value))
    elif isinstance(value, str):
        el.set("type", "xsd:string")
        el.text = _xml_text(value)
    elif isinstance(value, np.ndarray):
        # booleans, integers and floats no wider than a double are
        # the elements the text carries exactly
        if value.dtype.kind not in "biuf" or value.dtype.itemsize > 8:
            raise SoapError(f"cannot encode a {value.dtype} array as SOAP")
        el.set("type", "enc:Array")
        el.set("arrayType", str(value.dtype))
        if value.ndim != 1:
            el.set("arrayShape", " ".join(map(str, value.shape)))
        number = int if value.dtype.kind in "iu" else float
        el.text = " ".join(repr(number(x)) for x in value.ravel())
    elif isinstance(value, (list, tuple)):
        el.set("type", "enc:List")
        for item in value:
            _encode_value(el, "item", item)
    elif isinstance(value, dict):
        el.set("type", "enc:Struct")
        for key, item in value.items():
            if not isinstance(key, str):
                raise SoapError(f"struct keys must be strings, got {key!r}")
            _encode_value(el, key, item)
    else:
        raise SoapError(f"cannot encode {type(value).__name__} as SOAP")


def _decode_value(el: ET.Element) -> Any:
    if el.get("nil") == "true":
        return None
    kind = el.get("type", "xsd:string")
    text = el.text or ""
    if kind == "xsd:boolean":
        return text == "true"
    if kind == "xsd:int":
        return int(text)
    if kind == "xsd:double":
        return float(text)
    if kind == "xsd:string":
        return text
    if kind == "enc:Array":
        dtype = np.dtype(el.get("arrayType", "f8"))
        shape = tuple(int(n) for n in el.get("arrayShape", "-1").split())
        number = int if dtype.kind in "iu" else float
        return np.array([number(x) for x in text.split()],
                        dtype=dtype).reshape(shape)
    if kind == "enc:List":
        return [_decode_value(child) for child in el]
    if kind == "enc:Struct":
        return {child.tag: _decode_value(child) for child in el}
    raise SoapError(f"unknown xsi:type {kind!r}")


def encode_envelope(operation: str, payload: dict[str, Any],
                    fault: tuple[str, str] | None = None) -> bytes:
    """Build a SOAP envelope; ``fault`` makes it a Fault response.

    Raises :class:`SoapError` for anything the envelope could not carry
    back exactly (see the module docstring)."""
    env = ET.Element("Envelope")
    body = ET.SubElement(env, "Body")
    if fault is not None:
        f = ET.SubElement(body, "Fault")
        ET.SubElement(f, "faultcode").text = _xml_text(fault[0])
        ET.SubElement(f, "faultstring").text = _xml_text(fault[1])
    elif operation == "Fault":
        raise SoapError("operation 'Fault' would decode as a fault")
    else:
        op = _element(body, operation)
        for name, value in payload.items():
            _encode_value(op, name, value)
    # element text is the one place a raw CR can be: a character
    # reference keeps it from being normalised to LF when parsed
    return ET.tostring(env).replace(b"\r", b"&#13;")


def decode_envelope(data: bytes) -> tuple[str, dict[str, Any]]:
    """Parse an envelope → ``(operation, payload)``; raises SoapFault."""
    try:
        env = ET.fromstring(data)
    except ET.ParseError as exc:
        raise SoapError(f"malformed envelope: {exc}") from exc
    body = env.find("Body")
    if body is None or len(body) != 1:
        raise SoapError("envelope must contain exactly one body element")
    op = body[0]
    if op.tag == "Fault":
        raise SoapFault(op.findtext("faultcode", "soap:Server"),
                        op.findtext("faultstring", ""))
    return op.tag, {child.tag: _decode_value(child) for child in op}


# ---------------------------------------------------------------------------
# RPC endpoints
# ---------------------------------------------------------------------------

class SoapModule(PadicoModule):
    """gSOAP as a loadable PadicoTM module."""

    name = "soap/gsoap-2.x"
    thread_policy = "pthread"


class SoapServer:
    """Serves registered handlers at the process's ``http`` VLink port."""

    def __init__(self, process: "PadicoProcess"):
        if not process.modules.is_loaded(SoapModule.name):
            process.modules.load(SoapModule())
        self.process = process
        self._handlers: dict[str, Callable] = {}
        self._listener = VLink.listen(process, "http")
        process.spawn(self._acceptor, name="soap-acceptor", daemon=True)

    def register(self, operation: str, handler: Callable) -> None:
        """``handler(**payload) -> result-payload dict``."""
        if operation in self._handlers:
            raise SoapError(f"operation {operation!r} already registered")
        self._handlers[operation] = handler

    @property
    def url(self) -> str:
        return f"soap://{self.process.name}/http"

    # -- internals ------------------------------------------------------------
    def _acceptor(self, proc: SimProcess) -> None:
        while True:
            endpoint = self._listener.accept(proc)
            self.process.spawn(self._serve, endpoint, name="soap-conn",
                               daemon=True)

    def _serve(self, proc: SimProcess, endpoint) -> None:
        while True:
            item = endpoint.recv(proc)
            if item is None:
                endpoint.close()
                return
            data, nbytes = item
            proc.sleep(SOAP_CALL_OVERHEAD + nbytes * SOAP_TEXT_COST)
            reply = self._dispatch(data)
            proc.sleep(len(reply) * SOAP_TEXT_COST)
            endpoint.send(proc, reply, float(len(reply)))

    def _dispatch(self, data: bytes) -> bytes:
        try:
            operation, payload = decode_envelope(data)
            handler = self._handlers.get(operation)
            if handler is None:
                return encode_envelope(
                    operation, {}, fault=("soap:Client",
                                          f"unknown operation {operation}"))
            result = handler(**payload)
            return encode_envelope(f"{operation}Response", result or {})
        except SoapFault as f:
            fault = (f.faultcode, f.faultstring)
        except Exception as exc:  # noqa: BLE001 → server fault
            fault = ("soap:Server", f"{type(exc).__name__}: {exc}")
        # the fault always goes back: a character XML cannot carry in
        # its text becomes U+FFFD
        return encode_envelope("Fault", {}, fault=tuple(
            _NOT_XML_CHAR.sub("\ufffd", text) for text in fault))


class SoapClient:
    """Connects to a :class:`SoapServer` and issues calls."""

    def __init__(self, process: "PadicoProcess", url: str):
        if not process.modules.is_loaded(SoapModule.name):
            process.modules.load(SoapModule())
        if not url.startswith("soap://"):
            raise SoapError(f"bad SOAP url {url!r}")
        target, _, port = url[len("soap://"):].partition("/")
        self.process = process
        self.target = target
        self.port = port or "http"
        self._endpoint = None

    def call(self, proc: SimProcess, operation: str,
             **payload: Any) -> dict[str, Any]:
        """Invoke ``operation``; returns the response payload dict."""
        if self._endpoint is None or self._endpoint.closed:
            self._endpoint = VLink.connect(proc, self.process, self.target,
                                           self.port)
        request = encode_envelope(operation, payload)
        proc.sleep(SOAP_CALL_OVERHEAD + len(request) * SOAP_TEXT_COST)
        self._endpoint.send(proc, request, float(len(request)))
        item = self._endpoint.recv(proc)
        if item is None:
            raise SoapError("connection closed mid-call")
        data, nbytes = item
        proc.sleep(nbytes * SOAP_TEXT_COST)
        op, result = decode_envelope(data)
        if op != f"{operation}Response":
            raise SoapError(f"unexpected response {op!r}")
        return result

    def close(self) -> None:
        if self._endpoint is not None:
            self._endpoint.close()
