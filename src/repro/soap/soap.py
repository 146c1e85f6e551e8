"""Minimal SOAP 1.1-style RPC: XML envelopes over VLink.

Value mapping: int/float/bool/str/None, lists, dicts with string keys,
and 1D numeric numpy arrays (encoded as whitespace-separated text —
deliberately faithful to how early SOAP toolkits shipped arrays, and the
reason Web Services lose the Figure-7 race so badly)."""

from __future__ import annotations

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

def _encode_value(parent: ET.Element, name: str, value: Any) -> None:
    el = ET.SubElement(parent, name)
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
        el.text = value
    elif isinstance(value, np.ndarray):
        el.set("type", "enc:Array")
        el.set("arrayType", str(value.dtype))
        el.text = " ".join(repr(float(x)) for x in value.ravel())
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
        dtype = el.get("arrayType", "f8")
        if not text.strip():
            return np.zeros(0, dtype=dtype)
        return np.array([float(x) for x in text.split()], dtype=dtype)
    if kind == "enc:List":
        return [_decode_value(child) for child in el]
    if kind == "enc:Struct":
        return {child.tag: _decode_value(child) for child in el}
    raise SoapError(f"unknown xsi:type {kind!r}")


def encode_envelope(operation: str, payload: dict[str, Any],
                    fault: tuple[str, str] | None = None) -> bytes:
    """Build a SOAP envelope; ``fault`` makes it a Fault response."""
    env = ET.Element("Envelope")
    body = ET.SubElement(env, "Body")
    if fault is not None:
        f = ET.SubElement(body, "Fault")
        ET.SubElement(f, "faultcode").text = fault[0]
        ET.SubElement(f, "faultstring").text = fault[1]
    else:
        op = ET.SubElement(body, operation)
        for name, value in payload.items():
            _encode_value(op, name, value)
    return ET.tostring(env)


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
            return encode_envelope("Fault", {},
                                   fault=(f.faultcode, f.faultstring))
        except Exception as exc:  # noqa: BLE001 → server fault
            return encode_envelope(
                "Fault", {}, fault=("soap:Server",
                                    f"{type(exc).__name__}: {exc}"))


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
