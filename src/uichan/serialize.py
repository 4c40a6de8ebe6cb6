"""JSON wire formats for matrices, models, channels, behaviours and strategies.

Matrices travel as ``{"dim": d, "re": [...], "im": [...]}`` with row-major
entry lists; vectors reuse the same container with ``dim`` equal to their
length.  Doubles round-trip exactly through the shortest-repr decimal
serialization the ``json`` module writes.

Files are read with ``orjson`` (``read_json``): strict JSON in UTF-8, without
a byte order mark, ``NaN`` or ``Infinity`` literals or numbers beyond the
double range, nested at most ``MAX_NESTING`` levels deep.
Text is written in pieces, so that an output document goes to its file
without a whole copy in memory, and it is the text ``json.dumps`` writes.  A
list of plain floats is written ``FLOAT_SLICE`` entries at a time with
``orjson``, whose shortest digits equal ``float.__repr__``'s; only where
``repr`` switches to exponent form, at magnitudes below 1e-4 or from 1e16 up,
does ``orjson`` write another form (``1e-05`` as ``0.00001``, ``1e+16`` as
``1e16``), so those entries are written with ``repr``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Any, Callable, Iterator

import numpy as np
import orjson

from .bell import Behaviour
from .channels import ChannelFamily
from .errors import DimensionMismatchError
from .models import CommutingModel, PVMFamily, TensorModel


class SchemaError(ValueError):
    """A JSON document does not match the expected wire format."""


def _size(doc: dict[str, Any], key: str) -> int:
    """The size field ``doc[key]``, which must be a JSON integer: no float, string or bool."""
    value = doc[key]
    if type(value) is not int:
        raise SchemaError(f"{key} must be a JSON integer, got {value!r:.40}")
    return value


def matrix_to_json(M: np.ndarray) -> dict[str, Any]:
    A = np.asarray(M, dtype=complex)
    if A.ndim == 1:
        dim = A.shape[0]
    elif A.ndim == 2 and A.shape[0] == A.shape[1]:
        dim = A.shape[0]
    else:
        raise DimensionMismatchError(f"expected vector or square matrix, got shape {A.shape}")
    flat = A.reshape(-1)
    return {"dim": int(dim), "re": flat.real.tolist(), "im": flat.imag.tolist()}


def matrix_from_json(doc: dict[str, Any]) -> np.ndarray:
    try:
        dim = _size(doc, "dim")
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad matrix document: {exc}") from exc
    if re.shape != im.shape or re.ndim != 1:
        raise SchemaError("re/im must be flat lists of equal length")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise SchemaError("matrix has non-finite entries")
    flat = np.empty(re.shape, dtype=complex)
    flat.real, flat.imag = re, im  # re + 1j * im would turn -0.0 parts into +0.0
    if flat.size == dim * dim:
        return flat.reshape(dim, dim)
    if flat.size == dim:
        return flat  # vector form
    raise SchemaError(f"entry count {flat.size} matches neither dim^2 nor dim for dim={dim}")


def _state_to_json(state: np.ndarray) -> dict[str, Any]:
    kind = "vector" if state.ndim == 1 else "density"
    return {"type": kind, "matrix": matrix_to_json(state)}


def _state_from_json(doc: dict[str, Any]) -> np.ndarray:
    try:
        kind = doc["type"]
        mat = matrix_from_json(doc["matrix"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad state document: {exc}") from exc
    if kind == "vector":
        if mat.ndim == 2:
            if mat.shape != (1, 1):
                raise SchemaError("vector state must serialize dim entries")
            return mat.reshape(1)  # dim = 1 is ambiguous between dim and dim^2 entries
        return mat
    if kind == "density":
        if mat.ndim != 2:
            raise SchemaError("density state must serialize dim^2 entries")
        return mat
    raise SchemaError(f"unknown state type {kind!r}")


def model_to_json(model: TensorModel | CommutingModel) -> dict[str, Any]:
    if isinstance(model, TensorModel):
        head = {"kind": "tensor", "n": model.n, "m": model.m, "dA": model.dA, "dB": model.dB}
    else:
        head = {"kind": "commuting", "n": model.n, "m": model.m, "d": model.d}
    return {**head, "state": _state_to_json(model.state),
            "U": [matrix_to_json(M) for M in model.U],
            "V": [matrix_to_json(M) for M in model.V]}


def model_from_json(doc: dict[str, Any]) -> TensorModel | CommutingModel:
    try:
        kind = doc["kind"]
        n, m = _size(doc, "n"), _size(doc, "m")
        state = _state_from_json(doc["state"])
        U = tuple(matrix_from_json(d) for d in doc["U"])
        V = tuple(matrix_from_json(d) for d in doc["V"])
        if kind == "tensor":
            return TensorModel(n=n, m=m, dA=_size(doc, "dA"), dB=_size(doc, "dB"),
                               state=state, U=U, V=V)
        if kind == "commuting":
            return CommutingModel(n=n, m=m, d=_size(doc, "d"), state=state, U=U, V=V)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad model document: {exc}") from exc
    raise SchemaError(f"unknown model kind {kind!r}")


def strategy_to_json(alice: PVMFamily, bob: PVMFamily, state: np.ndarray) -> dict[str, Any]:
    return {
        "n": alice.n, "m": alice.m, "dA": alice.d, "dB": bob.d,
        "P": [[matrix_to_json(P) for P in row] for row in alice.projectors],
        "Q": [[matrix_to_json(Q) for Q in row] for row in bob.projectors],
        "state": _state_to_json(state),
    }


def strategy_from_json(doc: dict[str, Any]) -> tuple[PVMFamily, PVMFamily, np.ndarray]:
    try:
        n, m = _size(doc, "n"), _size(doc, "m")
        alice = PVMFamily(d=_size(doc, "dA"), m=m, n=n, projectors=tuple(
            tuple(matrix_from_json(P) for P in row) for row in doc["P"]))
        bob = PVMFamily(d=_size(doc, "dB"), m=m, n=n, projectors=tuple(
            tuple(matrix_from_json(Q) for Q in row) for row in doc["Q"]))
        state = _state_from_json(doc["state"])
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad strategy document: {exc}") from exc
    return alice, bob, state


def channel_to_json(channel: ChannelFamily) -> dict[str, Any]:
    return {
        "n": channel.n, "m": channel.m,
        "super": [[matrix_to_json(S) for S in row] for row in channel.supers],
    }


def channel_from_json(doc: dict[str, Any]) -> ChannelFamily:
    try:
        n, m = _size(doc, "n"), _size(doc, "m")
        supers = tuple(tuple(matrix_from_json(S) for S in row) for row in doc["super"])
        return ChannelFamily(n=n, m=m, supers=supers)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad channel document: {exc}") from exc


def behaviour_to_json(behaviour: Behaviour) -> dict[str, Any]:
    return {"n": behaviour.n, "m": behaviour.m, "p": behaviour.p.tolist()}


def table_from_json(doc: dict[str, Any]) -> np.ndarray:
    """Nested-real [a][b][x][y] table; shared by behaviours and functionals."""
    try:
        n, m = _size(doc, "n"), _size(doc, "m")
        t = np.asarray(doc["p"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad table document: {exc}") from exc
    if t.shape != (n, n, m, m):
        raise SchemaError(f"table shape {t.shape} does not match n={n}, m={m}")
    if not np.isfinite(t).all():
        raise SchemaError("table has non-finite entries")
    return t


FLOAT_SLICE = 4096  # floats per orjson call and per piece when a list of floats is written


def dumps(doc: Any, indent: int | None = 2) -> str:
    """``json.dumps(doc, indent=indent, allow_nan=False)``, byte for byte.

    Joined from the pieces ``document_pieces`` writes a payload in.
    """
    return "".join(_pieces(doc, indent, "" if indent is None else "\n"))


def _pieces(o: Any, indent: int | None, pad: str) -> Iterator[str]:
    """``json.dumps(o, indent=indent, allow_nan=False)`` in pieces, nested at ``pad``.

    ``pad`` is a newline plus this level's indentation, or "" when compact.
    Non-empty lists, tuples and str-keyed dicts are written here; a list of
    plain floats goes out ``FLOAT_SLICE`` entries at a time (``_floats``).
    The rest is ``json``'s, re-indented.
    """
    inner = "" if indent is None else pad + " " * indent
    sep = ", " if indent is None else "," + inner
    if type(o) is list and o and set(map(type, o)) == {float}:
        yield "[" + inner
        for start in range(0, len(o), FLOAT_SLICE):
            yield (sep if start else "") + _floats(o[start:start + FLOAT_SLICE], sep)
        yield pad + "]"
    elif isinstance(o, (list, tuple)) and o:
        yield "[" + inner
        for k, v in enumerate(o):
            if k:
                yield sep
            yield from _pieces(v, indent, inner)
        yield pad + "]"
    elif isinstance(o, dict) and o and all(isinstance(key, str) for key in o):
        yield "{" + inner
        for k, (key, v) in enumerate(o.items()):
            yield (sep if k else "") + json.dumps(key) + ": "
            yield from _pieces(v, indent, inner)
        yield pad + "}"
    else:
        yield json.dumps(o, indent=indent, allow_nan=False).replace("\n", pad)


def _floats(part: list[float], sep: str) -> str:
    """The floats ``part`` as ``json`` writes them, joined by ``sep``; a NaN or inf raises.

    ``orjson`` writes the shortest digits, as ``float.__repr__`` does; the
    entries where ``repr`` writes an exponent and ``orjson`` may not are
    replaced by their ``repr``.
    """
    magnitude = np.abs(np.array(part))
    if not np.isfinite(magnitude).all():
        json.dumps(part, allow_nan=False)  # raises json's ValueError
    tokens = orjson.dumps(part).decode()[1:-1].split(",")
    exponent_form = ((0 < magnitude) & (magnitude < 1e-4)) | (magnitude >= 1e16)
    for k in np.flatnonzero(exponent_form).tolist():
        tokens[k] = repr(part[k])
    return sep.join(tokens)


def document_pieces(payload: Any, manifest: Callable[[str], dict[str, Any]],
                    indent: int | None = 2) -> Iterator[str]:
    """``dumps({"payload": payload, "manifest": manifest(payload_sha256)}, indent)`` in pieces.

    ``payload_sha256`` is the SHA-256 of ``dumps(payload, indent)``, hashed
    piece by piece as the payload goes out; ``manifest`` is called after the
    last payload piece.  No piece holds more than ``FLOAT_SLICE`` floats of
    the payload.  A NaN or infinite float in the payload raises
    ``ValueError`` in this call, before any piece is made.
    """
    _require_finite(payload)
    return _document(payload, manifest, indent)


def _document(payload: Any, manifest: Callable[[str], dict[str, Any]],
              indent: int | None) -> Iterator[str]:
    pad = "" if indent is None else "\n" + " " * indent
    digest = hashlib.sha256()
    yield "{" + pad + '"payload": '
    for piece in _pieces(payload, indent, "" if indent is None else "\n"):
        digest.update(piece.encode("utf-8"))
        yield piece.replace("\n", pad)  # one level deeper: each line break gains a step
    manifest_text = dumps(manifest(digest.hexdigest()), indent).replace("\n", pad)
    if indent is None:
        yield ', "manifest": ' + manifest_text + "}"
    else:
        yield "," + pad + '"manifest": ' + manifest_text + "\n}"


def _require_finite(o: Any) -> None:
    """Raise ``json``'s ``ValueError`` if ``o`` holds a NaN or infinite float, as ``dumps`` does."""
    if isinstance(o, float):
        if not math.isfinite(o):
            json.dumps(o, allow_nan=False)  # raises
    elif isinstance(o, dict):
        for key, value in o.items():
            _require_finite(key)
            _require_finite(value)
    elif isinstance(o, (list, tuple)):
        try:
            if math.isfinite(sum(o)):  # numbers only, none of them NaN or infinite
                return
        except (TypeError, OverflowError):  # containers or strings among the entries
            pass
        for v in o:
            _require_finite(v)


MAX_NESTING = 1024  # arrays and objects a read document may nest; orjson has no limit of its own


def read_json(path: str) -> tuple[Any, str]:
    """The JSON document in the file ``path`` and the SHA-256 of the bytes it was parsed from.

    The file is read once.  Bytes that are not JSON as ``orjson`` reads it,
    or that nest deeper than ``MAX_NESTING``, raise ``SchemaError`` naming ``path``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if _nesting(data) > MAX_NESTING:
        raise SchemaError(f"{path} nests arrays and objects deeper than {MAX_NESTING} levels")
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    return doc, hashlib.sha256(data).hexdigest()


def _nesting(data: bytes) -> int:
    """How deep the arrays and objects of JSON text ``data`` nest.

    Only quotes, brackets, braces, backslashes and the bytes that may follow
    a backslash in an escape are kept, so escapes stay whole and no copy of
    a long text is made; then strings are cut out and the brackets and
    braces left are counted.  Each step is linear in ``len(data)``: a string
    that is not closed runs to the end.  Where ``data`` is not JSON, the
    count is at least the depth ``orjson`` reaches before it stops.
    """
    kept = data.translate(None, bytes(set(range(256)) - set(b'"[{]}\\/bfnrtu')))
    outside = re.sub(rb'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)', b"", kept)
    steps = outside.translate(bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff"),  # +1 and -1
                              bytes(set(range(256)) - set(b"[{]}")))
    return int(np.cumsum(np.frombuffer(steps, np.int8)).max(initial=0))
