"""JSON wire formats for matrices, models, channels, behaviours and strategies.

Matrices travel as ``{"dim": d, "re": [...], "im": [...]}`` with row-major
entry lists; vectors reuse the same container with ``dim`` equal to their
length.  Doubles round-trip exactly through the shortest-repr decimal
serialization the ``json`` module uses.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .bell import Behaviour
from .channels import ChannelFamily
from .errors import DimensionMismatchError
from .models import CommutingModel, PVMFamily, TensorModel


class SchemaError(ValueError):
    """A JSON document does not match the expected wire format."""


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
        dim = int(doc["dim"])
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
        n, m = int(doc["n"]), int(doc["m"])
        state = _state_from_json(doc["state"])
        U = tuple(matrix_from_json(d) for d in doc["U"])
        V = tuple(matrix_from_json(d) for d in doc["V"])
        if kind == "tensor":
            return TensorModel(n=n, m=m, dA=int(doc["dA"]), dB=int(doc["dB"]),
                               state=state, U=U, V=V)
        if kind == "commuting":
            return CommutingModel(n=n, m=m, d=int(doc["d"]), state=state, U=U, V=V)
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
        n, m = int(doc["n"]), int(doc["m"])
        alice = PVMFamily(d=int(doc["dA"]), m=m, n=n, projectors=tuple(
            tuple(matrix_from_json(P) for P in row) for row in doc["P"]))
        bob = PVMFamily(d=int(doc["dB"]), m=m, n=n, projectors=tuple(
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
        n, m = int(doc["n"]), int(doc["m"])
        supers = tuple(tuple(matrix_from_json(S) for S in row) for row in doc["super"])
        return ChannelFamily(n=n, m=m, supers=supers)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad channel document: {exc}") from exc


def behaviour_to_json(behaviour: Behaviour) -> dict[str, Any]:
    return {"n": behaviour.n, "m": behaviour.m, "p": behaviour.p.tolist()}


def behaviour_from_json(doc: dict[str, Any]) -> Behaviour:
    try:
        n, m = int(doc["n"]), int(doc["m"])
        p = np.asarray(doc["p"], dtype=float)
        return Behaviour(n=n, m=m, p=p)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad behaviour document: {exc}") from exc


def table_from_json(doc: dict[str, Any]) -> np.ndarray:
    """Nested-real [a][b][x][y] table; shared by behaviours and functionals."""
    try:
        n, m = int(doc["n"]), int(doc["m"])
        t = np.asarray(doc["p"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad table document: {exc}") from exc
    if t.shape != (n, n, m, m):
        raise SchemaError(f"table shape {t.shape} does not match n={n}, m={m}")
    if not np.isfinite(t).all():
        raise SchemaError("table has non-finite entries")
    return t


def dumps(doc: Any, indent: int | None = 2) -> str:
    """Deterministic JSON text (insertion order preserved, repr round-trip floats)."""
    return json.dumps(doc, indent=indent, allow_nan=False)


def dumps_document(payload_text: str, manifest: dict[str, Any], indent: int | None = 2) -> str:
    """``dumps({"payload": payload, "manifest": manifest}, indent)``, given ``dumps(payload, indent)``.

    Nesting one level deeper only indents every line after the first by one
    more step; ``json.dumps`` escapes newlines inside strings, so each raw
    newline in the text is a line break.
    """
    manifest_text = dumps(manifest, indent)
    if indent is None:
        return f'{{"payload": {payload_text}, "manifest": {manifest_text}}}'
    pad = "\n" + " " * indent
    payload_text, manifest_text = (t.replace("\n", pad) for t in (payload_text, manifest_text))
    return f'{{{pad}"payload": {payload_text},{pad}"manifest": {manifest_text}\n}}'


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
