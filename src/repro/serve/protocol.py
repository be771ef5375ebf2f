"""Wire protocol: request parsing and validation.

Everything a client can get wrong is caught here and raised as
:class:`ProtocolError`, which the app maps to a 400 — malformed JSON
(requests are strict JSON: RFC 8259 has no ``NaN`` or ``Infinity``),
bad weights, oversized bodies, unknown queries.  Workers only ever see
validated, canonical payloads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["ProtocolError", "CompileRequest", "QueryRequest",
           "parse_compile_request", "parse_query_request",
           "DEFAULT_MAX_BODY"]

#: request bodies above this many bytes are rejected with 413
DEFAULT_MAX_BODY = 8 * 1024 * 1024

QUERY_KINDS = ("count", "sat", "wmc", "mpe", "marginals", "explain")


class ProtocolError(ValueError):
    """A malformed request; ``status`` is the HTTP code to answer."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class CompileRequest:
    """A validated ``POST /compile`` body.

    ``optimize=True`` asks for the certified pass pipeline after the
    compile (on the request budget's slack); a non-improving or
    expiring pipeline degrades to the base artifact, never a 500.

    ``proof=True`` asks for an equivalence trace plus independent
    verification; the reply carries ``proved`` (true/false, absent
    when the check ran out of budget or a deduped leader compiled
    without proof).
    """

    dimacs: str
    config: Dict[str, Any] = field(default_factory=dict)
    deadline_s: Optional[float] = None
    max_nodes: Optional[int] = None
    optimize: bool = False
    proof: bool = False


@dataclass
class QueryRequest:
    """A validated ``POST /query`` body.

    ``optimize=True`` answers on the smallest certified stored
    variant instead of the base artifact (same results, fewer nodes).
    """

    key: str
    query: str
    num_vars: Optional[int] = None
    weights: Optional[Dict[int, float]] = None
    weight_batch: Optional[List[Dict[int, float]]] = None
    deadline_s: Optional[float] = None
    optimize: bool = False
    instance: Optional[Dict[int, bool]] = None
    limit: Optional[int] = None
    smallest: bool = False


def _bool_flag(data: Mapping[str, Any], name: str) -> bool:
    value = data.get(name, False)
    if not isinstance(value, bool):
        raise ProtocolError(f"{name} must be a boolean")
    return value


def _refuse_constant(token: str) -> Any:
    raise ProtocolError(f"invalid JSON body: {token} is not a JSON "
                        "number")


#: the request body decoder: strict JSON, so NaN and Infinity are 400s
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _load_json(body: bytes) -> Dict[str, Any]:
    try:
        data = _DECODER.decode(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"invalid JSON body: {error}") from error
    if not isinstance(data, dict):
        raise ProtocolError("request body must be a JSON object")
    return data


def _positive_float(data: Mapping[str, Any], name: str
                    ) -> Optional[float]:
    value = data.get(name)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not value > 0:
        raise ProtocolError(f"{name} must be a positive number")
    return float(value)


def _positive_int(data: Mapping[str, Any], name: str) -> Optional[int]:
    value = data.get(name)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) \
            or value <= 0:
        raise ProtocolError(f"{name} must be a positive integer")
    return value


def _decode_weights(raw: Any, what: str = "weights"
                    ) -> Dict[int, float]:
    """JSON weight maps arrive with string literal keys ("−3": 0.2)."""
    if not isinstance(raw, dict):
        raise ProtocolError(f"{what} must be an object of "
                            "literal -> weight")
    out: Dict[int, float] = {}
    for key, value in raw.items():
        try:
            lit = int(key)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"{what} key {key!r} is not an integer literal"
            ) from None
        if lit == 0:
            raise ProtocolError(f"{what} literal must be non-zero")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(
                f"{what}[{key}] must be a number, got {value!r}")
        try:
            weight = float(value)
        except OverflowError:  # an integer past float range
            weight = math.inf
        if not math.isfinite(weight):  # e.g. 1e400 parses to inf
            raise ProtocolError(f"{what}[{key}] must be a finite number")
        out[lit] = weight
    return out


def _decode_instance(raw: Any) -> Dict[int, bool]:
    """JSON instances arrive with string variable keys ("3": true)."""
    if not isinstance(raw, dict) or not raw:
        raise ProtocolError("instance must be a non-empty object of "
                            "variable -> boolean")
    out: Dict[int, bool] = {}
    for key, value in raw.items():
        try:
            var = int(key)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"instance key {key!r} is not an integer variable"
            ) from None
        if var <= 0:
            raise ProtocolError("instance variables must be positive")
        if not isinstance(value, bool):
            raise ProtocolError(
                f"instance[{key}] must be a boolean, got {value!r}")
        out[var] = value
    return out


def parse_compile_request(body: bytes) -> CompileRequest:
    data = _load_json(body)
    dimacs = data.get("dimacs")
    if not isinstance(dimacs, str) or not dimacs.strip():
        raise ProtocolError("compile request needs a non-empty "
                            "'dimacs' string")
    config = data.get("config", {})
    if not isinstance(config, dict):
        raise ProtocolError("'config' must be an object")
    return CompileRequest(
        dimacs=dimacs, config=dict(config),
        deadline_s=_positive_float(data, "deadline_s"),
        max_nodes=_positive_int(data, "max_nodes"),
        optimize=_bool_flag(data, "optimize"),
        proof=_bool_flag(data, "proof"))


def parse_query_request(body: bytes) -> QueryRequest:
    data = _load_json(body)
    key = data.get("key")
    if not isinstance(key, str) or not key:
        raise ProtocolError("query request needs an artifact 'key'")
    query = data.get("query", "count")
    if query not in QUERY_KINDS:
        raise ProtocolError(f"unknown query {query!r}; expected one "
                            f"of {list(QUERY_KINDS)}")
    weights = None
    if data.get("weights") is not None:
        weights = _decode_weights(data["weights"])
    weight_batch = None
    if data.get("weight_batch") is not None:
        raw_batch = data["weight_batch"]
        if not isinstance(raw_batch, list):
            raise ProtocolError("weight_batch must be a list of "
                                "weight objects")
        weight_batch = [_decode_weights(row, f"weight_batch[{i}]")
                        for i, row in enumerate(raw_batch)]
    if weights is not None and weight_batch is not None:
        raise ProtocolError("pass either weights or weight_batch, "
                            "not both")
    instance = None
    limit = _positive_int(data, "limit")
    smallest = _bool_flag(data, "smallest")
    if query == "explain":
        if weights is not None or weight_batch is not None:
            raise ProtocolError("explain takes an instance, "
                                "not weights")
        instance = _decode_instance(data.get("instance"))
    else:
        for name in ("instance", "limit", "smallest"):
            if data.get(name):
                raise ProtocolError(
                    f"'{name}' is only valid for query 'explain'")
    return QueryRequest(
        key=key, query=str(query),
        num_vars=_positive_int(data, "num_vars"),
        weights=weights, weight_batch=weight_batch,
        deadline_s=_positive_float(data, "deadline_s"),
        optimize=_bool_flag(data, "optimize"),
        instance=instance, limit=limit, smallest=smallest)
