"""Instance documents and canonical JSON serialization.

An InstanceDoc is the wire format for one problem instance: the distance
description (points, sets, or an explicit matrix, plus optional entrywise
transforms), the matroid, optional per-element scores, and the seed it was
generated from.  Element indices are 1-based in serialized documents and
reports; the in-memory API is 0-based throughout.

Canonical form: object keys sorted, floats rendered with %.12g.  A document
serialized, parsed, and serialized again is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import (
    DistanceMatrix,
    NORM_KINDS,
    SET_KINDS,
    build_distance,
    transform_distance,
)
from .matroids import (
    ExplicitRankMatroid,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
)

SCHEMA_VERSION = 1


@dataclass
class InstanceDoc:
    """One problem instance in document form (see module docstring)."""

    n: int
    distance: dict
    matroid: dict
    scores: list | None = None
    seed: int | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "n": self.n,
            "distance": self.distance,
            "matroid": self.matroid,
            "scores": self.scores,
            "seed": self.seed,
        }
        return out


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON: sorted keys, %.12g floats, no NaN/inf."""

    def render(v) -> str:
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            f = float(v)
            if not math.isfinite(f):
                raise InvalidInputError("cannot serialize non-finite float")
            if f == 0.0:
                f = 0.0  # collapse -0.0, which would not survive a round-trip
            return format(f, ".12g")
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, dict):
            items = []
            for key in sorted(v):
                if not isinstance(key, str):
                    raise InvalidInputError("JSON object keys must be strings")
                items.append(f"{json.dumps(key)}: {render(v[key])}")
            return "{" + ", ".join(items) + "}"
        if isinstance(v, (list, tuple, np.ndarray)):
            return "[" + ", ".join(render(e) for e in v) + "]"
        raise InvalidInputError(f"cannot serialize value of type {type(v).__name__}")

    return render(obj) + "\n"


def doc_to_json(doc: InstanceDoc) -> str:
    return canonical_dumps(doc.to_dict())


def _expect(cond, msg):
    if not cond:
        raise InvalidInputError(msg)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _is_scalar_list(v) -> bool:
    return isinstance(v, list) and not any(isinstance(e, (list, dict)) for e in v)


def parse_scores(data, n: int) -> list:
    """Scores as n floats; they must be finite nonnegative JSON numbers."""
    _expect(isinstance(data, list) and len(data) == n and all(_is_number(s) and 0 <= s < math.inf for s in data),
            f"scores must be a list of {n} finite nonnegative numbers")
    return [float(s) for s in data]


def doc_from_dict(data: dict) -> InstanceDoc:
    _expect(isinstance(data, dict), "instance document must be a JSON object")
    _expect("n" in data and "distance" in data and "matroid" in data,
            "instance document needs n, distance, and matroid")
    version = data.get("schema_version", SCHEMA_VERSION)
    _expect(version == SCHEMA_VERSION, f"unsupported schema_version {version}")
    n = data["n"]
    _expect(_is_int(n) and n >= 2, "n must be an integer >= 2")
    scores = None if data.get("scores") is None else parse_scores(data["scores"], n)
    seed = data.get("seed")
    _expect(seed is None or _is_int(seed), "seed must be an integer")
    return InstanceDoc(
        n=n,
        distance=data["distance"],
        matroid=data["matroid"],
        scores=scores,
        seed=seed,
        schema_version=version,
    )


def doc_from_json(text: str) -> InstanceDoc:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid JSON: {exc}") from exc
    return doc_from_dict(data)


def build_distance_from_doc(spec: dict, n: int) -> DistanceMatrix:
    _expect(isinstance(spec, dict) and "kind" in spec, "distance needs a 'kind'")
    kind = spec["kind"]
    if kind == "explicit" or kind in NORM_KINDS:
        field = "matrix" if kind == "explicit" else "points"
        _expect(field in spec, f"distance kind {kind!r} needs {field!r}")
        p = spec.get("p")
        _expect(p is None or _is_number(p), f"distance.p must be a number, got {p!r}")
        try:
            data = np.asarray(spec[field], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"distance.{field}: {exc}") from exc
        dm = build_distance(data, kind, p=p)
    elif kind in SET_KINDS:
        sets, universe = spec.get("sets"), spec.get("universe")
        _expect(isinstance(sets, list) and all(map(_is_scalar_list, sets))
                and (_is_int(universe) or _is_scalar_list(universe)),
                f"distance kind {kind!r} needs 'sets', lists of scalars, and 'universe', an integer or list")
        dm = build_distance(sets, kind, universe=universe)
    else:
        raise InvalidInputError(f"unknown distance kind {kind!r}")
    _expect(dm.n == n, f"distance describes {dm.n} elements, document says {n}")
    transforms = spec.get("transforms", [])
    _expect(isinstance(transforms, list) and all(isinstance(tr, dict) and "name" in tr for tr in transforms),
            "distance.transforms must be a list of objects with a 'name'")
    for tr in transforms:
        _expect(all(tr.get(key) is None or _is_number(tr[key]) for key in ("alpha", "lam")),
                f"transform parameters alpha and lam must be numbers, got {tr!r}")
        dm = transform_distance(dm, tr["name"], alpha=tr.get("alpha"), lam=tr.get("lam"))
    return dm


def build_matroid_from_doc(spec: dict, n: int) -> Matroid:
    _expect(isinstance(spec, dict) and "kind" in spec, "matroid needs a 'kind'")
    kind = spec["kind"]
    if kind == "uniform":
        _expect(_is_int(spec.get("k")), f"uniform matroid needs an integer 'k', got {spec.get('k')!r}")
        m = UniformMatroid(n, spec["k"])
    elif kind == "partition":
        blocks, caps = spec.get("blocks"), spec.get("capacities")
        _expect(isinstance(blocks, list) and all(map(_is_int_list, blocks)) and _is_int_list(caps),
                "partition matroid needs 'blocks', lists of integers, and integer 'capacities'")
        m = PartitionMatroid([[e - 1 for e in b] for b in blocks], caps)
    elif kind == "graphic":
        num_vertices, edges = spec.get("num_vertices"), spec.get("edges")
        _expect(_is_int(num_vertices) and isinstance(edges, list)
                and all(_is_int_list(e) and len(e) == 2 for e in edges),
                "graphic matroid needs an integer 'num_vertices' and 'edges', integer pairs")
        m = GraphicMatroid(num_vertices, [(u - 1, v - 1) for u, v in edges])
    elif kind == "explicit_rank":
        _expect(_is_int_list(spec.get("ranks")), "explicit_rank matroid needs 'ranks', a list of integers")
        m = ExplicitRankMatroid(spec["ranks"])
    else:
        raise InvalidInputError(f"unknown matroid kind {kind!r}")
    _expect(m.n == n, f"matroid describes {m.n} elements, document says {n}")
    return m


def materialize(doc: InstanceDoc):
    """Build (DistanceMatrix, Matroid, scores array or None) from a document."""
    dm = build_distance_from_doc(doc.distance, doc.n)
    m = build_matroid_from_doc(doc.matroid, doc.n)
    w = None if doc.scores is None else np.asarray(doc.scores, dtype=float)
    return dm, m, w
