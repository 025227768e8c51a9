"""JSON file formats for tensors and decompositions, plus instance synthesis.

One JSON document per file, UTF-8.  Complex numbers are [re, im] pairs.
Serialization is canonical (sorted term order, fixed separators), so equal
objects produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Monomial, Point, Polynomial, Shape
from .decompose import Decomposition, reconstruct, verify


class FormatError(ValueError):
    pass


def _num_out(x):
    x = complex(x)
    if x.imag == 0:
        return x.real
    return [x.real, x.imag]


def _is_int(v) -> bool:  # a JSON boolean is not a number
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite number: json also reads NaN, Infinity and integers beyond
    the float range."""
    if _is_int(v):
        return abs(v) < 2**1023
    return isinstance(v, float) and math.isfinite(v)


def _num_in(v, where: str):
    if _is_real(v):
        return float(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_real(t) for t in v):
        return complex(v[0], v[1])
    raise FormatError(f"{where}: expected finite number or [re, im] pair, got {v!r}")


def _require(cond: bool, message: str):
    if not cond:
        raise FormatError(message)


def _fields(obj, where: str, keys: tuple[str, ...]) -> dict:
    """obj, checked to be a JSON object holding every key of ``keys``."""
    _require(isinstance(obj, dict), f"{where} must be a JSON object")
    for key in keys:
        _require(key in obj, f"{where} missing '{key}'")
    return obj


def _file_fields(obj, kind: str, keys: tuple[str, ...]):
    """The shape of a file object and its term objects, (where, term) each
    holding ``keys``."""
    _fields(obj, f"{kind} file", ("dims", "degrees", "terms"))
    for key in ("dims", "degrees"):
        _require(
            isinstance(obj[key], list) and all(map(_is_int, obj[key])),
            f"'{key}' must be a list of integers, got {obj[key]!r}",
        )
    try:
        shape = Shape(tuple(obj["dims"]), tuple(obj["degrees"]))
    except ValueError as exc:
        raise FormatError(f"bad dims/degrees: {exc}") from exc
    _require(isinstance(obj["terms"], list), "'terms' must be a list")
    terms = [(f"terms[{i}]", t) for i, t in enumerate(obj["terms"])]
    return shape, [(where, _fields(t, where, keys)) for where, t in terms]


@dataclass
class TensorFile:
    shape: Shape
    field: str  # "real" | "complex"
    tensor: Polynomial

    def to_obj(self) -> dict:
        terms = [
            {"exp": [list(e) for e in m.exps], "coef": _num_out(c)}
            for m, c in sorted(
                self.tensor.terms.items(), key=lambda t: t[0].sort_key()
            )
        ]
        return {
            "dims": list(self.shape.dims),
            "degrees": list(self.shape.degrees),
            "field": self.field,
            "terms": terms,
        }

    @staticmethod
    def from_obj(obj: dict) -> "TensorFile":
        shape, items = _file_fields(obj, "tensor", ("exp", "coef"))
        fld = obj.get("field", "real")
        _require(fld in ("real", "complex"), f"unknown field {fld!r}")
        terms: dict[Monomial, complex] = {}
        for where, t in items:
            exp = t["exp"]
            _require(
                isinstance(exp, list) and len(exp) == shape.k,
                f"{where}: 'exp' must list one exponent vector per group",
            )
            for g, e in enumerate(exp):
                _require(
                    isinstance(e, list)
                    and len(e) == shape.dims[g]
                    and all(_is_int(x) and x >= 0 for x in e),
                    f"{where}: group {g} exponents must be {shape.dims[g]} "
                    "non-negative integers",
                )
                _require(
                    sum(e) <= shape.degrees[g],
                    f"{where}: group {g} degree exceeds {shape.degrees[g]}",
                )
            m = Monomial(tuple(tuple(e) for e in exp))
            _require(m not in terms, f"{where}: duplicate exponent {exp}")
            c = _num_in(t["coef"], f"{where} 'coef'")
            if isinstance(c, complex) and fld == "real":
                raise FormatError(f"{where}: complex coefficient in a real file")
            terms[m] = c
        return TensorFile(shape, fld, Polynomial(shape, terms))


@dataclass
class DecompositionFile:
    shape: Shape
    decomposition: Decomposition
    meta: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        terms = [
            {
                "weight": _num_out(w),
                "points": [[_num_out(x) for x in c] for c in p.coords],
            }
            for w, p in self.decomposition.terms
        ]
        return {
            "rank": self.decomposition.rank,
            "dims": list(self.shape.dims),
            "degrees": list(self.shape.degrees),
            "terms": terms,
            "residual": float(self.decomposition.residual),
            "meta": self.meta,
        }

    @staticmethod
    def from_obj(obj: dict) -> "DecompositionFile":
        _fields(obj, "decomposition file", ("rank", "residual"))
        shape, items = _file_fields(obj, "decomposition", ("weight", "points"))
        terms = []
        for where, t in items:
            w = _num_in(t["weight"], f"{where} 'weight'")
            pts = t["points"]
            _require(
                isinstance(pts, list) and len(pts) == shape.k,
                f"{where}: 'points' must list one coordinate vector per group",
            )
            coords = []
            for g, c in enumerate(pts):
                _require(
                    isinstance(c, list) and len(c) == shape.dims[g],
                    f"{where}: group {g} needs {shape.dims[g]} coordinates",
                )
                coords.append(tuple(_num_in(x, f"{where} 'points'") for x in c))
            terms.append((w, Point(tuple(coords))))
        _require(
            _is_int(obj["rank"]) and obj["rank"] == len(terms),
            "'rank' must be an integer equal to the term count",
        )
        _require(
            _is_real(obj["residual"]) and obj["residual"] >= 0,
            "'residual' must be a finite non-negative number",
        )
        meta = obj.get("meta", {})
        _require(isinstance(meta, dict), "'meta' must be an object")
        dec = Decomposition(shape, terms, float(obj["residual"]), meta=dict(meta))
        return DecompositionFile(shape, dec, dict(meta))


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_tensor(path: str) -> TensorFile:
    return TensorFile.from_obj(read_json(path))


def load_decomposition(path: str) -> DecompositionFile:
    return DecompositionFile.from_obj(read_json(path))


def synthesize(
    dims,
    degrees,
    rank: int,
    seed: int = 0,
    noise: float = 0.0,
    fld: str = "real",
) -> tuple[TensorFile, DecompositionFile]:
    """Seeded random rank-one sum plus its ground-truth decomposition.

    Point coordinates are uniform in [-1, 1] (complex: the unit square),
    weights are uniform in magnitude [0.5, 2] with random sign; optional
    coefficient-wise Gaussian noise is scaled by the largest coefficient.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    if not 0.0 <= noise < float("inf"):
        raise ValueError("noise must be finite and non-negative")
    shape = Shape(tuple(dims), tuple(degrees))
    rng = np.random.default_rng(seed)

    def draw(n):
        if fld == "complex":
            return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        return rng.uniform(-1, 1, n)

    points = [
        Point(tuple(tuple(draw(n)) for n in shape.dims)) for _ in range(rank)
    ]
    weights = rng.uniform(0.5, 2.0, rank) * rng.choice([-1.0, 1.0], rank)
    if fld == "complex":
        weights = weights * np.exp(2j * np.pi * rng.uniform(0, 1, rank))
    T = reconstruct(shape, weights, points)
    if noise > 0:
        coef = T.vector()
        # one draw per monomial in table order, two (real, imaginary) if complex
        draws = rng.normal(size=(len(coef), 2 if fld == "complex" else 1))
        draws = draws * noise * np.abs(coef).max()
        bump = draws[:, 0] + 1j * draws[:, 1] if fld == "complex" else draws[:, 0]
        T = Polynomial.from_vector(shape, coef + bump)
    dec = Decomposition(shape, list(zip(weights.tolist(), points)), 0.0)
    dec.residual = verify(T, dec)
    meta = {"seed": seed, "noise": noise, "synthetic": True}
    return (
        TensorFile(shape, fld, T),
        DecompositionFile(shape, dec, meta),
    )
