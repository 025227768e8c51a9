"""JSON file formats for tensors and decompositions, plus instance synthesis.

One JSON document per file, UTF-8.  Complex numbers are [re, im] pairs.
Serialization is canonical (sorted term order, fixed separators), so equal
objects produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Point, Polynomial, Shape
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


def _num_in(v, i: int, key: str):
    """v as a float or a complex; FormatError naming terms[i] and ``key``
    when it is neither a finite number nor an [re, im] pair of them."""
    if _is_real(v):
        return float(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_real(t) for t in v):
        return complex(v[0], v[1])
    raise FormatError(
        f"terms[{i}] '{key}': expected finite number or [re, im] pair, got {v!r}"
    )


def _are_exponents(e, n: int) -> bool:
    """e is a list of n non-negative integers (booleans excluded)."""
    return (
        isinstance(e, list)
        and len(e) == n
        and all(map(isinstance, e, itertools.repeat(int, n)))
        and not any(map(isinstance, e, itertools.repeat(bool, n)))
        and min(e) >= 0
    )


def _require(cond: bool, message: str):
    if not cond:
        raise FormatError(message)


def _fields(obj, where: str, keys: tuple[str, ...]) -> dict:
    """obj, checked to be a JSON object holding every key of ``keys``."""
    _require(isinstance(obj, dict), f"{where} must be a JSON object")
    for key in keys:
        _require(key in obj, f"{where} missing '{key}'")
    return obj


def _file_fields(obj, kind: str):
    """The shape of a file object and its list of terms."""
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
    terms = obj["terms"]
    _require(isinstance(terms, list), "'terms' must be a list")
    return shape, terms


def _term_fields(terms: list, keys: tuple[str, ...]):
    """FormatError naming the first term that is not a JSON object holding
    every key of ``keys``."""
    for i, t in enumerate(terms):
        _fields(t, f"terms[{i}]", keys)


def _reals(xs: list):
    """xs as a float array when each is a number that ``_is_real`` accepts,
    else None."""
    if not set(map(type, xs)) <= {int, float}:
        return None
    try:
        out = np.array(xs, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(out).all():
        return None
    # 2**1023 - 1 rounds to 2.0**1023: only the integer itself tells
    if any(type(xs[i]) is int and abs(xs[i]) >= 2**1023
           for i in np.flatnonzero(np.abs(out) >= 2.0**1023).tolist()):
        return None
    return out


def _pairs(coefs: list):
    """The coefficients of a complex file that holds [re, im] pairs, as
    ``_scan_terms`` reads them: complex when a pair is non-zero, else the
    real parts; None when a coefficient is neither a number nor a pair
    that ``_reals`` accepts."""
    if not set(map(type, coefs)) <= {int, float, list}:
        return None
    is_pair = np.array([type(c) is list for c in coefs])
    pairs = list(itertools.compress(coefs, is_pair))
    if set(map(len, pairs)) != {2}:
        return None
    parts = _reals(list(itertools.chain.from_iterable(pairs)))
    numbers = _reals(list(itertools.compress(coefs, ~is_pair)))
    if parts is None or numbers is None:
        return None
    # a number's imaginary part is +0.0, and complex(re, im) keeps the sign
    # of both parts
    values = np.zeros(len(coefs), dtype=complex)
    values.real[~is_pair] = numbers
    values[is_pair] = parts.view(complex)
    return values if (values[is_pair] != 0).any() else values.real


def _read_terms(terms: list, shape: Shape, fld):
    """The exponent matrix and the coefficients from one bulk pass over a
    file's terms; None when any term fails a check of ``_scan_terms``."""
    if fld not in ("real", "complex"):
        return None
    try:
        exp_lists = [t["exp"] for t in terms]
        coefs = [t["coef"] for t in terms]
    except (TypeError, KeyError):  # a term is no JSON object, or lacks a key
        return None
    dims = list(shape.dims)
    if not (set(map(type, exp_lists)) <= {list}
            and set(map(len, exp_lists)) <= {shape.k}):
        return None
    groups = list(itertools.chain.from_iterable(exp_lists))
    if not (set(map(type, groups)) <= {list}
            and list(map(len, groups)) == dims * len(terms)):
        return None
    flat = list(itertools.chain.from_iterable(groups))
    if not set(map(type, flat)) <= {int}:  # booleans are no exponents
        return None
    try:
        exps = np.array(flat, dtype=np.int64).reshape(len(terms), sum(dims))
    except OverflowError:
        return None
    # exponents at most the largest degree cannot wrap in the group sums
    starts = np.cumsum([0] + dims[:-1])
    if not (((exps >= 0) & (exps <= max(shape.degrees))).all()
            and (np.add.reduceat(exps, starts, axis=1) <= shape.degrees).all()):
        return None
    values = _reals(coefs)
    if values is None and fld == "complex":
        values = _pairs(coefs)
    return None if values is None else (exps, values)


def _scan_terms(terms: list, shape: Shape, fld):
    """The exponent matrix and the coefficients (complex when one is
    non-zero complex, else floats), checked term by term in file order
    (exponents, then coefficient) so that a fault names its term."""
    _term_fields(terms, ("exp", "coef"))
    _require(fld in ("real", "complex"), f"unknown field {fld!r}")
    k, groups = shape.k, list(enumerate(zip(shape.dims, shape.degrees)))
    flat, coefs, cplx = [], [], False
    for i, t in enumerate(terms):
        exp = t["exp"]
        if not (isinstance(exp, list) and len(exp) == k):
            raise FormatError(
                f"terms[{i}]: 'exp' must list one exponent vector per group"
            )
        for (g, (n, d)), e in zip(groups, exp):
            if not _are_exponents(e, n):
                raise FormatError(
                    f"terms[{i}]: group {g} exponents must be {n} "
                    "non-negative integers"
                )
            if sum(e) > d:
                raise FormatError(f"terms[{i}]: group {g} degree exceeds {d}")
            flat += e
        c = _num_in(t["coef"], i, "coef")
        if isinstance(c, complex):
            if fld == "real":
                raise FormatError(f"terms[{i}]: complex coefficient in a real file")
            cplx = cplx or c != 0
        coefs.append(c)
    exps = np.array(flat, dtype=np.int64).reshape(len(terms), sum(shape.dims))
    values = np.array(coefs)
    return exps, values if cplx else values.real


@dataclass
class TensorFile:
    field: str  # "real" | "complex"
    tensor: Polynomial

    @property
    def shape(self) -> Shape:
        return self.tensor.shape

    def to_obj(self) -> dict:
        terms = [
            {"exp": [list(e) for e in m.exps], "coef": _num_out(c)}
            for m, c in self.tensor.terms.items()
        ]
        return {
            "dims": list(self.shape.dims),
            "degrees": list(self.shape.degrees),
            "field": self.field,
            "terms": terms,
        }

    @staticmethod
    def from_obj(obj: dict) -> "TensorFile":
        """The tensor of a file object.  A well-formed file (plain numbers,
        and [re, im] pairs in a complex file) is checked in one bulk pass;
        one with a fault is scanned term by term in file order (exponents,
        then coefficient), which names the first faulty term.  A repeated
        monomial is reported at its second occurrence once every term has
        passed those checks."""
        shape, terms = _file_fields(obj, "tensor")
        fld = obj.get("field", "real")
        exps, values = (_read_terms(terms, shape, fld)
                        or _scan_terms(terms, shape, fld))
        codes = shape.codes(exps)
        _, first = np.unique(codes, return_index=True)
        if len(first) < len(terms):
            repeated = np.ones(len(terms), dtype=bool)
            repeated[first] = False
            i = int(np.flatnonzero(repeated)[0])
            raise FormatError(f"terms[{i}]: duplicate exponent {terms[i]['exp']}")
        vec = np.zeros(len(shape.table.exps), dtype=values.dtype)
        vec[shape.table.rows(codes)] = values
        return TensorFile(fld, Polynomial.from_vector(shape, vec))


@dataclass
class DecompositionFile:
    decomposition: Decomposition
    meta: dict = field(default_factory=dict)

    @property
    def shape(self) -> Shape:
        return self.decomposition.shape

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
        shape, items = _file_fields(obj, "decomposition")
        _term_fields(items, ("weight", "points"))
        terms = []
        for i, t in enumerate(items):
            where = f"terms[{i}]"
            w = _num_in(t["weight"], i, "weight")
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
                coords.append(tuple(_num_in(x, i, "points") for x in c))
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
        return DecompositionFile(dec, dict(meta))


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n"


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
    if fld not in ("real", "complex"):
        raise ValueError(f"unknown field {fld!r}")
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
        TensorFile(fld, T),
        DecompositionFile(dec, meta),
    )
