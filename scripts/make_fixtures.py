#!/usr/bin/env python3
"""Regenerate the golden fixture files under tests/fixtures.

The two demo instances are written as tensor files together with their known
decompositions; the expansion of the factors is checked against the typed
coefficient tables before anything is written.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

import golden_data as gd
from conftest import poly, rank_one_expand
from tdec.algebra import Point, Shape
from tdec.decompose import Decomposition, verify
from tdec.files import DecompositionFile, TensorFile, write_json

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def emit(name, shape_kw, coeffs, weights, points):
    shape = Shape(**shape_kw)
    tensor = poly(shape, coeffs)
    pts = [Point(tuple(tuple(float(x) for x in c) for c in p)) for p in points]
    expanded = rank_one_expand(shape, weights, pts)
    assert expanded.terms == tensor.terms, f"{name}: factor/coefficient mismatch"
    dec = Decomposition(shape, list(zip([float(w) for w in weights], pts)), 0.0)
    dec.residual = verify(tensor, dec)
    assert dec.residual < 1e-12
    write_json(FIXTURES / f"{name}.json", TensorFile("real", tensor).to_obj())
    write_json(
        FIXTURES / f"{name}_truth.json",
        DecompositionFile(dec, {"source": "known decomposition"}).to_obj(),
    )
    print(f"wrote {name}.json and {name}_truth.json")


def main():
    FIXTURES.mkdir(exist_ok=True)
    emit("example1", gd.SHAPE1, gd.COEFFS1, gd.WEIGHTS1, gd.POINTS1)
    emit("example2", gd.SHAPE2, gd.COEFFS2, gd.WEIGHTS2, gd.POINTS2)


if __name__ == "__main__":
    main()
