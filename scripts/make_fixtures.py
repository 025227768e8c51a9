#!/usr/bin/env python3
"""Regenerate the golden fixture files under tests/fixtures.

    PYTHONPATH=src python3 scripts/make_fixtures.py

The two demo instances are written as tensor files together with their known
decompositions; the expansion of the factors is checked against the typed
coefficient tables before anything is written.  Then the CLI decomposes each
tensor file at its seed in ``GOLDEN_SEEDS`` into ``<name>.dec.json``, the
golden output that ``TestCli::test_decompose_matches_golden_file`` compares
against.  The CLI runs in a subprocess pinned to two BLAS threads, as the
golden files were written: the thread count moves the last bits.
"""

import os
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

import golden_data as gd
import tdec
from conftest import poly, rank_one_expand
from tdec.algebra import Point, Shape
from tdec.decompose import Decomposition, verify
from tdec.files import DecompositionFile, TensorFile, write_json

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# the seed each golden decomposition is written with
GOLDEN_SEEDS = {"example1": 0, "example2": 3}


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


def decompose_with_cli(tensor, seed, out):
    """Run ``tdec.cli decompose -i tensor -o out --seed seed`` with this
    checkout's tdec, in a subprocess pinned to two BLAS threads; returns
    the finished process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env.pop("TDEC_LOG", None)
    src = str(pathlib.Path(tdec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-m", "tdec.cli", "decompose",
         "-i", str(tensor), "-o", str(out), "--seed", str(seed)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def main():
    FIXTURES.mkdir(exist_ok=True)
    emit("example1", gd.SHAPE1, gd.COEFFS1, gd.WEIGHTS1, gd.POINTS1)
    emit("example2", gd.SHAPE2, gd.COEFFS2, gd.WEIGHTS2, gd.POINTS2)
    for name, seed in GOLDEN_SEEDS.items():
        proc = decompose_with_cli(
            FIXTURES / f"{name}.json", seed, FIXTURES / f"{name}.dec.json"
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: decompose failed: {proc.stderr}")
        print(f"wrote {name}.dec.json")


if __name__ == "__main__":
    main()
