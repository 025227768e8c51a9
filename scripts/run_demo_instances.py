#!/usr/bin/env python3
"""Decompose the two bundled demo instances and print everything learned:
rank bounds, the selected bases, the recovered points and weights, and the
reconstruction residual."""

import pathlib
import sys
import time

import numpy as np

from tdec.decompose import DecomposeOptions, decompose, rank_bounds
from tdec.files import load_tensor
from tdec.moment import build_moment_functional, select_bases_candidates

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def show(name: str):
    tf = load_tensor(FIXTURES / name)
    T = tf.tensor
    print(f"=== {name}: dims {tf.shape.dims}, degrees {tf.shape.degrees}, "
          f"{len(T.terms)} coefficients")
    b = rank_bounds(T)
    print(f"bounds: lower {b.lower}, upper {b.upper}, expected {b.expected}, "
          f"kruskal {b.kruskal}")
    B, Bp = next(select_bases_candidates(build_moment_functional(T), b.lower))
    print("bases:  B  =", ", ".join(B.names()))
    print("        B' =", ", ".join(Bp.names()))
    start = time.perf_counter()
    dec = decompose(T, DecomposeOptions(seed=0))
    elapsed = time.perf_counter() - start
    print(f"rank {dec.rank}, residual {dec.residual:.2e}, {elapsed * 1000:.0f} ms")
    for w, p in sorted(dec.terms, key=lambda t: -abs(complex(t[0]))):
        coords = " | ".join(
            " ".join(f"{np.real(x):+.4g}" for x in c) for c in p.coords
        )
        print(f"  {np.real(w):+.6g}  ({coords})")
    print()


def main():
    for name in ("example1.json", "example2.json"):
        show(name)


if __name__ == "__main__":
    sys.exit(main())
