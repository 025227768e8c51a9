"""Span recorder and wrappers installed around the program's functions.

Spans are timed with process CPU time, kept in memory and summarised when
the run ends.  Each span records name, start, end, parent span and the
instance being run.  Wrappers are installed from outside: every `tdec`
module global that refers to a wrapped function is replaced (callers look
names up in their own module, so patching only the defining module would
intercept nothing), and `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

_cpu = time.process_time

# (defining module, function, span name)
SPANNED = [
    ("tdec.moment", "build_moment_functional", "moment.build_moment_functional"),
    ("tdec.decompose", "rank_lower_bound", "decompose.rank_lower_bound"),
    ("tdec.decompose", "rank_bounds", "decompose.rank_bounds"),
    ("tdec.extension", "propagate_commutation", "extension.propagate_commutation"),
    ("tdec.extension", "flat_extension_check", "extension.flat_extension_check"),
    ("tdec.eigen", "family_from_functional", "eigen.family_from_functional"),
    ("tdec.eigen", "joint_eigenvectors", "eigen.joint_eigenvectors"),
    ("tdec.eigen", "read_coordinates", "eigen.read_coordinates"),
    ("tdec.eigen", "recover_missing_coordinates", "eigen.recover_missing_coordinates"),
    ("tdec.eigen", "solve_weights", "eigen.solve_weights"),
    ("tdec.decompose", "verify", "decompose.verify"),
    ("tdec.decompose", "substitute_linear", "decompose.substitute_linear"),
    ("tdec.decompose", "random_coordinate_change", "decompose.random_coordinate_change"),
    ("tdec.decompose", "hosvd_reduce", "decompose.hosvd_reduce"),
    ("tdec.decompose", "map_back", "decompose.map_back"),
    ("tdec.decompose", "decompose", "decompose.decompose"),
    ("tdec.files", "load_tensor", "files.load_tensor"),
    ("tdec.files", "write_json", "files.write_json"),
    ("tdec.cli", "cmd_decompose", "cli.decompose"),
    ("tdec.cli", "cmd_verify", "cli.verify"),
]
GENERATORS = [
    ("tdec.moment", "select_bases_candidates", "moment.select_bases_candidates"),
]
# dunder methods counted (not timed): exact call counts of the algebra layer
COUNTED = [
    ("tdec.algebra", "Monomial", "__mul__", "algebra.Monomial.mul"),
    ("tdec.algebra", "Polynomial", "__mul__", "algebra.Polynomial.mul"),
    ("tdec.algebra", "Polynomial", "__rmul__", "algebra.Polynomial.mul"),
]
PROPAGATE = "extension.propagate_commutation"
SELF_TIMED = ["decompose.decompose", "cli.decompose"]
COUNTERS = [
    "algebra.Monomial.mul.calls",
    "algebra.Polynomial.mul.calls",
    PROPAGATE + ".svd_calls",
    PROPAGATE + ".svd_elems",
    PROPAGATE + ".svd_ms",
    "files.load_tensor.bytes",
    "files.write_json.bytes",
]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, instance]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.outcomes: dict[str, Counter] = defaultdict(Counter)
        self.instance = None
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _cpu(), None, parent, self.instance])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = _cpu()
        self.stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer._observe(name, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(idx)
                tracer.counts[name + ".yielded"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_counted(self, fn, name):
        counts = self.counts

        def wrapper(*args):
            counts[name + ".calls"] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_svd(self, fn):
        tracer = self

        def svd(a, *args, **kwargs):
            if not tracer._inside(PROPAGATE):
                return fn(a, *args, **kwargs)
            start = _cpu()
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.counts[PROPAGATE + ".svd_ms"] += 1000.0 * (_cpu() - start)
                tracer.counts[PROPAGATE + ".svd_calls"] += 1
                tracer.counts[PROPAGATE + ".svd_elems"] += int(getattr(a, "size", 0))

        svd.__wrapped__ = fn
        return svd

    def _observe(self, name: str, args, out) -> None:
        """Outcome counters for ratios, taken from arguments and results."""
        if name == PROPAGATE:
            self.outcomes[name][out.status] += 1
        elif name == "extension.flat_extension_check":
            self.outcomes[name][bool(out)] += 1
        elif name == "eigen.joint_eigenvectors":
            self.outcomes[name][bool(out.simple)] += 1
        elif name == "files.load_tensor":
            self.counts[name + ".bytes"] += os.path.getsize(args[0])
        elif name == "files.write_json":
            self.counts[name + ".bytes"] += os.path.getsize(args[0])

    # --- installing ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "tdec" and not modname.startswith("tdec."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, fn_name, span in SPANNED:
            fn = getattr(importlib.import_module(modname), fn_name)
            self._replace_everywhere(fn, self._wrap(fn, span))
        for modname, fn_name, span in GENERATORS:
            fn = getattr(importlib.import_module(modname), fn_name)
            self._replace_everywhere(fn, self._wrap_generator(fn, span))
        for modname, cls_name, meth, counter in COUNTED:
            cls = getattr(importlib.import_module(modname), cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap_counted(fn, counter))
        linalg = importlib.import_module("numpy.linalg")
        self._saved.append((linalg, "svd", linalg.svd))
        linalg.svd = self._wrap_svd(linalg.svd)

    def restore(self) -> None:
        """Put every original back and check that it is back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            current = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            if current is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")
        self._saved.clear()

    # --- summary ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (CPU seconds since process start)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, instance in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance}) + "\n")

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics: calls and CPU ms per span name, self time
        of `decompose` and the CLI, counters and outcome ratios.  Every key is
        present on every workload; a layer that never ran reads 0."""
        if any(s[2] is None for s in self.spans):
            raise RuntimeError("span left open")
        calls: Counter = Counter()
        cpu: Counter = Counter()
        self_ms: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            dur = 1000.0 * (end - start)
            calls[name] += 1
            self_ms[name] += dur
            if parent >= 0:
                self_ms[self.spans[parent][0]] -= dur
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:  # a nested call of the same layer counts once
                cpu[name] += dur

        out: dict[str, float] = {}
        for _, _, name in SPANNED:
            out[name + ".calls"] = calls[name] / passes
            out[name + ".cpu_ms"] = cpu[name] / passes
        for _, _, name in GENERATORS:
            out[name + ".yielded"] = self.counts[name + ".yielded"] / passes
            out[name + ".cpu_ms"] = cpu[name] / passes
        for name in SELF_TIMED:
            out[name + ".self_ms"] = self_ms[name] / passes
        for key in COUNTERS:
            out[key] = self.counts[key] / passes

        def frac(name, good):
            seen = sum(self.outcomes[name].values())
            return self.outcomes[name][good] / seen if seen else 0.0

        out[PROPAGATE + ".extended_frac"] = frac(PROPAGATE, "extended")
        out["extension.flat_extension_check.pass_frac"] = frac(
            "extension.flat_extension_check", True
        )
        out["eigen.joint_eigenvectors.simple_frac"] = frac(
            "eigen.joint_eigenvectors", True
        )
        total = cpu["decompose.decompose"]
        out[PROPAGATE + ".decompose_frac"] = cpu[PROPAGATE] / total if total else 0.0
        out["trace.spans"] = len(self.spans) / passes
        return out
