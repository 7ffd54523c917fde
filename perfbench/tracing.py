"""Spans around calls into the mlie layers, recorded from outside the package.

Each traced name wraps one public function or method.  A function is patched
in every ``mlie`` module namespace that holds it, because modules look names
up in their own globals (``from .pseudolin import signature``); a method is
patched once on its class.  Spans are kept in memory and written out when the
run ends.  Recording happens only while an op runs, so the benchmark's own
correctness checks leave no spans.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: traced name -> (module, attribute); "Class.method" patches the class
TARGETS: Dict[str, Tuple[str, str]] = {
    "pseudolin.signature": ("mlie.pseudolin", "signature"),
    "pseudolin.orthonormal_basis": ("mlie.pseudolin", "orthonormal_basis"),
    "pseudolin.find_isotropic_in": ("mlie.pseudolin", "find_isotropic_in"),
    "pseudolin.classify_subspace": ("mlie.pseudolin", "classify_subspace"),
    "liealg.is_nilpotent": ("mlie.liealg", "LieAlgebra.is_nilpotent"),
    "liealg.lower_central_series": ("mlie.liealg", "LieAlgebra.lower_central_series"),
    "liealg.center": ("mlie.liealg", "LieAlgebra.center"),
    "liealg.derivation_space": ("mlie.liealg", "LieAlgebra.derivation_space"),
    "curvature.build": ("mlie.curvature", "MetricLieAlgebra.__init__"),
    "curvature.einstein_classify": ("mlie.curvature", "MetricLieAlgebra.einstein_classify"),
    "curvature.ricci_operator": ("mlie.curvature", "MetricLieAlgebra.ricci_operator"),
    "curvature.ricci_via_definition": ("mlie.curvature", "MetricLieAlgebra.ricci_via_definition"),
    "curvature.ricci_nilpotent": ("mlie.curvature", "MetricLieAlgebra.ricci_nilpotent"),
    "curvature.ricci_general": ("mlie.curvature", "MetricLieAlgebra.ricci_general"),
    "curvature.curvature_tensor": ("mlie.curvature", "MetricLieAlgebra.curvature_tensor"),
    "curvature.j1_j2": ("mlie.curvature", "MetricLieAlgebra.j1_j2"),
    "curvature.trace_q_times": ("mlie.curvature", "MetricLieAlgebra.trace_q_times"),
    "doubleext.extend": ("mlie.doubleext", "extend"),
    "doubleext.decompose": ("mlie.doubleext", "decompose"),
    "doubleext.model_residual": ("mlie.doubleext", "model_residual"),
    "catalog.make_metric": ("mlie.catalog", "make_metric"),
    "search.run_search": ("mlie.search", "run_search"),
    "fileio.read_algebra": ("mlie.fileio", "read_algebra"),
    "cli.main": ("mlie.cli", "main"),
}


class Tracer:
    """Span recorder: one span per traced call while an op is active.

    A span is (name, start, end, parent span index or -1, op id).
    """

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._restore: List[Callable[[], None]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> Tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, parent: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._op)

    def run_op(self, op_id: int, name: str, fn: Callable[[], object]) -> object:
        """Call fn with recording on, under a root span for the op."""
        self._op = op_id
        idx, parent = self._open(name)
        start = perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, name, parent, start)
            self._op = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            idx, parent = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, parent, start)
            if name == "search.run_search":
                tracer.counters["search.iterations"] += result.iterations
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target where it is looked up."""
        modules = [m for k, m in list(sys.modules.items()) if k == "mlie" or k.startswith("mlie.")]
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._restore.append(functools.partial(setattr, cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append(functools.partial(setattr, mod, key, orig))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- summaries --------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total duration and self time (duration minus
        the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
