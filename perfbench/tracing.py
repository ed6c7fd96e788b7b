"""Per-layer tracing by wrapping mbfun's functions from outside.

Nothing under src/ knows about this module.  `Tracer.install` replaces
each traced function (or method) with a wrapper, in every mbfun module
that bound it by name (verify_functional_equation lives in oracle,
merobf and cli; Q in nearly every module), and `uninstall` puts the
originals back.

Timed functions record a span (name, start, end, parent, query id) kept
in memory; the run writes them out at its end.  Functions called about
10^5 times or more per run are only counted, since a span each would
cost more than the call.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, timed?).  Metric names are "<module>.<path>.<stat>".
TARGETS = (
    ("oracle", "minimize_by_oracle", True),
    ("oracle", "verify_functional_equation", True),
    ("oracle", "minimal_b_search", True),
    ("oracle", "prefactored_witness", True),
    ("oracle", "weight_lattice", False),
    ("merobf", "build_sigma", True),
    ("merobf", "annihilating_operators", True),
    ("merobf", "b_section_along_t", True),
    ("groebner", "buchberger", True),
    ("groebner", "normal_form", True),
    ("groebner", "eliminate", True),
    ("multipoly", "MultiPoly.divmod_single", True),
    ("multipoly", "MultiPoly.__mul__", False),
    ("linalg", "solve", True),
    ("linalg", "nullspace", True),
    ("sections", "LaurentSection.cleared_numerator", True),
    ("sections", "DeltaSection.cleared_numerator", True),
    ("sections", "apply_delta_operator", True),
    ("sections", "apply_operator", True),
    ("weyl", "WeylElement.__mul__", True),
    ("annihilator", "ann_fs", True),
    ("vfiltration", "central_intersection", True),
    ("vfiltration", "theta_reduce", True),
    ("rationals", "Q", False),
    ("commutative", "are_coprime", True),
    ("parser", "parse_poly", True),
    ("cli", "main", True),
)

Span = Tuple[str, float, float, int, Optional[str]]


def _coeff_bits(value) -> int:
    return max(int(value.numerator).bit_length(), int(value.denominator).bit_length())


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.stats: Dict[str, int] = defaultdict(int)
        self.query_id: Optional[str] = None
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        """Work counters recorded at the layer boundary."""
        stats = self.stats
        if name == "multipoly.MultiPoly.divmod_single":
            stats[name + ".terms_in"] += len(args[0].terms)
        elif name == "linalg.solve":
            rows, rhs, ncols = args[0], args[1], args[2]
            stats[name + ".rows"] += len(rows)
            stats[name + ".cols"] += ncols
            stats[name + ".nnz"] += sum(len(row) for row in rows)
            bits = max((_coeff_bits(v) for row in rows for v in row.values()), default=0)
            bits = max([bits] + [_coeff_bits(v) for v in rhs if v != 0])
            key = name + ".max_coeff_bits"
            stats[key] = max(stats[key], bits)
            if result is None:
                stats[name + ".unsolvable"] += 1
        elif name == "oracle.verify_functional_equation" and result is not None:
            stats[name + ".hits"] += 1

    def _timed(self, name: str, fn: Callable) -> Callable:
        spans, stack, calls = self.spans, self._stack, self.calls
        observed = name in (
            "multipoly.MultiPoly.divmod_single",
            "linalg.solve",
            "oracle.verify_functional_equation",
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.query_id)
            if observed:
                self._observe(name, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mbfun" or n.startswith("mbfun."))]
        for modname, path, timed in TARGETS:
            name = f"{modname}.{path}"
            home = sys.modules[f"mbfun.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                wrapped = (self._timed if timed else self._counted)(name, original)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(home, path)
            wrapped = (self._timed if timed else self._counted)(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation ---------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """calls, s (inclusive, outermost span of each name only, so
        recursion is not counted twice) and self_s (span minus the spans
        directly inside it) for every target, plus the work counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        incl: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += (end - start) - child[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += end - start
        out: Dict[str, float] = {}
        for modname, path, timed in TARGETS:
            name = f"{modname}.{path}"
            out[name + ".calls"] = self.calls.get(name, 0)
            if timed:
                out[name + ".s"] = incl.get(name, 0.0)
                out[name + ".self_s"] = self_s.get(name, 0.0)
        calls = self.calls
        vfe = "oracle.verify_functional_equation"
        out[vfe + ".hit_ratio"] = self.stats.get(vfe + ".hits", 0) / max(calls.get(vfe, 0), 1)
        div = "multipoly.MultiPoly.divmod_single"
        out[div + ".terms_in"] = self.stats.get(div + ".terms_in", 0)
        sol = "linalg.solve"
        for stat in ("rows", "cols", "nnz", "max_coeff_bits"):
            out[f"{sol}.{stat}"] = self.stats.get(f"{sol}.{stat}", 0)
        out[sol + ".unsolvable_ratio"] = (
            self.stats.get(sol + ".unsolvable", 0) / max(calls.get(sol, 0), 1)
        )
        return out
