"""Per-layer tracing of planeaut, installed from outside the package.

Modules import each other's names with `from .x import y`, so a function is
wrapped at every place its callers look it up: `planeaut.cli.parse_endo` as
well as `planeaut.parsing.parse_endo` would be two entries, and operators
are wrapped as class attributes (`CycNum.__mul__` and `CycNum.__rmul__`).

Every wrapped call updates its key's call count, total time and self time
(its duration minus the time of wrapped calls nested inside it).  Calls
into the `cli` and algorithm layers also record a span -- key, start, end,
parent span and request id -- kept in memory until `Tracer.dump`.  The
`cyclotomic` and `poly` operations run far too often for spans and are
only aggregated.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

SPAN_LAYERS = {"cli", "parsing", "prufer", "linearize", "conjugacy", "endo"}


def _targets():
    """(owner, attribute, key) for every lookup site the tracer wraps."""
    import planeaut.cli as cli
    import planeaut.conjugacy as conjugacy
    import planeaut.cyclotomic as cyclotomic
    import planeaut.endo as endo
    import planeaut.linearize as linearize
    import planeaut.prufer as prufer
    from planeaut.cyclotomic import CycNum
    from planeaut.endo import TriangularAffine
    from planeaut.poly import SparsePoly

    out = [(cli, "main", "cli.main")]
    out += [(cli, name, f"parsing.{name}")
            for name in ("parse_endo", "parse_scalar", "parse_triangular")]
    out += [(cli, "verify_formula", "prufer.verify_formula"),
            (prufer, "series_truncation", "prufer.series_truncation")]
    out += [(mod, "conj_closed_form", "prufer.closed_form")
            for mod in (prufer, linearize, conjugacy)]
    out += [(cli, "solve_linearization", "linearize.solve"),
            (linearize, "solve_linearization", "linearize.solve"),
            (cli, "minimal_linearizer_degree", "linearize.min_degree")]
    out += [(cli, name, f"conjugacy.{name}")
            for name in ("necessary_condition", "verify_subgroup_conjugator",
                         "differ_infinitely", "omega0_family")]
    out += [(mod, "compose", "endo.compose") for mod in (cli, endo, prufer, conjugacy)]
    out += [(cli, "conjugate_endo", "endo.conjugate"),
            (prufer, "conjugate", "endo.conjugate"),
            (linearize, "conjugate", "endo.conjugate"),
            (cli, "endo_order", "endo.order"),
            (prufer, "endo_order", "endo.order"),
            (TriangularAffine, "inverse", "endo.inverse")]
    poly_ops = {"__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
                "substitute": "substitute", "__add__": "add", "__radd__": "add",
                "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg"}
    out += [(SparsePoly, attr, f"poly.{op}") for attr, op in poly_ops.items()]
    cyc_ops = {"__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
               "inverse": "inverse", "__truediv__": "div", "__rtruediv__": "div",
               "__add__": "add", "__radd__": "add", "__sub__": "sub",
               "__rsub__": "sub", "__neg__": "neg"}
    out += [(CycNum, attr, f"cyclotomic.{op}") for attr, op in cyc_ops.items()]
    out += [(linearize, "multiplicative_order", "cyclotomic.root_scan"),
            (cyclotomic, "as_root_of_unity", "cyclotomic.root_scan")]
    return out


class Tracer:
    """Counts, total and self time per key, and spans per request."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, self
        self.irrational_inverses = 0
        self.spans: list[tuple] = []
        self.request = None
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    def reset(self):
        self.stats.clear()
        self.irrational_inverses = 0
        self.spans.clear()

    def _wrap(self, original, key: str):
        stats, stack, spans = self.stats, self._stack, self.spans
        clock = time.perf_counter
        span = key.split(".", 1)[0] in SPAN_LAYERS
        irrational = key == "cyclotomic.inverse"
        tracer = self

        def wrapper(*args, **kwargs):
            if irrational and args[0].level:
                tracer.irrational_inverses += 1
            frame = [clock(), 0.0, None]
            if span:
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                frame[2] = len(spans)
                spans.append([tracer.request, key, frame[0], None, parent])
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                entry = stats[key]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span:
                    spans[frame[2]][3] = end

        return wrapper

    def install(self):
        for owner, attr, key in _targets():
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, key))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------

    def layer(self, layer: str) -> tuple[int, float]:
        """(calls, self seconds) summed over every key of one layer."""
        calls, self_s = 0, 0.0
        for key, (n, _, s) in self.stats.items():
            if key.split(".", 1)[0] == layer:
                calls += n
                self_s += s
        return calls, self_s

    def requests_reaching(self, layer: str) -> int:
        return len({span[0] for span in self.spans
                    if span[1].split(".", 1)[0] == layer})

    def dump(self, path) -> None:
        record = {
            "stats": {key: {"calls": n, "total_s": t, "self_s": s}
                      for key, (n, t, s) in sorted(self.stats.items())},
            "irrational_inverses": self.irrational_inverses,
            "spans": [{"request": r, "key": k, "start": a, "end": b, "parent": p}
                      for r, k, a, b, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(record, fh)
