"""Span tracing around the package's public functions, installed from outside.

The tracer replaces each public function in ``TARGETS`` by a wrapper, in
every ``rootstrings`` module namespace that holds it, and restores the
originals on ``uninstall``.  The package's own files are never edited.

A span records its name, start, end, parent span and request id.  Functions
called once per matrix entry or per recursion step would produce millions of
spans, so their calls are rolled up: one record per (request, parent span,
name) with the call count, the summed duration, the first start and the last
end.  Every wrapped call, rolled up or not, feeds the per-layer busy and self
times, the per-group times and calls, and the error counts.  Everything stays
in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("field", "cartan", "cartanfile", "reflection", "selfcheck", "cli")

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__", "inverse")

# (module, attribute, group, one span per call).  A group is the unit that
# per-layer metrics report: its calls, and its busy time with nested calls of
# the same group counted once.
TARGETS = (
    *(("field", f"FieldElement.{m}", "field.arith", False) for m in _ARITH),
    ("field", "FieldSpec.element", "field.element", False),
    ("field", "is_prime", "field.validate", True),
    ("field", "check_irreducible", "field.validate", True),
    ("cartan", "d_next", "cartan.d_next", False),
    ("cartan", "pair_datum", "cartan.pair_datum", False),
    ("cartan", "b_recursive", "cartan.b_recursive", False),
    ("cartan", "b_closed", "cartan.b_closed", False),
    ("cartan", "b_table", "cartan.b_table", True),
    ("cartan", "d_sequence", "cartan.d_sequence", True),
    ("cartanfile", "parse_cartan", "cartanfile.parse", True),
    ("cartanfile", "render_document", "cartanfile.render", True),
    ("cartanfile", "encode_entry", "cartanfile.encode", False),
    ("cartanfile", "encode_bvalue", "cartanfile.encode", False),
    ("cartanfile", "field_doc", "cartanfile.encode", False),
    ("reflection", "reflect", "reflection.reflect", True),
    ("reflection", "basis_determinant", "reflection.determinant", True),
    ("reflection", "unimodularity_check", "reflection.unimodularity", True),
    ("selfcheck", "run_selfcheck", "selfcheck.run", True),
    ("selfcheck", "field_for", "selfcheck.field_setup", True),
    ("selfcheck", "find_irreducible", "selfcheck.find_irreducible", True),
    ("selfcheck", "check_field", "selfcheck.check_field", True),
    ("cli", "main", "cli.main", True),
)


def _steps(state, result, kwargs):
    # Sum of (B + 1) over returned bounds: the steps the recursion ran, however
    # the recursion is written.
    state["recursion_steps"] += (result.value if result.is_finite
                                 else kwargs.get("scan_cap", 1000)) + 1


def _entries(state, result, kwargs):
    state["entries_parsed"] += result.n ** 2


def _bytes(state, result, kwargs):
    state["bytes_rendered"] += len(result.encode("utf-8"))


_HOOKS = {"b_recursive": _steps, "parse_cartan": _entries, "render_document": _bytes}


class Tracer:
    """Collects spans and per-layer totals for one benchmark run."""

    def __init__(self) -> None:
        self.request = -1
        self.spans: list = []      # [name, start, end, parent, request]
        self.rollups: dict = {}    # (request, parent, name) -> [calls, busy, first, last]
        self.requests: list = []   # [request, label, start, end]
        self.calls = defaultdict(int)    # per name and per group
        self.group_s = defaultdict(float)
        self.busy_s = defaultdict(float)  # per layer
        self.self_s = defaultdict(float)  # per layer
        self.errors = defaultdict(int)    # per layer
        self.counts = defaultdict(int)
        self._open: list[int] = []        # ids of open stored spans
        self._stack: list[list[float]] = []  # child time of each open call
        self._depth = defaultdict(int)
        self._installed: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, layer, group, stored):
        perf = time.perf_counter
        spans, rollups, stack, open_ids = self.spans, self.rollups, self._stack, self._open
        depth, calls, group_s = self._depth, self.calls, self.group_s
        busy_s, self_s, errors = self.busy_s, self.self_s, self.errors
        hook = _HOOKS.get(fn.__name__)
        counts = self.counts

        def wrapper(*args, **kwargs):
            parent = open_ids[-1] if open_ids else -1
            if stored:
                sid = len(spans)
                spans.append(None)
                open_ids.append(sid)
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            depth[group] += 1
            escaped = True
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                escaped = False
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s[layer] += dur - frame[0]
                if depth[layer] == 1:
                    busy_s[layer] += dur
                    if escaped:
                        errors[layer] += 1
                if depth[group] == 1:
                    group_s[group] += dur
                depth[layer] -= 1
                depth[group] -= 1
                calls[name] += 1
                if group != name:
                    calls[group] += 1
                if stored:
                    open_ids.pop()
                    spans[sid] = [name, t0, t1, parent, self.request]
                else:
                    key = (self.request, parent, name)
                    roll = rollups.get(key)
                    if roll is None:
                        rollups[key] = [1, dur, t0, t1]
                    else:
                        roll[0] += 1
                        roll[1] += dur
                        roll[3] = t1
            if hook is not None:
                hook(counts, result, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_elements(self, fn):
        """Count validated constructions: calls of __post_init__, which a
        constructor that skips validation would not make."""
        counts = self.counts

        def post_init(element):
            counts["elements_built"] += 1
            return fn(element)

        return post_init

    def install(self) -> None:
        """Wrap every target; the package must already be imported."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "rootstrings" or name.startswith("rootstrings.")}
        for module, attr, group, stored in TARGETS:
            mod = mods[f"rootstrings.{module}"]
            layer = group.split(".")[0]
            if "." in attr:
                owner_name, meth = attr.split(".")
                owner = getattr(mod, owner_name)
                fn = owner.__dict__[meth]
                self._replace(owner, meth, self._wrap(fn, f"{module}.{attr}", layer, group, stored))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(fn, f"{module}.{attr}", layer, group, stored)
            for namespace in mods.values():
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        self._replace(namespace, key, wrapper)
        element = mods["rootstrings.field"].FieldElement
        self._replace(element, "__post_init__",
                      self._count_elements(element.__dict__["__post_init__"]))

    def _replace(self, owner, key, value) -> None:
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- bench-side spans -------------------------------------------------

    def begin_request(self, request: int, label: str) -> None:
        self.request = request
        self.requests.append([request, label, time.perf_counter(), None])

    def end_request(self) -> None:
        self.requests[-1][3] = time.perf_counter()
        self.request = -1

    def record_span(self, name: str, t0: float, t1: float) -> None:
        """A span the benchmark timed itself, outside any wrapped call and
        outside the layer totals."""
        self.spans.append([name, t0, t1, -1, self.request])

    # -- output -----------------------------------------------------------

    def state(self) -> dict:
        return {
            "spans": self.spans,
            "rollups": [[*key, *value] for key, value in self.rollups.items()],
            "requests": self.requests,
            **{key: dict(getattr(self, key)) for key in
               ("calls", "group_s", "busy_s", "self_s", "errors", "counts")},
        }

    def merge(self, state: dict) -> None:
        """Add the state a traced child process dumped."""
        offset = len(self.spans)
        for name, t0, t1, parent, request in state["spans"]:
            self.spans.append([name, t0, t1, parent + offset if parent >= 0 else -1, request])
        for request, parent, name, calls, busy, first, last in state["rollups"]:
            key = (request, parent + offset if parent >= 0 else -1, name)
            self.rollups[key] = [calls, busy, first, last]
        for key in ("calls", "group_s", "busy_s", "self_s", "errors", "counts"):
            mine = getattr(self, key)
            for name, value in state[key].items():
                mine[name] += value

    def dump(self, path) -> None:
        """Write spans and roll-ups as JSON lines: one header line with the
        totals, then one line per span and one per roll-up."""
        with open(path, "w", encoding="utf-8") as out:
            totals = {key: value for key, value in self.state().items()
                      if key not in ("spans", "rollups")}
            out.write(json.dumps({"totals": totals}) + "\n")
            for sid, (name, t0, t1, parent, request) in enumerate(self.spans):
                out.write(json.dumps({"span": sid, "name": name, "start": t0, "end": t1,
                                      "parent": parent, "request": request}) + "\n")
            for (request, parent, name), (calls, busy, first, last) in self.rollups.items():
                out.write(json.dumps({"rollup": name, "calls": calls, "busy_s": busy,
                                      "start": first, "end": last, "parent": parent,
                                      "request": request}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics, by the names BENCHMARK.json lists, without units."""
        g, c = self.group_s, self.calls
        request_s = sum(end - start for _, _, start, end in self.requests)
        m = {
            "field.arith_calls": c["field.arith"],
            "field.arith_s": g["field.arith"],
            "field.elements_built": self.counts["elements_built"],
            "field.validate_s": g["field.validate"],
            "field.is_prime_calls": c["field.is_prime"],
            "field.check_irreducible_calls": c["field.check_irreducible"],
            "cartan.b_recursive_calls": c["cartan.b_recursive"],
            "cartan.b_recursive_s": g["cartan.b_recursive"],
            "cartan.recursion_steps": self.counts["recursion_steps"],
            "cartan.b_closed_calls": c["cartan.b_closed"],
            "cartan.b_closed_s": g["cartan.b_closed"],
            "cartan.b_table_s": g["cartan.b_table"],
            "cartanfile.parse_s": g["cartanfile.parse"],
            "cartanfile.entries_parsed": self.counts["entries_parsed"],
            "cartanfile.render_s": g["cartanfile.render"],
            "cartanfile.bytes_rendered": self.counts["bytes_rendered"],
            "reflection.reflect_s": g["reflection.reflect"],
            "reflection.determinant_calls": c["reflection.determinant"],
            "reflection.determinant_s": g["reflection.determinant"],
            "selfcheck.field_setup_s": g["selfcheck.field_setup"],
            "selfcheck.check_field_s": g["selfcheck.check_field"],
        }
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = self.busy_s[layer]
            m[f"{layer}.self_s"] = self.self_s[layer]
            m[f"{layer}.self_share"] = self.self_s[layer] / request_s if request_s else 0.0
            m[f"{layer}.errors"] = self.errors[layer]
        return m
