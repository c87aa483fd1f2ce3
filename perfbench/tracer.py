"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions listed in TARGETS with
wrappers, in their defining module and in every `subsym` module that
imported them by name, and `uninstall()` puts the originals back.

A call opens a span when it crosses from one layer into another (or from
the benchmark into a layer) and when the function is a *stage*: a coarse
step whose self time the per-layer metrics name even though its caller
sits in the same layer.  Any other call is only counted, so per-cell
helpers (`symbol_at` inside `window`) cost a counter bump, not a span.
`lattice` is not wrapped at all: its helpers run per cell and their time
stays in their callers' self time.

Spans stay in memory; `spans_jsonl()` serialises them when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time
from collections import defaultdict

STAGE, ENTRY = True, False

# layer -> [(attribute path in the layer's module, stage?)]
TARGETS = {
    "cli": [("main", ENTRY)],
    "specio": [
        ("parse_spec", ENTRY),
        ("build_substitution", ENTRY),
        ("load_spec_file", ENTRY),
        ("load_bundled", ENTRY),
        ("dump_language", ENTRY),
        ("render_pattern_text", ENTRY),
        ("render_pattern_ppm", ENTRY),
    ],
    "substitution": [
        ("apply", STAGE),
        ("power", STAGE),
        ("corner_fixed", ENTRY),
        ("fixed_seeds", STAGE),
        ("is_primitive", STAGE),
        ("is_bijective", STAGE),
        ("corner_fixing_power", STAGE),
        ("Pattern.subpattern_keys", ENTRY),
    ],
    "points": [
        ("AddressablePoint.__init__", ENTRY),
        ("AddressablePoint.symbol_at", ENTRY),
        ("AddressablePoint.window", STAGE),
        ("half_space_fracture_pair", ENTRY),
    ],
    "language": [("patch_language", STAGE)],
    "symmetry": [
        ("aut_group_description", ENTRY),
        ("sym_group_report", ENTRY),
        ("relabel_automorphisms", STAGE),
        ("extended_symmetry_check", STAGE),
        ("transformed_substitution", STAGE),
        ("fracture_normal_witness", ENTRY),
    ],
    "robinson": [
        ("supertile", ENTRY),
        ("four_quadrant_window", ENTRY),
        ("fracture_shift_demo", ENTRY),
        ("verify_patch", ENTRY),
        ("torus_tiling_search", ENTRY),
        ("save_patch_text", ENTRY),
        ("load_patch_text", ENTRY),
        ("render_ppm", ENTRY),
        ("render_svg", ENTRY),
    ],
}

GENERATORS = {"substitution.Pattern.subpattern_keys"}


def _cells(extent) -> int:
    return math.prod(extent)


# span name -> counters taken from (args, result) after the call
MEASURES = {
    "substitution.apply": lambda a, r: {"cells": _cells(r.extent)},
    "points.AddressablePoint.window": lambda a, r: {"cells": _cells(r.extent)},
    "language.patch_language": lambda a, r: {"patterns": len(r.patterns), "depth": r.depth_reached},
    "symmetry.extended_symmetry_check": lambda a, r: {"verdict." + r.verdict: 1},
    "robinson.supertile": lambda a, r: {"cells": len(r.tiles)},
    "robinson.four_quadrant_window": lambda a, r: {"cells": len(r.tiles)},
    "robinson.fracture_shift_demo": lambda a, r: {"cells": len(r.tiles)},
    "robinson.verify_patch": lambda a, r: {"cells": len(a[0].tiles), "violations": len(r)},
    "robinson.torus_tiling_search": lambda a, r: {"decisions": r.decisions},
    "specio.dump_language": lambda a, r: {"bytes": len(r)},
    "specio.render_pattern_text": lambda a, r: {"bytes": len(r)},
    "specio.render_pattern_ppm": lambda a, r: {"bytes": len(r)},
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op")

    def __init__(self, name, layer, start, parent, op):
        self.name, self.layer, self.start, self.end = name, layer, start, None
        self.parent, self.op = parent, op


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.op: int | None = None  # id of the op being run, set by the runner
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- call-site state -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def _caller(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        # a pool worker's first call belongs to whatever the main thread runs
        return self._main_stack[-1] if self._main_stack else None

    def _count(self, name: str, extra: dict) -> None:
        with self._lock:
            self.counts[(name, "calls")] += 1
            for key, value in extra.items():
                self.counts[(name, key)] += value

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, stage: bool):
        measure = MEASURES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            caller = tracer._caller(stack)
            if caller is not None and caller.layer == layer and not stage:
                result = fn(*args, **kwargs)
            else:
                span = Span(name, layer, time.perf_counter(), caller, tracer.op)
                tracer.spans.append(span)
                stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span.end = time.perf_counter()
            tracer._count(name, measure(args, result) if measure else {})
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            for item in fn(*args, **kwargs):
                n += 1
                yield item
            tracer._count(name, {"windows": n})

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "subsym" or n.startswith("subsym.")]
        for layer, targets in TARGETS.items():
            module = sys.modules[f"subsym.{layer}"]
            for path, stage in targets:
                name = f"{layer}.{path}"
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                if name in GENERATORS:
                    wrapper = self._wrap_generator(name, original)
                else:
                    wrapper = self._wrap(name, layer, original, stage)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for other in modules:
                    if getattr(other, attr, None) is original:
                        self._patch(other, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus child coverage)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span.name] += span.end - span.start - covered
        return out

    def spans_jsonl(self) -> str:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        return "".join(
            json.dumps({
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": ids.get(id(s.parent)),
                "op": s.op,
            }) + "\n"
            for i, s in enumerate(self.spans)
        )


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), from self times and counts."""
    st = tracer.self_times()
    c = tracer.counts

    def self_s(*names):
        return sum(st.get(n, 0.0) for n in names)

    def count(name, key="calls"):
        return c.get((name, key), 0)

    patterns = count("language.patch_language", "patterns")
    windows = count("substitution.Pattern.subpattern_keys", "windows")
    lang_calls = count("language.patch_language")
    checks = count("symmetry.extended_symmetry_check")
    render = ("specio.dump_language", "specio.render_pattern_text", "specio.render_pattern_ppm")
    m = {
        "substitution.apply.calls": (count("substitution.apply"), "count"),
        "substitution.apply.cells": (count("substitution.apply", "cells"), "count"),
        "substitution.apply.self_s": (self_s("substitution.apply"), "s"),
        "substitution.power.calls": (count("substitution.power"), "count"),
        "substitution.power.self_s": (self_s("substitution.power"), "s"),
        "substitution.seeds.self_s": (self_s(
            "substitution.fixed_seeds", "substitution.is_primitive",
            "substitution.is_bijective", "substitution.corner_fixing_power"), "s"),
        "points.window.calls": (count("points.AddressablePoint.window"), "count"),
        "points.window.cells": (count("points.AddressablePoint.window", "cells"), "count"),
        "points.window.self_s": (self_s("points.AddressablePoint.window"), "s"),
        "points.symbol_at.calls": (count("points.AddressablePoint.symbol_at"), "count"),
        "points.lookup.self_s": (self_s(
            "points.AddressablePoint.__init__", "points.AddressablePoint.symbol_at"), "s"),
        "language.patch_language.calls": (lang_calls, "count"),
        "language.patch_language.self_s": (self_s("language.patch_language"), "s"),
        "language.patch_language.patterns": (patterns, "count"),
        "language.patch_language.windows": (windows, "count"),
        "language.patch_language.distinct_ratio": (patterns / windows if windows else 0.0, "ratio"),
        "language.patch_language.depth_reached": (
            count("language.patch_language", "depth") / lang_calls if lang_calls else 0.0, "levels"),
        "symmetry.extended_symmetry_check.calls": (checks, "count"),
        "symmetry.extended_symmetry_check.self_s": (self_s("symmetry.extended_symmetry_check"), "s"),
        "symmetry.relabel_automorphisms.self_s": (self_s("symmetry.relabel_automorphisms"), "s"),
        "symmetry.transformed_substitution.calls": (count("symmetry.transformed_substitution"), "count"),
        "symmetry.transformed_substitution.self_s": (self_s("symmetry.transformed_substitution"), "s"),
        "symmetry.candidates_per_verdict": (
            count("symmetry.transformed_substitution") / checks if checks else 0.0, "count"),
    }
    for kind in ("ExactYes", "VerifiedUpTo", "RefutedAt", "SizeMismatch"):
        m[f"symmetry.verdicts.{kind}"] = (count("symmetry.extended_symmetry_check", "verdict." + kind), "count")
    assemble = ("robinson.supertile", "robinson.four_quadrant_window", "robinson.fracture_shift_demo")
    m.update({
        "robinson.assemble.self_s": (self_s(*assemble), "s"),
        "robinson.assemble.cells": (sum(count(n, "cells") for n in assemble), "count"),
        "robinson.verify_patch.calls": (count("robinson.verify_patch"), "count"),
        "robinson.verify_patch.cells": (count("robinson.verify_patch", "cells"), "count"),
        "robinson.verify_patch.self_s": (self_s("robinson.verify_patch"), "s"),
        "robinson.verify_patch.violations": (count("robinson.verify_patch", "violations"), "count"),
        "robinson.torus.self_s": (self_s("robinson.torus_tiling_search"), "s"),
        "robinson.torus.decisions": (count("robinson.torus_tiling_search", "decisions"), "count"),
        "robinson.io.self_s": (self_s(
            "robinson.save_patch_text", "robinson.load_patch_text",
            "robinson.render_ppm", "robinson.render_svg"), "s"),
        "specio.load_s": (self_s(
            "specio.parse_spec", "specio.build_substitution",
            "specio.load_spec_file", "specio.load_bundled"), "s"),
        "specio.render_s": (self_s(*render), "s"),
        "specio.bytes_out": (sum(count(n, "bytes") for n in render), "B"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    })
    return m
