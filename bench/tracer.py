"""Outside-in tracer: spans around every public function of the bblab modules.

bblab modules import functions by name (``from .supconv import deficit``), so
one function object is bound in several module namespaces; ``cli`` binds
every entry point and ``transport`` looks ``sup_convolution`` up in
``bblab.supconv`` at call time.  ``install`` therefore replaces every binding
of a wrapped function object in every loaded ``bblab`` module, and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Each span records name, start, end, parent span, job id and whether it
raised.  Spans stay in memory until the run summarises them.  Counters named
in COUNTERS are computed from a call's arguments or result (input sizes, or
a count the program reports), not counted inside the program.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types

import numpy as np

MODULES = ("cli", "gridfn", "means", "supconv", "hull", "transport", "stability", "lab")

# span fields
NAME, START, END, PARENT, JOB, ERROR = range(6)


def _support(f) -> int:
    return int(np.count_nonzero(f.values > 0))


def _extent(f):
    """Per-axis (min, max) index of the positive cells; f has some."""
    pos = np.argwhere(f.values > 0)
    return pos.min(axis=0), pos.max(axis=0)


def _bbox_cells(f) -> int:
    if not _support(f):
        return 0
    lo, hi = _extent(f)
    return int(np.prod(hi - lo + 1))


def _shift_window(r, f, g, *_, **__):
    """(2W+1)^dim shifts tried by the best-shift search inside this call."""
    n = 1
    for lo_f, hi_f, lo_g, hi_g in zip(*_extent(f), *_extent(g)):
        n *= 2 * ((hi_f - lo_f) + (hi_g - lo_g) + 1) + 1
    return {"stability.best_shift.window": n}


def _deficit(r, f, g, h, params, verify=True):
    pairs = _support(f) * _support(g) if verify else 0
    return {"pairs": pairs, "violations": r.pointwise_violations}


def _shave(r, f, *_, **__):
    n = _support(f)
    return {"dictionary_bound": n * (n - 1) // 2, "removed": r[1]}


# "<module>.<function>": counters(result, *args, **kwargs) -> {name: value},
# called with the wrapped call's own arguments; a name without a dot is
# appended to the function's name.  Every counter is computed from sizes
# except where the comment says the program reports the value.
COUNTERS = {
    "supconv.deficit": _deficit,  # violations: reported
    "supconv.sup_convolution":
        lambda r, f, g, *_, **__: {"pairs": _support(f) * _bbox_cells(g)},
    "supconv.minkowski_combination":
        lambda r, A, B, *_, **__: {"pairs": A.cell_count * B.cell_count},
    "means.p_mean_arr": lambda r, *_, **__: {"elems": r.size},
    "stability.certify_symmetric_difference": _shift_window,
    "stability.shave": _shave,  # removed: reported
    "hull.p_concave_hull":  # facets: reported
        lambda r, f, *_, **__: {"facets": len(r.facets), "support_cells": _support(f)},
    "hull.is_p_concave": lambda r, f, *_, **__: {"pairs": _support(f) ** 2},
    "gridfn.load_gfn": lambda r, path: {"bytes": os.path.getsize(path)},
    "gridfn.dump_gfn": lambda r, f, path: {"bytes": os.path.getsize(path)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple] = []  # (span index, counter name, value)
        self.job = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.job, False])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[i][ERROR] = True
                raise
            finally:
                spans[i][END] = clock()
                stack.pop()
            if counter:
                for key, value in counter(result, *args, **kwargs).items():
                    counts.append((i, key, value))
            return result

        return traced

    def install(self):
        """Wrap the public functions of MODULES wherever a bblab module binds them."""
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"bblab.{short}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "bblab" and not modname.startswith("bblab."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore.clear()


# Derived per pass: rate = base count / busy time of the same function.
RATES = {
    "supconv.deficit.pairs_per_s": ("supconv.deficit.pairs", "supconv.deficit.s"),
    "supconv.sup_convolution.pairs_per_s": ("supconv.sup_convolution.pairs",
                                            "supconv.sup_convolution.s"),
    "means.p_mean_arr.elems_per_s": ("means.p_mean_arr.elems", "means.p_mean_arr.s"),
    "hull.is_p_concave.pairs_per_s": ("hull.is_p_concave.pairs", "hull.is_p_concave.s"),
    "supconv.minkowski_combination.pairs_per_s": ("supconv.minkowski_combination.pairs",
                                                  "supconv.minkowski_combination.s"),
}


def summarize(spans, counts, jobs) -> dict:
    """Per-function calls, busy time, self time, errors and counters, summed
    over the spans whose job id is in ``jobs``, plus RATES and the Minkowski
    calls per level_diagnostics call."""
    stats: dict[str, float] = {}
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]

    def add(key, value):
        stats[key] = stats.get(key, 0.0) + value

    n_spans = 0
    self_total = 0.0
    minkowski_in_diag = 0
    for i, sp in enumerate(spans):
        if sp[JOB] not in jobs:
            continue
        n_spans += 1
        dur = sp[END] - sp[START]
        name = sp[NAME]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", dur - child[i])
        self_total += dur - child[i]
        add(f"{name}.errors", int(sp[ERROR]))
        if not _under(spans, i, name):  # count a recursive call's time once
            add(f"{name}.s", dur)
        if (name == "supconv.minkowski_combination"
                and _under(spans, i, "transport.level_diagnostics")):
            minkowski_in_diag += 1
    for i, key, value in counts:
        if spans[i][JOB] in jobs:
            add(key if "." in key else f"{spans[i][NAME]}.{key}", value)
    for name, (count, secs) in RATES.items():
        t = stats.get(secs, 0.0)
        stats[name] = stats.get(count, 0.0) / t if t > 0 else 0.0
    diag = stats.get("transport.level_diagnostics.calls", 0.0)
    stats["transport.level_diagnostics.intervals"] = minkowski_in_diag / diag if diag else 0.0
    stats["trace.spans"] = n_spans
    stats["trace.self_s"] = self_total
    return stats


def _under(spans, i, name) -> bool:
    """Whether span i has an ancestor span called ``name``."""
    j = spans[i][PARENT]
    while j >= 0:
        if spans[j][NAME] == name:
            return True
        j = spans[j][PARENT]
    return False
