"""In-memory span tracing of equiflow layers from outside the package.

A Tracer wraps functions of the equiflow modules and rebinds each wrapped
name in every module that imported it, so calls made inside the package
are seen too.  Each call records one span (name, start, end, parent);
spans stay in memory until the run ends.  Self time is a span's duration
minus the durations of its direct children, which never overlap because
the program is single-threaded.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# layers whose public functions are traced
TRACED_MODULES = (
    "radial_grid",
    "harmonic_family",
    "evolve_llg",
    "gauge",
    "modulation",
    "scenarios",
    "cli_io",
)

# private or foreign names traced as well: (module, attribute path, span name)
EXTRA_TARGETS = (
    ("evolve_llg", "_VectorWork.assemble", "evolve_llg.assemble"),
    ("evolve_llg", "solve_banded", "evolve_llg.solve_banded"),
    ("gauge", "_transport_frame", "gauge.transport_frame"),
    ("cli_io", "_write_table", "cli_io._write_table"),
)

# the untraced run wraps only the calls that delimit the phases: the
# stepper and observable calls of `simulate`, and the three gauge-API
# calls the round trip makes; at most about a hundred calls per iteration
PHASE_TARGETS = (
    ("evolve_llg", "run_vector", "evolve_llg.run_vector"),
    ("evolve_llg", "run_scalar", "evolve_llg.run_scalar"),
    ("cli_io", "series_observables", "cli_io.series_observables"),
    ("modulation", "fit_mu", "modulation.fit_mu"),
    ("gauge", "hasimoto_forward", "gauge.hasimoto_forward"),
    ("gauge", "reconstruct_v", "gauge.reconstruct_v"),
)

# solve_banded serves both steppers; its spans are split by the caller
_SPLIT_BY_PARENT = {
    "evolve_llg.solve_banded": {
        "evolve_llg.step_vector": "evolve_llg.solve_banded.vector",
        "evolve_llg.step_scalar": "evolve_llg.solve_banded.scalar",
    }
}


class Tracer:
    """Records spans of wrapped calls; install() patches, restore() undoes."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.results: dict[str, list] = defaultdict(list)
        self.keep_results: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # patching

    def _wrap(self, name: str, fn):
        names, start, end, parent, stack = (
            self.names, self.start, self.end, self.parent, self._stack
        )
        split = _SPLIT_BY_PARENT.get(name)
        keep = name in self.keep_results
        results = self.results[name]

        def traced(*args, **kwargs):
            up = stack[-1] if stack else -1
            label = name
            if split is not None and up >= 0:
                label = split.get(names[up], name)
            idx = len(names)
            names.append(label)
            parent.append(up)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if keep:
                results.append(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package, targets) -> None:
        """Wrap each (module, attribute path, span name) target and rebind
        every equiflow module attribute that referred to the original."""
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for mod_name, path, span in targets:
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis

    def mark(self) -> int:
        """Span count so far; spans recorded after a mark form one window."""
        return len(self.names)

    def retime(self, clock) -> None:
        """Map every recorded start and end time through clock."""
        if self.names:
            self.start[:] = clock(self.start).tolist()
            self.end[:] = clock(self.end).tolist()

    def durations(self, name: str) -> list[float]:
        return [e - b for n, b, e in zip(self.names, self.start, self.end) if n == name]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total inclusive s, total self s)."""
        child = defaultdict(float)
        for up, b, e in zip(self.parent, self.start, self.end):
            if up >= 0:
                child[up] += e - b
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            row = table[name]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {key: tuple(row) for key, row in table.items()}

    def boundaries(self, lo: int, hi: int) -> list[tuple[float, str]]:
        """Span starts ('+name') and ends ('-name') in the window, in time order."""
        events = [(self.start[i], "+" + self.names[i]) for i in range(lo, hi)]
        events += [(self.end[i], "-" + self.names[i]) for i in range(lo, hi)]
        events.sort()
        return events

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: index, name, start, end, parent."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{name},{self.start[i] - origin:.9f},"
                    f"{self.end[i] - origin:.9f},{self.parent[i]}\n"
                )


def public_targets(package) -> list[tuple[str, str, str]]:
    """Every public function defined in a traced module, plus the extras."""
    targets = []
    for mod_name in TRACED_MODULES:
        mod = sys.modules[f"{package.__name__}.{mod_name}"]
        for key, value in vars(mod).items():
            if (
                not key.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod.__name__
            ):
                targets.append((mod_name, key, f"{mod_name}.{key}"))
    return targets + list(EXTRA_TARGETS)


def phase_times(tracer: Tracer, window, evolve: set[str], observe: set[str]) -> dict:
    """Split one iteration's wall time into phases by its spans.

    `window` is (first span, end span, start time, end time).  Time is
    evolve time while a span named in `evolve` is open, observe time while
    one in `observe` is open (and no evolve span), set-up time before the
    first such span opens, and other time after.
    """
    lo, hi, t0, t1 = window
    phases = {"setup_s": 0.0, "evolve_s": 0.0, "observe_s": 0.0, "other_s": 0.0}
    open_spans: dict[str, int] = defaultdict(int)
    started = False
    last = t0
    for t, label in tracer.boundaries(lo, hi) + [(t1, "")]:
        if any(open_spans[name] for name in evolve):
            phases["evolve_s"] += t - last
        elif any(open_spans[name] for name in observe):
            phases["observe_s"] += t - last
        else:
            phases["other_s" if started else "setup_s"] += t - last
        last = t
        if label:
            name = label[1:]
            open_spans[name] += 1 if label[0] == "+" else -1
            started = started or name in evolve or name in observe
    phases["wall_s"] = t1 - t0
    return phases
