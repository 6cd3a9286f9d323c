"""Outside-in instrumentation of ``peierls``, installed from the benchmark.

``Tracer.install`` replaces every public function of every ``peierls``
module namespace that binds it with one timing wrapper per function.
The modules call each other through those namespaces, so calls between
layers are caught without touching the package's source. The callables
handed to the three numerical engines are wrapped too, which counts
integrand, root-function and objective evaluations where they happen.

``timed_point_row`` times each sweep point around the package's per-point
function; it also runs inside pool workers and sends its time back on the
row itself.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

from peierls import sweep as _sweep
from peierls.numerics import ConvergenceError

_perf = time.perf_counter

# engine -> name of the count for the callable it receives first
EVAL_COUNTS = {
    "numerics.integrate_adaptive": "integrand_evals",
    "numerics.solve_increasing": "f_evals",
    "numerics.minimize_box": "objective_evals",
}
# scalar kernels, up to ~1e5 calls per point: counted and timed, kept out of the span log
HOT_LEAVES = {"kernels.h_theta", "kernels.h_eval", "kernels.entropy"}


class Tracer:
    """Per-function calls and self time, evaluation counts, and a span log.

    A span is (id, name, start, end, parent id, point id); self time is a
    span's duration minus the time its child spans cover.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.point_id = None
        self._stack = []
        self._next_id = 0
        self._patched = []

    def install(self, package: str = "peierls") -> None:
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(package + ".")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Calls, self time and counts so far, keyed by metric name."""
        out = {f"{n}.calls": c for n, c in self.calls.items()}
        out.update({f"{n}.self_s": s for n, s in self.self_s.items()})
        out.update(self.counts)
        return out

    def clear(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def _counted(self, f, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return counted

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        calls, self_s, stack = self.calls, self.self_s, self._stack

        if name in HOT_LEAVES:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = _perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = _perf() - t0
                    calls[name] += 1
                    self_s[name] += dur
                    if stack:
                        stack[-1][0] += dur
            return leaf

        eval_key = EVAL_COUNTS.get(name)
        eval_key = eval_key and f"{name}.{eval_key}"
        exhausted_key = f"{name}.budget_exhausted"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if eval_key and args:
                args = (self._counted(args[0], eval_key),) + args[1:]
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            except ConvergenceError:
                self.counts[exhausted_key] += 1
                raise
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                self.spans.append((frame[1], name, t0, t1,
                                   parent[1] if parent else None, self.point_id))
        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,point\n")
            for sid, name, t0, t1, parent, point in self.spans:
                fh.write(f"{sid},{name},{t0!r},{t1!r},{'' if parent is None else parent},"
                         f"{'' if point is None else point}\n")


# the tracer recording in this process, if any; sweep points set its point id
ACTIVE: Tracer | None = None
_POINT_ROW = _sweep._point_row


def timed_point_row(task):
    """The package's per-point function, timed; the time rides on the row."""
    if ACTIVE is not None:
        ACTIVE.point_id = f"{task[0]}{tuple(task[1])}".replace(",", ";").replace(" ", "")
    t0 = _perf()
    row = _POINT_ROW(task)
    object.__setattr__(row, "bench_seconds", _perf() - t0)
    return row


def install_point_timer() -> None:
    _sweep._point_row = timed_point_row
