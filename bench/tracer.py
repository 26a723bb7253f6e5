"""In-memory span tracing of calls into cvconf's public functions.

The program itself carries no instrumentation, so the tracer patches it
from outside: every public function of a cvconf module is replaced, in
every cvconf namespace that binds it, by a wrapper that records a span
(name, start, end, parent, thread).  Patching each binding matters
because callers look names up in their own module: ``inference`` calls
its own ``max_quantile`` binding, not ``gaussian_mc.max_quantile``.

The harness's pool work item ``cli_harness._timed_lines`` is wrapped as
well when it exists, so each worker thread's replication time has a
root span.  A root span on a worker thread takes as parent the span the
main thread has open, which is the campaign that submitted the work.

Self time of a span is its duration minus the part covered by child
spans.  Where the children ran on other threads, the covered part is the
parent's wait for them, not its self time.  So on each thread the self
and wait times of its spans add up to the duration of its root spans.
"""

from __future__ import annotations

import functools
import threading
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager


def _count_lasso(args, kwargs, result):
    gram = kwargs.get("gram", args[5] if len(args) > 5 else None)
    return {
        "learners.lasso_sweeps": int(result.iterations or 0),
        "learners.lasso_gram_builds": int(gram is None),
    }


def _count_sgd(args, kwargs, result):
    return {"learners.sgd_steps": int(result.iterations or 0)}


def _count_normals(args, kwargs, result):
    req = args[0] if args else kwargs["req"]
    return {"gaussian_mc.normals_drawn": int(result.draws) * int(req.correlation.shape[0])}


# counters recorded at the boundary of the named function
COUNTERS = {
    "learners.fit_lasso": _count_lasso,
    "learners.fit_sgd": _count_sgd,
    "gaussian_mc.max_quantile": _count_normals,
}

# the harness's per-replication work item, run on the pool threads
POOL_ITEM = ("cli_harness", "_timed_lines")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans and counters while installed; see the module docstring.

    Spans are tuples ``(id, name, start, end, parent, thread)`` with
    ``perf_counter`` times.  ``parent`` is ``None`` for a root span.
    """

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        return stack if stack is not None else self._stacks.setdefault(tid, [])

    def span(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and threading.get_ident() != tracer._main else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if counter is not None:
                add = counter(args, kwargs, result)
                with tracer._lock:
                    tracer.counts.update(add)
            return result

        return traced

    @contextmanager
    def root(self, name: str):
        """A span the benchmark opens itself, with no parent."""
        sid, stack = next(self._ids), self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, None, threading.get_ident()))

    # ------------------------------------------------------------- patching

    def install(self) -> "Tracer":
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") and (short, attr) != POOL_ITEM:
                    continue
                if not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("cvconf."):
                    continue
                wrapper = self._wrappers.get(id(value))
                if wrapper is None:
                    name = _span_name(value)
                    wrapper = self.span(name, value, COUNTERS.get(name))
                    self._wrappers[id(value)] = wrapper
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------- analysis


def _merge(intervals):
    out: list[list[float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _overlap(xs, ys) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(xs) and j < len(ys):
        lo, hi = max(xs[i][0], ys[j][0]), min(xs[i][1], ys[j][1])
        if hi > lo:
            total += hi - lo
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def analyse(spans):
    """Self and wait time per span name, and the per-thread balance.

    Returns ``(self_s, wait_s, calls, threads)``: the first three map a
    span name to seconds or a count; ``threads`` maps a thread id to
    ``(root_s, self_plus_wait_s)``, which agree up to rounding.
    """
    by_id = {s[0]: s for s in spans}
    same: dict[int, list] = defaultdict(list)
    cross: dict[int, list] = defaultdict(list)
    for sid, _, start, end, parent, tid in spans:
        if parent is None or parent not in by_id:
            continue
        (same if by_id[parent][5] == tid else cross)[parent].append((start, end))
    self_s: Counter = Counter()
    wait_s: Counter = Counter()
    calls: Counter = Counter()
    threads: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for sid, name, start, end, parent, tid in spans:
        inside = sum(b - a for a, b in same.get(sid, ()))
        exclusive = (end - start) - inside
        wait = 0.0
        if sid in cross:
            window = [[start, end]]
            clipped = ((max(a, start), min(b, end)) for a, b in cross[sid])
            waited = _merge([(a, b) for a, b in clipped if b > a])
            wait = _overlap(window, waited) - _overlap(_merge(same.get(sid, ())), waited)
        self_s[name] += exclusive - wait
        wait_s[name] += wait
        calls[name] += 1
        if parent is None or parent not in by_id or by_id[parent][5] != tid:
            threads[tid][0] += end - start
        threads[tid][1] += exclusive
    return self_s, wait_s, calls, {t: tuple(v) for t, v in threads.items()}
