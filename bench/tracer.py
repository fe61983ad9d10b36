"""In-memory span tracer that wraps failsafe's public functions from outside.

The tracer replaces a function at every name its callers look it up by:
the attribute on its class for methods, and for plain functions every
module global (and every module-level dict value, such as the assistant
table) across the ``failsafe`` package that is bound to the same object.
Each call records one span (function id, start, end, parent span) into
flat arrays; nothing is written until the caller asks for it. ``restore``
puts every original binding back.

Two kinds of target exist: ``span`` functions get a span per call, and
``count`` functions only bump a call counter (used for ``Pose``
construction, which is too frequent and too cheap to time).
Optional hooks see each call's arguments and result after the span closed;
they feed the ratios that need more than a call count.
"""

import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute path, kind)
TARGETS = (
    ("sim.step", "failsafe.sim", "Simulator.step", "span"),
    ("sim.observe", "failsafe.sim", "Simulator.observe", "span"),
    ("sim.evaluate_success", "failsafe.sim", "Simulator.evaluate_success", "span"),
    ("geometry.Pose", "failsafe.geometry", "Pose.__post_init__", "count"),
    ("tasks.plan_task", "failsafe.tasks", "plan_task", "span"),
    ("tasks.rollout_plan", "failsafe.tasks", "rollout_plan", "span"),
    ("failures.generate_failure_case", "failsafe.failures", "generate_failure_case", "span"),
    ("recovery.collect_candidates", "failsafe.recovery", "collect_candidates", "span"),
    ("verifier.verify_candidate", "failsafe.verifier", "verify_candidate", "span"),
    ("verifier.reverify_entries", "failsafe.verifier", "reverify_entries", "span"),
    ("dataset.build_entry", "failsafe.dataset", "build_entry", "span"),
    ("dataset.build_gt_entries", "failsafe.dataset", "build_gt_entries", "span"),
    ("dataset.write_dataset", "failsafe.dataset", "write_dataset", "span"),
    ("dataset.read_dataset", "failsafe.dataset", "read_dataset", "span"),
    ("dataset.enforce_ratio", "failsafe.dataset", "enforce_ratio", "count"),
    ("supervisor.sample_harness_fault", "failsafe.supervisor", "sample_harness_fault", "span"),
    ("supervisor.run_supervised_episode", "failsafe.supervisor", "run_supervised_episode", "span"),
    ("supervisor.oracle_assistant_decide", "failsafe.supervisor", "oracle_assistant_decide", "span"),
    ("pipeline.build_seed_entries", "failsafe.pipeline", "build_seed_entries", "span"),
    ("pipeline.run_episode_pair", "failsafe.pipeline", "run_episode_pair", "span"),
    ("pipeline.generate_task_entries", "failsafe.pipeline", "generate_task_entries", "span"),
    ("pipeline.write_manifest", "failsafe.pipeline", "write_manifest", "span"),
    ("cli.cli_main", "failsafe.cli", "cli_main", "span"),
)

# Counted only to feed a ratio; never reported as a function of their own.
HELPER_TARGETS = ("dataset.enforce_ratio",)

TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        # n * (100 - p) / 100 >= 10, in hundredths of a percent to stay exact
        if n * (10000 - round(p * 100)) >= TAIL_MIN_BEYOND * 10000:
            best = p
    return best


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 when empty)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = max(1, -(-n * round(p * 100) // 10000))  # ceil(p / 100 * n)
    return float(sorted_values[min(rank, n) - 1])


def _failsafe_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "failsafe" or name.startswith("failsafe."))
    ]


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans for TARGETS while installed. Not thread-safe; the
    benchmark drives failsafe from one thread."""

    def __init__(self, hooks=None):
        self.names = [t[0] for t in TARGETS]
        self.hooks = dict(hooks or {})
        self.fid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts = [0] * len(TARGETS)
        self._stack = []
        self._on = [False]
        self._bindings = []  # (how, container, key, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = _failsafe_modules()
        for fid, (_, module_name, path, kind) in enumerate(TARGETS):
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(fid, original, kind)
            if isinstance(owner, type):
                self._bind("attr", owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind("attr", module, key, original, wrapper)
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._bind("item", value, dkey, original, wrapper)
        self._on[0] = True

    def _bind(self, how, container, key, original, wrapper):
        if how == "attr":
            setattr(container, key, wrapper)
        else:
            container[key] = wrapper
        self._bindings.append((how, container, key, original))

    def restore(self):
        self._on[0] = False
        for how, container, key, original in reversed(self._bindings):
            if how == "attr":
                setattr(container, key, original)
            else:
                container[key] = original
        self._bindings.clear()
        self._stack.clear()

    def _wrap(self, fid, fn, kind):
        counts = self.counts
        on = self._on
        if kind == "count":
            hook = self.hooks.get(self.names[fid])

            def counted(*args, **kwargs):
                if on[0]:
                    counts[fid] += 1
                    if hook is not None:
                        result = fn(*args, **kwargs)
                        hook(args, kwargs, result, -1)
                        return result
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            counted.__bench_wrapper__ = True
            return counted

        fids, starts, ends, parents = self.fid, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter
        hook = self.hooks.get(self.names[fid])

        def spanned(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            counts[fid] += 1
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, index)
            return result

        spanned.__wrapped__ = fn
        spanned.__bench_wrapper__ = True
        spanned.__name__ = getattr(fn, "__name__", "wrapped")
        spanned.__qualname__ = getattr(fn, "__qualname__", spanned.__name__)
        spanned.__module__ = getattr(fn, "__module__", None)
        return spanned

    # -- reading ----------------------------------------------------------

    def span_arrays(self):
        """(function id, start, end, parent index) of every span, as arrays."""
        return (
            np.array(self.fid, dtype=np.uint16),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int64),
        )

    def summary(self):
        """Per-function sample durations (seconds, ascending) and self time.

        Self time is a span's duration minus the durations of its direct
        child spans; children never outlive their parent, so no interval
        is subtracted twice.
        """
        fid, start, end, parent = self.span_arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        if has_parent.any():
            np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mask = fid == i
            out[name] = {
                "calls": self.counts[i],
                "durations": np.sort(dur[mask]),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def child_calls(self, child_name, parent_name) -> int:
        """Spans of child_name whose direct parent span is parent_name."""
        fid, _, _, parent = self.span_arrays()
        c, p = self.names.index(child_name), self.names.index(parent_name)
        mask = (fid == c) & (parent >= 0)
        return int((fid[parent[mask]] == p).sum())

    def bound_wrappers(self):
        """Every failsafe binding that still holds one of our wrappers."""
        found = []
        for module in _failsafe_modules():
            for key, value in vars(module).items():
                if getattr(value, "__bench_wrapper__", False):
                    found.append(f"{module.__name__}.{key}")
                elif isinstance(value, type):
                    for attr, member in vars(value).items():
                        if getattr(member, "__bench_wrapper__", False):
                            found.append(f"{module.__name__}.{key}.{attr}")
                elif type(value) is dict:
                    for dkey, dvalue in value.items():
                        if getattr(dvalue, "__bench_wrapper__", False):
                            found.append(f"{module.__name__}.{key}[{dkey!r}]")
        return found
