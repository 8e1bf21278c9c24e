"""In-memory span tracer for the stringshape library, installed from outside.

The tracer replaces each listed public function with a wrapper that records a
span (name, start, end, parent) around the call.  A function is replaced at
every binding the package holds: the module attribute, each name another
module imported with ``from .x import f``, and the class attribute for
methods.  ``uninstall`` puts every original object back, so code that runs
after it calls the unmodified library.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# Public functions wrapped by the tracer, as "<module>.<qualname>" under the
# stringshape package.  Tiny helpers called per Magnus step (ad, adjoint,
# inv_pose) are left out: their time lands in the caller's self time, and
# wrapping them would multiply the tracing overhead.
TRACED = (
    "liegroup.exp_se3",
    "liegroup.dexp_se3",
    "liegroup.magnus_step",
    "modal.ModalBasis.matrix",
    "modal.ModalBasis.integral",
    "routing.path_velocity",
    "routing.tangential_margin",
    "sensing.lengths",
    "sensing.config_jacobian",
    "sensing.solve_shape",
    "sensing.body_jacobian_multi",
    "sensing.forward_kinematics",
    "sensitivity.sample_admissible",
    "sensitivity.ConstraintSet.admissible",
    "optimizer.brute_force_search",
    "optimizer.planar_peak_search",
    "optimizer.planar_sample_grams",
    "optimizer.optimal_planar_anchors",
    "rodsim.planar_rod_bvp",
    "rodsim.synthetic_spatial_truth",
    "rodsim.convergence_study",
    "studies.planar_config_study",
    "studies.planar_full_study",
    "studies.planar_workspace",
    "studies.soft_workspace",
    "studies.stiff_workspace",
)

PACKAGE = "stringshape"


# Counts read off return values, keyed by traced name.
RESULT_COUNTS = {
    "sensing.solve_shape": lambda result: {"iterations": result.iterations},
    "optimizer.brute_force_search": lambda result: {"singular": int(result.singular.sum())},
    "rodsim.planar_rod_bvp": lambda result: {"iterations": result.iterations},
    "sensitivity.sample_admissible": lambda result: {"accepted": len(result)},
}


class Tracer:
    """Records spans of the wrapped functions while installed.

    Spans are kept as (name index, parent span index, start, end) tuples in
    call order; the parent is -1 for a span with no traced caller.
    """

    def __init__(self, traced=TRACED):
        self.traced = tuple(traced)
        self.names = list(self.traced)
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        index = self.names.index(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        count_fn = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, parent, start, end)
            if count_fn is not None:
                for stat, value in count_fn(result).items():
                    counts[f"{name}.{stat}"] += value
            return result

        return traced

    def install(self):
        """Wrap every traced function at every binding in the loaded package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        try:
            for name in self.traced:
                mod_name, *owner_path, attr = name.split(".")
                owner = sys.modules[f"{PACKAGE}.{mod_name}"]
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original)
                if owner_path:
                    self._rebind(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _rebind(self, namespace, key, original, wrapper):
        setattr(namespace, key, wrapper)
        self._restore.append((namespace, key, original))

    def uninstall(self):
        """Put back every original binding, in reverse order of replacement."""
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per traced name: calls, self time, and counts read off results.

        Self time is a span's duration minus the durations of its direct
        child spans; calls are sequential in one thread, so children never
        overlap.  Also returns the summed self time of all spans.
        """
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid, (index, _, start, end) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += (end - start) - child[sid]
        stats = {}
        for index, name in enumerate(self.names):
            stats[f"{name}.calls"] = calls[index]
            stats[f"{name}.self_s"] = self_s[index]
        stats.update(self.counts)
        return stats, sum(self_s)

    def count_under(self, name, ancestor):
        """Number of spans called `name` that run inside a span called `ancestor`."""
        want = self.names.index(name)
        anc = self.names.index(ancestor)
        inside = [False] * len(self.spans)
        total = 0
        for sid, (index, parent, _, _) in enumerate(self.spans):
            inside[sid] = parent >= 0 and (self.spans[parent][0] == anc or inside[parent])
            if index == want and inside[sid]:
                total += 1
        return total

    def write(self, path):
        """Write every span, times relative to the first span, as gzipped JSON."""
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {"names": self.names,
               "fields": ["name", "parent", "start_s", "end_s"],
               "spans": [[i, p, round(s - t0, 9), round(e - t0, 9)]
                         for i, p, s, e in self.spans]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
