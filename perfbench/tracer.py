"""Out-of-program tracing for the benchmark.

The tracer replaces each public function of the `pca_ergo` modules, at every
module attribute it is bound under, with a wrapper that records one span per
call: name, start, end, parent span and round.  Spans are recorded only while
`active` is set, which the workloads do inside their timed parts, so the
untimed output checks leave no spans.  Nothing under `src/` changes; the
wrappers live only in this process and are removed by `uninstall`.

Spans are kept in flat arrays and written out once, by `write_csv`.
"""
from __future__ import annotations

import time
import types
from array import array
from collections import Counter


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Items a call processes, computed from its arguments and result.  Functions
# not listed count one item per call.
ITEMS = {
    "params.condition_holds_batch": lambda a, k, r: len(_arg(a, k, 0, "quads")),
    "sweep.volume_estimate": lambda a, k, r: _arg(a, k, 0, "samples"),
    "sweep.epsilon_sweep": lambda a, k, r: (len(_arg(a, k, 0, "codes"))
                                            * len(_arg(a, k, 1, "grid"))),
    "sweep.renewal_experiment": lambda a, k, r: _arg(a, k, 2, "runs"),
    "walk.empirical_drift": lambda a, k, r: (_arg(a, k, 2, "steps")
                                             + _arg(a, k, 3, "burn_in")),
    "walk.simulate_island": lambda a, k, r: r[-1].t,
    "refined.simulate_refined": lambda a, k, r: (_arg(a, k, 1, "steps")
                                                 + _arg(a, k, 2, "burn_in")),
    "envelope.step_uniforms": lambda a, k, r: _arg(a, k, 2, "n"),
    "envelope.envelope_step": lambda a, k, r: _arg(a, k, 0, "ring").n,
    "envelope.run_to_decorrelation": lambda a, k, r: (
        r[0] if r[0] is not None else _arg(a, k, 2, "max_steps")),
}


class Tracer:
    """Span recorder; `install` wraps, `uninstall` restores."""

    def __init__(self, modules: dict, holders: list, renewal_threshold: int):
        self.modules = modules          # layer name -> module object
        self.holders = holders          # every module whose names get patched
        self.renewal_threshold = renewal_threshold
        self.active = False
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("q")
        self.end = array("q")
        self.items = array("d")
        self.tags: dict = {}            # span index -> tag (cli subcommand)
        self.counts: Counter = Counter()  # (round, key) -> renewal step counts
        self.current_round = -1
        self._stack: list = []
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        items_fn = ITEMS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.round.append(tracer.current_round)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.items.append(1.0)
            if name == "cli.main":
                argv = _arg(args, kwargs, 0, "argv")
                tracer.tags[idx] = next(
                    (v for v in argv if not v.startswith("-")), "?")
            tracer._stack.append(idx)
            tracer.start[idx] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter_ns()
                tracer._stack.pop()
            if items_fn is not None:
                tracer.items[idx] = items_fn(args, kwargs, result)
            if name == "walk.simulate_island":
                tracer._count_renewal_steps(idx, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function at every name it is bound under."""
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(obj, f"{layer}.{attr}")
                for holder in self.holders:
                    for hname, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            self._restore.append((holder, hname, obj))
                            setattr(holder, hname, wrapped)
        cls = self.modules["envelope"].CoupledTriple
        self._restore.append((cls, "check_dominance", cls.check_dominance))
        cls.check_dominance = self._wrap(cls.check_dominance,
                                         "envelope.check_dominance")

    def _count_renewal_steps(self, idx: int, traj) -> None:
        """Useful island steps: up to the gap reaching the threshold, or death."""
        p = self.parent[idx]
        if p < 0 or self.name(p) != "sweep.renewal_experiment":
            return
        useful = next((s.t for s in traj if s.j - s.i >= self.renewal_threshold),
                      traj[-1].t)
        self.counts[self.current_round, "renewal_useful_steps"] += useful
        self.counts[self.current_round, "renewal_steps"] += traj[-1].t

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._restore):
            setattr(holder, attr, obj)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def self_ns(self) -> list:
        """Per span: its duration minus the part its child spans cover."""
        own = [self.end[i] - self.start[i] for i in range(len(self))]
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write_csv(self, path) -> None:
        """Write every span as one CSV row; written once, at the end."""
        with open(path, "w") as fh:
            fh.write("span,name,parent,round,start_ns,end_ns,items,tag\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.name(i)},{self.parent[i]},{self.round[i]},"
                         f"{self.start[i]},{self.end[i]},{self.items[i]:g},"
                         f"{self.tags.get(i, '')}\n")
