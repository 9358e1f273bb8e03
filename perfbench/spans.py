"""Outside-in tracing: spans around calls into the package's public functions.

:meth:`Tracer.instrument` wraps every public function of each layer module
(``cli``, ``market``, ``pde``, ``isaacs``, ``game``, ``_interp``) in place,
and also wherever a module bound the same function object under its own name
with ``from ... import`` (``game.multilinear``, ``cli.certify_payoff``, ...) or
holds it in a module-level dict (``cli._COMMANDS``).  The program's own code
is not changed.

Spans stay in memory as ``(id, name, start, end, parent, thread, count)``
tuples and are written out once, after the command has finished.  ``count``
is the work a call did, for the calls that have a per-layer counter.  A span
opened on a worker thread with no span of its own open takes as parent the
innermost span open on the main thread, which is the call that dispatched the
work.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import sys
import threading
import time

LAYERS = {
    "cli": "tugpricer.cli",
    "market": "tugpricer.market",
    "pde": "tugpricer.pde",
    "isaacs": "tugpricer.isaacs",
    "game": "tugpricer.game",
    "interp": "tugpricer._interp",
}

# Monte Carlo entry points; game.mc_s is the time in the outermost of them.
MC_ROOTS = ("game.mc_value", "game.simulate_sde_paths", "game.simulate_discrete_game")
RNG_SPANS = ("game.path_rng", "game.path_rng.draw")


def _node_steps(values) -> int:
    """Backward-step node updates behind a (nt + 1, *nx) value array."""
    return (values.shape[0] - 1) * math.prod(values.shape[1:])


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    return 1 if shape is None or len(shape) < 2 else shape[0]


# span name -> counter(bound arguments, result) giving the work the call did
COUNTERS = {
    "pde.solve_terminal_value": lambda a, r: _node_steps(r.values),
    "pde.write_surface_csv": lambda a, r: os.path.getsize(a["path"]),
    "isaacs.hm_values_batch": lambda a, r: len(r),
    "isaacs.greedy_controls_batch": lambda a, r: len(r[1]),
    "game.dpp_solve": lambda a, r: _node_steps(r.u_minus if r.u_minus is not None
                                               else r.u_plus),
    "interp.multilinear": lambda a, r: _rows(a["points"]),
    "game.mc_value": lambda a, r: a["cfg"].paths * a["cfg"].nt,
    "game.simulate_sde_paths": lambda a, r: a["cfg"].paths * a["cfg"].nt,
    "game.simulate_discrete_game": lambda a, r: a["cfg"].paths * round(
        (a["params"].T - a["cfg"].t0) * a["cfg"].N),
}


class _TimedGenerator:
    """Generator proxy that records a span around every draw."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def draw(*args, **kwargs):
            return self._tracer.call("game.path_rng.draw", attr, args, kwargs)

        return draw


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller, on the main thread at top level."""
        self.spans.append((next(self._ids), name, start, end, 0, self._main, 0))

    def call(self, name, fn, args, kwargs, counter=None, signature=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        count = 0
        if counter is not None:
            count = counter(signature.bind(*args, **kwargs).arguments, result)
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), count))
        return result

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        tracer = self

        if name == "game.path_rng":
            def wrapper(*args, **kwargs):
                return _TimedGenerator(tracer.call(name, fn, args, kwargs), tracer)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, counter, signature)

        return wrapper

    def instrument(self) -> None:
        """Wrap the public functions of every layer module, wherever bound."""
        package = [m for key, m in list(sys.modules.items())
                   if key == "tugpricer" or key.startswith("tugpricer.")]
        for prefix, modname in LAYERS.items():
            module = sys.modules[modname]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                wrapped = self._wrap(f"{prefix}.{attr}", obj)
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if key.startswith("__"):
                            continue
                        if val is obj:
                            setattr(mod, key, wrapped)
                        elif isinstance(val, dict):
                            for k, v in val.items():
                                if v is obj:
                                    val[k] = wrapped

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# id name start end parent thread count\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer times, counts and ratios from one traced command.

    A time or count is 0 when its layer did not run; a ratio is then 0 too.
    Times of nested layers overlap: ``game.controls_s`` includes the greedy
    tables a strategy builds on its first lookup (``isaacs.greedy_batch_s``),
    and ``game.rng_s`` and ``game.controls_s`` sum over worker threads.
    """
    time_by = {}
    count_by = {}
    calls_by = {}
    for _, name, start, end, _, _, count in spans:
        time_by[name] = time_by.get(name, 0.0) + (end - start)
        count_by[name] = count_by.get(name, 0) + count
        calls_by[name] = calls_by.get(name, 0) + 1

    def t(name):
        return time_by.get(name, 0.0)

    def n(name):
        return count_by.get(name, 0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    # Monte Carlo: outermost MC spans, their first-level children on any
    # thread, and the MC self time left when no child span is open.
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    roots = [s for s in spans if s[1] in MC_ROOTS
             and not (s[4] in by_id and by_id[s[4]][1] in MC_ROOTS)]
    mc_s = sum(s[3] - s[2] for s in roots)
    path_steps = sum(s[6] for s in roots)
    busy = 0.0
    self_s = 0.0
    for root in roots:
        level = [root]
        firsts = []
        while level:
            nxt = []
            for s in level:
                for c in children.get(s[0], []):
                    (nxt if c[1] in MC_ROOTS else firsts).append(c)
            level = nxt
        busy += sum(c[3] - c[2] for c in firsts)
        covered = _union_length([(max(c[2], root[2]), min(c[3], root[3])) for c in firsts])
        self_s += (root[3] - root[2]) - covered

    solve_s = t("pde.solve_terminal_value")
    write_s = t("pde.write_surface_csv")
    hm_s = t("isaacs.hm_values_batch")
    dpp_s = t("game.dpp_solve")
    return {
        "cli.import_s": t("cli.import"),
        "cli.load_config_s": t("cli.load_config"),
        "market.certify_s": t("market.certify_payoff"),
        "pde.solve_s": solve_s,
        "pde.node_steps": n("pde.solve_terminal_value"),
        "pde.ns_per_node_step": ratio(solve_s, n("pde.solve_terminal_value"), 1e9),
        "pde.write_surface_s": write_s,
        "pde.surface_bytes": n("pde.write_surface_csv"),
        "pde.write_mb_per_s": ratio(n("pde.write_surface_csv") / 1e6, write_s, 1.0),
        "isaacs.hm_batch_s": hm_s,
        "isaacs.hm_inputs": n("isaacs.hm_values_batch"),
        "isaacs.us_per_hm_input": ratio(hm_s, n("isaacs.hm_values_batch"), 1e6),
        "isaacs.greedy_batch_s": t("isaacs.greedy_controls_batch"),
        "isaacs.greedy_inputs": n("isaacs.greedy_controls_batch"),
        "game.dpp_s": dpp_s,
        "game.dpp_node_steps": n("game.dpp_solve"),
        "game.us_per_dpp_node_step": ratio(dpp_s, n("game.dpp_solve"), 1e6),
        "interp.multilinear_s": t("interp.multilinear"),
        "interp.queries": n("interp.multilinear"),
        "game.mc_s": mc_s,
        "game.path_steps": path_steps,
        "game.ns_per_path_step": ratio(mc_s, path_steps, 1e9),
        "game.rng_s": sum(t(name) for name in RNG_SPANS),
        "game.rng_streams": calls_by.get("game.path_rng", 0),
        "game.controls_s": t("game.checked_controls"),
        "game.controls_calls": calls_by.get("game.checked_controls", 0),
        "game.dynamics_s": self_s,
        "game.concurrency": ratio(busy, mc_s, 1.0),
    }
