"""Span tracing of matchgames' public functions, installed from outside the package.

The package is not instrumented.  ``Tracer.install`` replaces each listed
function with a wrapper that records one span per call.  Callers import these
functions by name (``from .qcqp import max_f_given_g_floor``), so the
function object is replaced under every name that refers to it, in every
loaded ``matchgames`` module.  Spans are kept in flat arrays in memory and
written as gzipped JSON lines only when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

# Layer -> wrapped functions; "Class.method" names patch the class attribute.
LAYERS = {
    "dac": ("run_dac", "hospital_options", "optimal_proposal", "competition_bid",
            "settle_competition"),
    "qcqp": ("max_f_given_g_floor", "max_g_given_f_floor", "solve_qcqp_repeated",
             "distribution_to_cycle", "affine_transform"),
    "lp": ("solve_lp", "game_value"),
    "core": ("load_instance", "load_allocation", "serialize_allocation", "evaluate_payoffs",
             "CycleStrategy.average_payoffs"),
    "renegotiation": ("run_renegotiation", "reservation_payoffs", "check_couple_is_cne",
                      "select_process_cne"),
    "stability": ("find_blocking_pair", "find_blocking_coalition", "verify_renegotiation_proof",
                  "full_report"),
    "roommates": ("solve_aspiration_zero_sum", "realize_aspiration", "is_aspiration",
                  "partnership_value", "demand_set"),
    "contracts": ("run_da_contracts", "choice_hospital", "check_substitutability", "check_irc",
                  "check_hm_stability"),
}


def traced_names():
    """Span names of every wrapped function, as ``layer.function``."""
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records (name, start, end, parent, operation id) for every wrapped call.

    ``observers`` maps a span name to ``callback(args, result)``, called after
    the wrapped function returns; the runner uses it to read counters from
    returned objects.
    """

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = -1
        self._stack = []
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        nid = self._id(name)
        observe = self.observers.get(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in LAYERS under every name bound to it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "matchgames" or key.startswith("matchgames."))]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"matchgames.{layer}"]
            for qualname in fns:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = vars(owner)[attr]
                wrapper = self._wrap(f"{layer}.{qualname}", original)
                if owner_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self):
        """Per span name: (calls, self seconds).

        Self time is the span's duration minus the time covered by its
        direct children; calls are single-threaded, so children never overlap.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += (self.end[i] - self.start[i]) - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write_jsonl(self, path):
        """Write the spans; returns their number.

        The first line is ``{"names": [...]}``; every later line is one span
        ``[name index, start ns, end ns, parent line, operation id]``, times
        counted from the first span and parents as 0-based span indices
        (-1 for none).
        """
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name_id[i]},{round((self.start[i] - t0) * 1e9)},"
                         f"{round((self.end[i] - t0) * 1e9)},{self.parent[i]},{self.op[i]}]\n")
        return len(self.start)
