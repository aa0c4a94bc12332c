"""Spans around the package's public functions, recorded from outside.

The tracer replaces module attributes and class methods with timing
wrappers, so internal calls that look a name up at call time are caught
too (solve_resolvent imports instantiate_family and select_root when it
runs; certified_cycle reads polish_72point as a module global).  A function
imported by name into another module at import time is rebound there as
well.  Spans stay in memory until the run writes them out.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager

from reference import self_times

# (module, attribute, span name[, size of the call from its arguments])
TARGETS = [
    ("valentiner.equivariants", "h19_exact", "equivariants.h19_exact"),
    ("valentiner.equivariants", "registry", "equivariants.registry"),
    ("valentiner.equivariants", "verify_h19", "equivariants.verify_h19"),
    ("valentiner.group", "enumerate_group", "group.enumerate_group"),
    ("valentiner.orbits", "special_orbits", "orbits.special_orbits"),
    ("valentiner.selectors", "load_or_fit_selectors", "selectors.load_or_fit_selectors"),
    ("valentiner.selectors", "select_root", "selectors.select_root"),
    ("valentiner.selectors", "SelectorTable.gamma_value", "selectors.gamma_value"),
    ("valentiner.dynamics", "solve_resolvent", "dynamics.solve_resolvent"),
    ("valentiner.dynamics", "certified_cycle", "dynamics.certified_cycle"),
    ("valentiner.dynamics", "polish_72point", "dynamics.polish_72point"),
    ("valentiner.resolvents", "instantiate_family", "resolvents.instantiate_family"),
    ("valentiner.resolvents", "FamilyMap.__call__", "resolvents.family_map"),
    ("valentiner.resolvents", "FamilySystem.certificate", "resolvents.certificate"),
    ("valentiner.resolvents", "FamilySystem.psi_table_value", "resolvents.psi_table_value"),
    ("valentiner.resolvents", "frame_determinant_checks", "resolvents.frame_determinant_checks"),
    ("valentiner.hpoly", "HPoly.eval_many", "hpoly.eval_many", lambda args: len(args[1])),
    ("valentiner.invariants", "verify_relations", "invariants.verify_relations"),
    ("valentiner.basins", "render_basins", "basins.render_basins"),
    ("valentiner.basins", "render_rp2", "basins.render_rp2"),
    ("valentiner.basins", "render_conic", "basins.render_conic"),
    ("valentiner.basins", "render_line45", "basins.render_line45"),
    ("valentiner.slices", "rp2_chart", "slices.rp2_chart"),
    ("valentiner.slices", "conic_slice", "slices.conic_slice"),
    ("valentiner.slices", "restricted_psi16", "slices.restricted_psi16"),
    ("valentiner.cli", "main", "cli.main"),
]

# span fields
NAME, START, END, PARENT, OP, ERROR, SIZE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._patched = []

    def _wrap(self, fn, name, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   tracer.stack[-1] if tracer.stack else None, tracer.op, None,
                   size(args) if size else None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                rec[ERROR] = type(e).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()

        return traced

    @contextmanager
    def operation(self, label):
        """Attribute the spans opened inside to the operation label."""
        outer, self.op = self.op, label
        try:
            yield
        finally:
            self.op = outer

    def install(self):
        """Wrap every target, in its module and wherever it was imported."""
        for target in TARGETS:
            modname, attr, name = target[:3]
            size = target[3] if len(target) > 3 else None
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(owner.__dict__[meth], name, size))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, size)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("valentiner") \
                        and getattr(other, attr, None) is original:
                    self._patch(other, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def stats(self, ops=None):
        """Per span name: calls, total and self seconds, failures, size.

        ops restricts the count to spans of those operations (None: all).
        """
        selfs = self_times([(s[START], s[END], s[PARENT]) for s in self.spans])
        out = {}
        for s, own in zip(self.spans, selfs):
            if ops is not None and s[OP] not in ops:
                continue
            st = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "failed": 0, "size": 0})
            st["calls"] += 1
            st["total_s"] += s[END] - s[START]
            st["self_s"] += own
            st["failed"] += s[ERROR] is not None
            st["size"] += s[SIZE] or 0
        return out

    def write(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME], "start_s": s[START] - t0,
                                    "end_s": s[END] - t0, "parent": s[PARENT],
                                    "op": s[OP], "error": s[ERROR], "size": s[SIZE]}) + "\n")
