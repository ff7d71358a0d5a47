"""Spans and counts around bckalg's functions, recorded from outside the library.

``Tracer.install`` wraps every public function of each bckalg module (plus
the poset-isomorphism generator ``_poset_isos``) and rebinds the wrapper
under every name that refers to the original in any ``bckalg.*`` namespace,
including module-level dicts such as the CLI's conversion table, so calls
from one module into another are caught. ``uninstall`` puts the originals
back.

A span is (name, start, end, parent, op id), kept in memory in flat arrays.
A layer is a module; its self time is the duration of its spans minus the
time covered by their child spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("core", "axioms", "transforms", "enumeration", "substructures", "algfile", "golden", "cli")
PRIVATE_TRACED = {"enumeration": ("_poset_isos",)}

# Arity of each identity an axiom checker scans; n ** arity tuples at most.
CHECKER_ARITIES = {
    "axioms.check_bci": (3, 2, 1, 2),
    "axioms.check_bck": (3, 2, 1, 2, 1),
    "axioms.check_mv": (3, 2, 1, 1, 1, 2),
    "axioms.check_wajsberg": (1, 3, 2, 2),
    "axioms.is_commutative": (2,),
    "axioms.is_implicative": (2,),
    "axioms.is_positive_implicative": (3,),
    "axioms.check_morphism": (2,),
}
TRANSLATIONS = ("bck_to_mv", "bck_to_wajsberg", "mv_to_bck", "mv_to_wajsberg", "wajsberg_to_mv", "wajsberg_to_bck")
CHECKERS = ("check_bck", "check_mv", "check_wajsberg", "is_commutative")


def _key(arg):
    """Hashable content of a checker argument: an algebra or a map."""
    if hasattr(arg, "table"):
        return (arg.kind, arg.zero, arg.unit, arg.complement, arg.table.entries)
    return tuple(arg.items()) if isinstance(arg, dict) else tuple(arg)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.codes: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.checked: set = set()
        self.patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        code = self.codes.get(name)
        if code is None:
            code = self.codes[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        self.name.append(code)
        self.parent.append(parent)
        self.op_of.append(self.op)
        self.end.append(0)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        # A deadline can interrupt _open between its appends; end_op repairs that.
        if sid < len(self.end):
            self.end[sid] = perf_counter_ns()
        while self.stack and self.stack[-1] >= sid:
            self.stack.pop()

    def begin_op(self, op: int) -> int:
        self.op = op
        self.checked.clear()
        self.stack.clear()
        return self._open("op")

    def end_op(self, sid: int) -> None:
        self._close(sid)
        self.stack.clear()
        whole = min(map(len, (self.name, self.parent, self.op_of, self.end, self.start)))
        for arr in (self.name, self.parent, self.op_of, self.end, self.start):
            del arr[whole:]

    # -- wrapping ----------------------------------------------------------

    def _before(self, name: str, args) -> None:
        arities = CHECKER_ARITIES.get(name)
        if arities is not None:
            alg = args[1] if name == "axioms.check_morphism" else args[0]
            self.counts["axioms.tuples_bound"] += sum(alg.order ** a for a in arities)
            key = (name, tuple(_key(a) for a in args))
            self.counts["axioms.repeats"] += key in self.checked
            self.checked.add(key)

    def _after(self, name: str, result) -> None:
        if name == "enumeration.find_isomorphism":
            self.counts["enumeration.isos_found"] += result is not None
        elif name == "substructures.subalgebras":
            self.counts["substructures.sets_found"] += len(result)

    def _wrap(self, fn, name: str, via: str):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            yields = f"{name}.yields.{via}"

            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid)
                    tracer.counts[yields] += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._before(name, args)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer._after(name, result)
            return result

        return traced

    def install(self, package) -> None:
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE_TRACED.get(layer, ())
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                    targets[obj] = f"{layer}.{attr}"
        for via, ns in [("package", package), *modules.items()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self.patches.append((ns, attr, obj))
                    setattr(ns, attr, self._wrap(obj, targets[obj], via))
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in targets:
                            self.patches.append((obj, k, v))
                            obj[k] = self._wrap(v, targets[v], via)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self.patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self.patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        # A span a deadline cut before it was closed keeps end 0 and counts as empty.
        dur = [max(0, e - s) for s, e in zip(self.start, self.end)]
        covered = [0] * len(dur)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += dur[sid]
        out: dict[str, float] = defaultdict(float)
        for sid, code in enumerate(self.name):
            out[self.names[code]] += (dur[sid] - covered[sid]) / 1e9
        return out

    def metrics(self, ops: int, speed: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; times and counts are per op of the traced pass,
        and times are multiplied by ``speed`` to the reference speed."""
        self_s = {k: v * speed for k, v in self.self_times().items()}
        calls, counts = self.calls, self.counts
        per_op = max(ops, 1)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            prefix = layer + "."
            m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items() if k.startswith(prefix)) / per_op, "s/op")
            m[f"{layer}.calls"] = (sum(v for k, v in calls.items() if k.startswith(prefix)) / per_op, "calls/op")
        for fn in CHECKERS:
            m[f"axioms.{fn}.self_s"] = (self_s.get(f"axioms.{fn}", 0.0) / per_op, "s/op")
        checker_calls = sum(calls[name] for name in CHECKER_ARITIES)
        m["axioms.tuples_bound"] = (counts["axioms.tuples_bound"] / per_op, "tuples/op")
        m["axioms.repeat_ratio"] = (ratio(counts["axioms.repeats"], checker_calls), "ratio")
        for fn in TRANSLATIONS:
            m[f"transforms.{fn}.self_s"] = (self_s.get(f"transforms.{fn}", 0.0) / per_op, "s/op")
        for name in ("core.new_algebra", "algfile.parse_algebra", "algfile.render_algebra", "cli.main",
                     "enumeration.direct_product", "enumeration.find_isomorphism",
                     "enumeration.poset_isomorphic", "golden.diagnose_wajsberg",
                     "substructures.subalgebras", "substructures.ideals"):
            m[f"{name}.self_s"] = (self_s.get(name, 0.0) / per_op, "s/op")
        for name in ("core.new_algebra", "enumeration.find_isomorphism", "substructures.closure_of",
                     "substructures.is_ideal"):
            m[f"{name}.calls"] = (calls[name] / per_op, "calls/op")
        m["enumeration.iso_hit_ratio"] = (
            ratio(counts["enumeration.isos_found"], calls["enumeration.find_isomorphism"]), "ratio")
        m["golden.poset_isos_per_diagnosis"] = (
            ratio(counts["enumeration._poset_isos.yields.golden"], calls["golden.diagnose_wajsberg"]), "isos/diag")
        m["substructures.closure_hit_ratio"] = (
            ratio(counts["substructures.sets_found"], calls["substructures.closure_of"]), "ratio")
        return m

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: id,parent,op,name,start_ns,end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,parent,op,name,start_ns,end_ns\n")
            for sid, code in enumerate(self.name):
                out.write(f"{sid},{self.parent[sid]},{self.op_of[sid]},{self.names[code]},"
                          f"{self.start[sid]},{self.end[sid]}\n")
