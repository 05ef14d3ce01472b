"""In-memory span tracer for the traced benchmark run.

`Tracer.install` replaces the public functions of the `rescong` modules
with timing wrappers in every namespace that holds them: the defining
module and every consumer module that imported them by name.  The
benchmark itself calls the library through module attributes, so it
sees the wrappers too.  Nothing under `src/` is edited; the wrappers
live only in this process and `uninstall` puts the originals back.

Each wrapped call becomes a span (id, name, start_ns, end_ns, parent id,
op id).  Self time is computed on the fly with a call stack: a span's
duration minus the time its child spans cover.  Aggregates cover every
call; the span records themselves are capped so that a pass of
hundreds of thousands of calls cannot exhaust memory.  Aggregate
values are plain sums, so aggregates from several processes (one per
CLI round trip) merge by addition.
"""

from __future__ import annotations

import json
import sys
import time

# Span name -> (module, function).  Span names are "<layer>.<function>"
# with the layer named after the module under src/rescong/.
TARGETS = {
    "cli.main": ("rescong.cli", "main"),
    "congruence.count_restricted": ("rescong.congruence", "count_restricted"),
    "congruence.fourier_numerator": ("rescong.congruence", "fourier_numerator"),
    "congruence.class_profile": ("rescong.congruence", "class_profile"),
    "congruence.class_members": ("rescong.congruence", "class_members"),
    "ramanujan.cohen_ramanujan": ("rescong.ramanujan", "cohen_ramanujan"),
    "arith.factorize": ("rescong.arith", "factorize"),
    "arith.generalized_gcd": ("rescong.arith", "generalized_gcd"),
    "arith.divisors": ("rescong.arith", "divisors"),
    "arith.mobius": ("rescong.arith", "mobius"),
    "oracle.brute_force_count": ("rescong.oracle", "brute_force_count"),
    "oracle.convolution_count": ("rescong.oracle", "convolution_count"),
    "verification.engine_sweep": ("rescong.verification", "engine_sweep"),
}

# Span records kept for the written trace; aggregates are never capped.
SPAN_CAP = 50_000


def empty_aggregate() -> dict:
    return {
        "ops": 0,
        "calls": {},
        "self_ns": {},
        "total_ns": {},
        "ramanujan_repeats": 0,
        "factorize_gt_n": 0,
        "arith_errors": 0,
        "numerator_bits": 0,
        "numerators": 0,
        "brute_tuples": 0,
        "import_ms": 0.0,
        "imports": 0,
        "spans_recorded": 0,
        "spans_total": 0,
    }


def merge_aggregates(parts) -> dict:
    out = empty_aggregate()
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                bucket = out[key]
                for name, v in value.items():
                    bucket[name] = bucket.get(name, 0) + v
            else:
                out[key] += value
    return out


def _instance_n(args):
    """n of a CongruenceInstance passed first, else None (duck-typed)."""
    if args:
        first = args[0]
        if hasattr(first, "restrictions") and hasattr(first, "n"):
            return first.n
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.agg = empty_aggregate()
        self._stack: list[list] = []  # [span id, name, start_ns, child_ns]
        self._next_id = 0
        self._op = -1
        self.op_n: int | None = None
        self._seen_ramanujan: set = set()
        self._patched: list[tuple] = []  # (namespace dict, attr, original)

    # -- ops ---------------------------------------------------------------

    def begin_op(self, n: int | None = None) -> None:
        """Start a new op.

        n is the query's modulus base when the caller knows it; otherwise
        it is taken from the first CongruenceInstance a wrapped function
        receives.  The caller sets agg["ops"] once the pass is done.
        """
        self._op += 1
        self.op_n = n

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        from rescong.arith import jordan_totient
        from rescong.errors import DomainError

        self._domain_error = DomainError
        self._jordan_totient = jordan_totient
        wrappers = {}
        for name, (module, func) in TARGETS.items():
            original = getattr(sys.modules[module], func)
            wrappers[id(original)] = self._wrap(name, original)
        namespaces = [
            vars(mod) for key, mod in list(sys.modules.items())
            if mod is not None and (key == "rescong" or key.startswith("rescong."))
        ]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    ns[attr] = wrapper
                    self._patched.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns
        is_factorize = name == "arith.factorize"
        is_ramanujan = name == "ramanujan.cohen_ramanujan"
        is_numerator = name == "congruence.fourier_numerator"
        is_brute = name == "oracle.brute_force_count"

        def wrapper(*args, **kwargs):
            if tracer.op_n is None:
                tracer.op_n = _instance_n(args)
            if is_factorize and tracer.op_n is not None and args and args[0] > tracer.op_n:
                tracer.agg["factorize_gt_n"] += 1
            elif is_ramanujan:
                key = args[:3]
                if key in tracer._seen_ramanujan:
                    tracer.agg["ramanujan_repeats"] += 1
                else:
                    tracer._seen_ramanujan.add(key)
            elif is_brute:
                tracer.agg["brute_tuples"] += tracer._tuple_count(args[0])
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except tracer._domain_error:
                if layer == "arith" and (parent is None or not parent[1].startswith("arith.")):
                    tracer.agg["arith_errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                tracer._account(name, frame, end, duration, parent)
            if is_numerator:
                tracer.agg["numerator_bits"] += abs(result).bit_length()
                tracer.agg["numerators"] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _account(self, name, frame, end, duration, parent) -> None:
        agg = self.agg
        agg["calls"][name] = agg["calls"].get(name, 0) + 1
        agg["self_ns"][name] = agg["self_ns"].get(name, 0) + duration - frame[3]
        agg["total_ns"][name] = agg["total_ns"].get(name, 0) + duration
        agg["spans_total"] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame[0], name, frame[2], end, None if parent is None else parent[0], self._op)
            )
            agg["spans_recorded"] += 1

    def _tuple_count(self, instance) -> int:
        # Tuples walked by brute force: the product of the class sizes
        # J_s(n / t_i).  jordan_totient is not wrapped, so this adds no span.
        out = 1
        for t in instance.restrictions:
            out *= self._jordan_totient(instance.n // t, instance.s)
        return out

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def layer_metrics(agg: dict, traced_ops_per_s: float, untraced_ops_per_s: float) -> dict:
    """Per-layer metrics, per op where the name says so, from merged aggregates."""
    ops = max(agg["ops"], 1)
    calls = agg["calls"]
    self_ns = agg["self_ns"]
    total_ns = agg["total_ns"]

    def per_op_ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6 / ops

    def per_op_calls(name):
        return calls.get(name, 0) / ops

    ram_calls = calls.get("ramanujan.cohen_ramanujan", 0)
    return {
        "ramanujan.calls": (per_op_calls("ramanujan.cohen_ramanujan"), "calls/op"),
        "ramanujan.self_ms": (per_op_ms("ramanujan.cohen_ramanujan"), "ms/op"),
        "ramanujan.repeat_frac": (
            agg["ramanujan_repeats"] / ram_calls if ram_calls else 0.0, "ratio"),
        "arith.generalized_gcd.calls": (per_op_calls("arith.generalized_gcd"), "calls/op"),
        "arith.generalized_gcd.self_ms": (per_op_ms("arith.generalized_gcd"), "ms/op"),
        "arith.factorize.calls": (per_op_calls("arith.factorize"), "calls/op"),
        "arith.factorize.self_ms": (per_op_ms("arith.factorize"), "ms/op"),
        "arith.factorize.gt_n": (agg["factorize_gt_n"] / ops, "calls/op"),
        "arith.errors": (agg["arith_errors"] / ops, "errors/op"),
        "congruence.count.calls": (per_op_calls("congruence.count_restricted"), "calls/op"),
        "congruence.count.self_ms": (
            per_op_ms("congruence.count_restricted", "congruence.fourier_numerator"), "ms/op"),
        "congruence.class_profile_ms": (
            total_ns.get("congruence.class_profile", 0) / 1e6 / ops, "ms/op"),
        "congruence.numerator_bits": (
            agg["numerator_bits"] / agg["numerators"] if agg["numerators"] else 0.0, "bits"),
        "cli.import_ms": (agg["import_ms"] / agg["imports"] if agg["imports"] else 0.0, "ms"),
        "cli.main_self_ms": (per_op_ms("cli.main"), "ms/op"),
        "oracle.brute_force.self_ms": (per_op_ms("oracle.brute_force_count"), "ms/op"),
        "oracle.brute_force.tuples": (agg["brute_tuples"] / ops, "tuples/op"),
        "oracle.convolution.self_ms": (per_op_ms("oracle.convolution_count"), "ms/op"),
        "oracle.class_members.self_ms": (per_op_ms("congruence.class_members"), "ms/op"),
        "verification.sweep.self_ms": (per_op_ms("verification.engine_sweep"), "ms/op"),
        "trace.ops_per_s": (traced_ops_per_s, "1/s"),
        "trace.untraced_ops_per_s": (untraced_ops_per_s, "1/s"),
        "trace.overhead_ops_per_s": (traced_ops_per_s - untraced_ops_per_s, "1/s"),
    }
