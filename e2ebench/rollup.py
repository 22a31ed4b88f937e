"""Per-layer rollup of one traced benchmark run.

Reads the Chrome trace the benchmark binary wrote and derives:

  * transform.pipeline_ms and transform.pass.<mnemonic>_ms: summed
    durations of the compiler's own `pass.pipeline` and pass spans;
  * rollup.<layer>_ms: the wall time of the client threads split into the
    self time of each layer, plus "other" (the benchmark's own loop).

Spans map to layers by category: the benchmark's `bench.<layer>` spans
around each call into a module, and the program's own spans
(`pass`/`compiler` -> transform, `compile` -> core, `scheduler` ->
runtime, `vm` -> exec). A span's self time is its duration minus the part
its child spans on the same thread cover. While a client thread sits in
`runProgram` waiting for scheduler workers, the part of that wait covered
by kernel launches on the workers counts as exec, the rest as runtime.
"""

import json

LAYERS = ("frontend", "transform", "core", "exec", "runtime", "workloads")
LAYER_OF_CATEGORY = {
    "bench.frontend": "frontend",
    "pass": "transform",
    "compiler": "transform",
    "compile": "core",
    "bench.core": "core",
    "vm": "exec",
    "bench.exec": "exec",
    "scheduler": "runtime",
    "bench.runtime": "runtime",
    "bench.workloads": "workloads",
    "bench.request": "other",
    "bench.phase": "other",
}
PASSES = ("host-raising", "canonicalize", "host-device-prop", "cse", "licm",
          "basic-licm", "detect-reduction", "loop-internalization", "dce",
          "sycl-dae", "convert-sycl-to-scf", "annotate-inbounds")


def union(intervals):
    """Sorted, disjoint union of (start, end) intervals."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [tuple(i) for i in merged]


def subtract(base, cut):
    """base minus cut, both sorted disjoint interval lists."""
    out = []
    for start, end in base:
        cur = start
        for c_start, c_end in cut:
            if c_end <= cur or c_start >= end:
                continue
            if c_start > cur:
                out.append((cur, c_start))
            cur = max(cur, c_end)
        if cur < end:
            out.append((cur, end))
    return out


def length(intervals):
    return sum(end - start for start, end in intervals)


def intersect_length(a, b):
    return length(a) - length(subtract(a, b))


def self_intervals(events):
    """Yields (event, self intervals) for one thread's nested spans."""
    events = sorted(events, key=lambda e: (e["ts"], -e["dur"]))
    children = {id(e): [] for e in events}
    stack = []
    for e in events:
        end = e["ts"] + e["dur"]
        while stack and stack[-1]["ts"] + stack[-1]["dur"] < end - 1e-3:
            stack.pop()
        if stack:
            children[id(stack[-1])].append(e)
        stack.append(e)
    for e in events:
        own = [(e["ts"], e["ts"] + e["dur"])]
        kids = union((c["ts"], c["ts"] + c["dur"]) for c in children[id(e)])
        yield e, subtract(own, kids)


def analyse(trace_path, overhead_ms):
    """Returns ({metric: (value, unit)}, report text) for one trace."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]

    metrics = {}
    pipeline_us = sum(e["dur"] for e in events
                      if e["name"] == "pass.pipeline")
    metrics["transform.pipeline_ms"] = (pipeline_us / 1000.0, "ms")
    for name in PASSES:
        us = sum(e["dur"] for e in events
                 if e.get("cat") == "pass" and e["name"] == name)
        metrics[f"transform.pass.{name}_ms"] = (us / 1000.0, "ms")

    by_thread = {}
    for e in events:
        by_thread.setdefault(e["tid"], []).append(e)
    clients = {tid for tid, evs in by_thread.items()
               if any(e.get("cat") == "bench.phase" for e in evs)}
    worker_exec = union(
        (e["ts"], e["ts"] + e["dur"]) for tid, evs in by_thread.items()
        if tid not in clients for e in evs if e.get("cat") == "bench.exec")

    split = dict.fromkeys(LAYERS + ("other",), 0.0)
    total_us = 0.0
    for tid in clients:
        for e, own in self_intervals(by_thread[tid]):
            layer = LAYER_OF_CATEGORY.get(e.get("cat"), "other")
            if e.get("cat") == "bench.phase":
                total_us += e["dur"]
            if layer == "runtime":
                in_exec = intersect_length(own, worker_exec)
                split["exec"] += in_exec
                split["runtime"] += length(own) - in_exec
            else:
                split[layer] += length(own)
    metrics["rollup.total_ms"] = (total_us / 1000.0, "ms")
    for layer, us in split.items():
        metrics[f"rollup.{layer}_ms"] = (us / 1000.0, "ms")

    lines = [f"Total Time         : {total_us / 1000.0:12.2f} ms "
             f"(client threads, traced; tracing overhead "
             f"{overhead_ms:.2f} ms)"]
    for layer in LAYERS + ("other",):
        us = split[layer]
        share = 100.0 * us / total_us if total_us else 0.0
        lines.append(f"  {layer:17s}: {us / 1000.0:12.2f} ms ({share:5.1f}%)")
    lines.append(f"Pass pipeline      : {pipeline_us / 1000.0:12.2f} ms")
    for name in PASSES:
        ms = metrics[f"transform.pass.{name}_ms"][0]
        if ms:
            lines.append(f"  {name:17s}: {ms:12.2f} ms")
    return metrics, "\n".join(lines)
