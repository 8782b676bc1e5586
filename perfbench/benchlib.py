"""Arithmetic of the cellj2k benchmark: the metric table, the statistics and
the per-layer figures derived from the benchmark binary's raw samples and span trace.

Everything here is pure (no I/O, no clock) so test_benchlib.py can check it.
"""

import math
import re
import statistics

# name, unit, which way is better, clock.  The single source of the metric
# set; BENCHMARK.json must list the same names and units (checked by the
# self-test).  "det" marks metrics that must repeat exactly for a given seed:
# a change in one means the model or the bytes moved, not noise.
END_TO_END = [
    ("wall_s_p50", "s", "lower", "host"),
    ("mpix_per_s", "Mpix/s", "higher", "host"),
    ("model_wall_s", "s", "lower", "host"),
    ("sim_s", "s", "lower", "sim,det"),
    ("sim_p99_s", "s", "lower", "sim,det"),
    ("bpp", "bit/pix", "lower", "det"),
    ("psnr_db", "dB", "higher", "det"),
    ("setup_s", "s", "lower", "host"),
    ("peak_rss_mb", "MB", "lower", "host"),
]

SIM_STAGES = ["read", "mct", "dwt", "quant", "tier1", "rate", "t2"]

PER_LAYER = (
    [
        ("image.read.wall_s", "s", "lower", "host"),
        ("cell.copy.wall_s", "s", "lower", "host"),
        ("cell.copy.dma_commands", "count", "lower", "det"),
        ("cell.copy.ns_per_dma", "ns", "lower", "host"),
        ("cell.copy.sim_s", "s", "lower", "sim,det"),
        ("cell.dispatch.wall_s", "s", "lower", "host"),
    ]
    + [("cellenc.%s.wall_s" % s, "s", "lower", "host")
       for s in ("mct", "dwt", "quant", "t1", "rate_tail", "stage_tile")]
    + [
        ("cellenc.t1.symbols", "count", "lower", "det"),
        ("cellenc.t1.blocks", "count", "lower", "det"),
        ("cellenc.t1.ns_per_symbol", "ns", "lower", "host"),
        ("jp2k.finish_tile.wall_s", "s", "lower", "host"),
        ("jp2k.encode.wall_s", "s", "lower", "host"),
        ("jp2k.decode.wall_s", "s", "lower", "host"),
    ]
    + [("sim.stage.%s.seconds" % s, "s", "lower", "sim,det")
       for s in SIM_STAGES]
    + [
        ("sim.stage.tier1.occupancy", "ratio", "higher", "sim,det"),
        ("sim.stage.tier1.stall.queue_empty", "s", "lower", "sim,det"),
        ("sim.dma.bytes", "bytes", "lower", "sim,det"),
        ("sim.t1.symbols", "count", "lower", "sim,det"),
        ("backend.native_speedup", "ratio", "higher", "host"),
        ("backend.native_wall_s", "s", "lower", "host"),
        ("backend.model_wall_s", "s", "lower", "host"),
        ("service.job.wall_s_p50", "s", "lower", "host"),
        ("service.contention_ratio", "ratio", "lower", "host"),
        ("service.pool_occupancy", "ratio", "higher", "sim,det"),
        ("service.steals", "count", "lower", "sim,det"),
        ("service.p50_latency", "s", "lower", "sim,det"),
        ("proc.cpu_s_per_op", "s", "lower", "host"),
        ("proc.sys_s_per_op", "s", "lower", "host"),
        ("proc.ctx_switches_per_op", "count", "lower", "host"),
        ("trace.self_s", "s", "lower", "host"),
        ("trace.overhead_ratio", "ratio", "lower", "host"),
        ("fail_ratio", "ratio", "lower", "count"),
    ]
)

# Spans whose summed duration per traced operation is a layer's wall time.
SPAN_LAYERS = {
    "image.read": "image.read.wall_s",
    "cell.copy": "cell.copy.wall_s",
    "cellenc.mct": "cellenc.mct.wall_s",
    "cellenc.dwt": "cellenc.dwt.wall_s",
    "cellenc.quant": "cellenc.quant.wall_s",
    "cellenc.t1": "cellenc.t1.wall_s",
    "cellenc.rate_tail": "cellenc.rate_tail.wall_s",
    "cellenc.stage_tile": "cellenc.stage_tile.wall_s",
    "jp2k.finish_tile": "jp2k.finish_tile.wall_s",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def legal_name(name):
    return bool(NAME_RE.match(name))


def legal_unit(unit):
    return bool(UNIT_RE.match(unit))


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not xs or not 0 < p <= 100:
        raise ValueError("percentile needs samples and 0 < p <= 100")
    s = sorted(xs)
    rank = math.ceil(p / 100.0 * len(s))
    return s[max(rank, 1) - 1]


def tail_percentile(n, candidates=(99.9, 99, 95, 90, 75)):
    """Highest percentile with at least ten samples beyond it, or None.

    A tail figure resting on fewer than ten samples is one or two unlucky
    operations, so it is not reported."""
    for p in candidates:
        if n * (1 - p / 100.0) >= 10 - 1e-9:
            return p
    return None


def spread(values):
    """Interquartile range as a share of the median (statistics.quantiles
    with n=4, the default exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def throughput(units_per_op, op_walls):
    """Work per second over the summed operation time (units/s)."""
    total = sum(op_walls)
    if total <= 0:
        raise ValueError("no operation time measured")
    return units_per_op * len(op_walls) / total


def fail_ratio(attempted, failed):
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError("need 0 <= failed <= attempted and attempted >= 1")
    return failed / attempted


def covered(interval, children):
    """Length of the part of `interval` that the union of `children` covers;
    all are (start, end) pairs."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(interval, children):
    """A span's duration minus what its child spans cover."""
    return (interval[1] - interval[0]) - covered(interval, children)


def trace_layers(events):
    """Per-layer wall seconds from Chrome trace events (ts/dur in µs).

    Returns ({metric: median over ops of the per-op summed span time},
    [root "op" wall seconds], [root "op" self seconds])."""
    spans = [e for e in events if e.get("ph") == "X"]
    by_id = {e["args"]["id"]: e for e in spans}
    per_op = {}
    roots = []
    for e in spans:
        a = e["args"]
        if a["parent"] < 0:
            if e["name"] == "op":
                roots.append(e)
            continue
        layer = SPAN_LAYERS.get(e["name"])
        if layer is not None and by_id[a["parent"]]["args"]["parent"] < 0:
            d = per_op.setdefault(a["op"], {})
            d[layer] = d.get(layer, 0.0) + e["dur"] / 1e6
    ops = sorted(per_op)
    layers = {}
    for layer in SPAN_LAYERS.values():
        layers[layer] = median([per_op[o].get(layer, 0.0) for o in ops]) \
            if ops else 0.0
    walls, selfs = [], []
    for r in roots:
        iv = (r["ts"], r["ts"] + r["dur"])
        kids = [(c["ts"], c["ts"] + c["dur"]) for c in spans
                if c["args"]["parent"] == r["args"]["id"]]
        walls.append(r["dur"] / 1e6)
        selfs.append(self_time(iv, kids) / 1e6)
    return layers, walls, selfs


def end_to_end(raw):
    """End-to-end metrics from the benchmark binary's raw samples."""
    walls = raw["op_wall_s"]
    return {
        "wall_s_p50": median(walls),
        "mpix_per_s": throughput(raw["mpix_per_op"], walls),
        "model_wall_s": median(raw["model_wall_s"]),
        "sim_s": median(raw["sim_s"]),
        "sim_p99_s": median(raw["sim_p99_s"]),
        "bpp": raw["bpp"],
        "psnr_db": raw["psnr_db"],
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, events):
    """Per-layer metrics from the raw samples and the traced run's spans."""
    e2e = end_to_end(raw)
    lay = dict(raw["layers"])
    span_layers, op_walls, op_selfs = trace_layers(events)
    lay.update(span_layers)
    n = len(raw["op_wall_s"])

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    lay["cell.copy.ns_per_dma"] = ratio(
        lay["cell.copy.wall_s"], lay.get("cell.copy.dma_commands", 0), 1e9)
    lay["cellenc.t1.ns_per_symbol"] = ratio(
        lay["cellenc.t1.wall_s"], lay.get("cellenc.t1.symbols", 0), 1e9)
    lay["backend.native_wall_s"] = e2e["wall_s_p50"]
    lay["backend.model_wall_s"] = e2e["model_wall_s"]
    lay["backend.native_speedup"] = ratio(e2e["model_wall_s"],
                                          e2e["wall_s_p50"])
    dispatch = raw.get("dispatch_s", [])
    lay["cell.dispatch.wall_s"] = median(dispatch) if dispatch else 0.0
    jobs = raw.get("service_job_wall_s", [])
    lay["service.job.wall_s_p50"] = median(jobs) if jobs else 0.0
    cont = raw.get("service_contention", [])
    lay["service.contention_ratio"] = median(cont) if cont else 0.0
    lay["proc.cpu_s_per_op"] = (raw["timed_user_s"] + raw["timed_sys_s"]) / n
    lay["proc.sys_s_per_op"] = raw["timed_sys_s"] / n
    lay["proc.ctx_switches_per_op"] = raw["timed_ctx_switches"] / n
    lay["trace.self_s"] = median(op_selfs) if op_selfs else 0.0
    lay["trace.overhead_ratio"] = ratio(
        median(op_walls) if op_walls else 0.0, e2e["wall_s_p50"])
    lay["fail_ratio"] = fail_ratio(int(raw["attempted"]), int(raw["failed"]))
    return {name: float(lay.get(name, 0.0)) for name, _, _, _ in PER_LAYER}


def determinism_ok(raw):
    """Simulated seconds must be identical across the model operations of
    one run: the machine model is deterministic."""
    return (len(set(raw["sim_s"])) == 1 and len(set(raw["sim_p99_s"])) == 1)


def result(raw, events, trace):
    """The contract's final object."""
    raw = dict(raw)
    raw["attempted"] = int(raw["attempted"]) + 1  # + the determinism check
    raw["failed"] = int(raw["failed"]) + (0 if determinism_ok(raw) else 1)
    attempted, failed = raw["attempted"], raw["failed"]
    table = PER_LAYER if trace else END_TO_END
    values = per_layer(raw, events) if trace else end_to_end(raw)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _, _ in table},
    }
