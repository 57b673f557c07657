"""Metric math of the repository benchmark (perfbench/README.md).

Pure functions over parsed tool and harness outputs, kept apart from
process handling so test_metrics.py can check them on hand-made
inputs. Every ratio names its base in the docstring, and a zero base
gives 0.0 instead of an exception.
"""

import hashlib
import json
import math
import statistics

# Simulated p99 total latency (cycles) a rung may have and still count
# toward capacity_req_per_kc. Fixed once: about four times the PVA's
# p99 at the lightest ladder rung (5 req/kc gives p99 = 63 cycles).
LAT_LIMIT_CYCLES = 256

# Offered load (req/kc) of the traffic-ladder rung whose PVA latency is
# reported as lat_p50_cycles / lat_p99_cycles, and of the rung whose
# achieved PVA throughput is throughput_req_per_kc.
LATENCY_RUNG = 40.0
THROUGHPUT_RUNG = 120.0

# Vector commands per chapter 6 kernel run: one command per 32-word
# cache line of every array the kernel reads or writes (1024 elements,
# kernels/kernel.cc spec table). The traced run checks this table
# against the commands the harness's traces actually hold.
ELEMENTS = 1024
LINE_WORDS = 32
KERNEL_ACCESSED_ARRAYS = {
    "copy": 2, "saxpy": 3, "scale": 2, "swap": 4,
    "tridiag": 3, "vaxpy": 4, "copy2": 2, "scale2": 2,
}

# Section 6.3 headline maximum speedups of the paper.
PAPER_MAX_SPEEDUP = {"PVA vs cache-line": 32.8, "PVA vs gathering": 3.3}

# Output fields derived from host time, left out of result digests.
HOST_FIELDS = {"cyclesPerSecond", "wallMillis"}


def ratio(num, den):
    """num / den, or 0.0 when the base den is 0."""
    return num / den if den else 0.0


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Quartile distance over the median (the driver's stability test)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return ratio(q[2] - q[0], statistics.median(values))


def digest(obj):
    """sha256 of a JSON value with host-derived fields removed."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items() if k not in HOST_FIELDS}
        if isinstance(v, list):
            return [strip(x) for x in v]
        return v
    text = json.dumps(strip(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------- paper-grid

def parse_grid_csv(text):
    """Rows of pva_sim --sweep output as dicts with int cycles."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        row["cycles"] = int(row["cycles"])
        row["mismatches"] = int(row["mismatches"])
        rows.append(row)
    return rows


def kernel_commands(kernel):
    return KERNEL_ACCESSED_ARRAYS[kernel] * ELEMENTS // LINE_WORDS


def headline_speedups(rows):
    """Max over kernel x stride of baseline/PVA cycles, each system
    taking its best (minimum) time over the alignments."""
    best = {}
    for r in rows:
        key = (r["system"], r["kernel"], r["stride"])
        best[key] = min(best.get(key, r["cycles"]), r["cycles"])
    out = {}
    for name, base in (("PVA vs cache-line", "cache-line serial SDRAM"),
                       ("PVA vs gathering", "gathering pipelined SDRAM")):
        out[name] = max(
            ratio(best[(base, k, s)], c)
            for (system, k, s), c in best.items() if system == "PVA SDRAM")
    return out


def paper_err_pct(speedups):
    """Mean relative error (%) of the headline speedups; base: paper."""
    errs = [abs(speedups[k] - v) / v for k, v in PAPER_MAX_SPEEDUP.items()]
    return 100.0 * sum(errs) / len(errs)


def grid_metrics(rows):
    """Simulated end-to-end metrics of one paper-grid output."""
    cycles = [r["cycles"] for r in rows]
    commands = [kernel_commands(r["kernel"]) for r in rows]
    pva = [(kernel_commands(r["kernel"]), r["cycles"])
           for r in rows if r["system"] == "PVA SDRAM"]
    clean = sum(1 for r in rows if r["mismatches"] == 0)
    return {
        "sim_cycles": float(sum(cycles)),
        "lat_p50_cycles": float(percentile(cycles, 50)),
        "lat_p99_cycles": float(percentile(cycles, 99)),
        "throughput_req_per_kc": 1000.0 * ratio(sum(commands), sum(cycles)),
        "capacity_req_per_kc": 1000.0 * ratio(sum(c for c, _ in pva),
                                              sum(k for _, k in pva)),
        "served_ratio": ratio(clean, len(rows)),
    }


# ------------------------------------------------------- traffic-ladder

def pva_rungs(points):
    return {p["offered"]: p["result"] for p in points
            if p["system"] == "pva" and not p["failed"]}


def capacity(rungs, limit=LAT_LIMIT_CYCLES):
    """Highest offered load (req/kc) whose run shed nothing and kept p99
    total latency within @limit; 0.0 when no rung qualifies."""
    ok = [load for load, r in rungs.items()
          if r["shed"] == 0 and r["totalLatency"]["p99"] <= limit]
    return float(max(ok)) if ok else 0.0


def offered_requests(result):
    return sum(s["requests"] for s in result["streams"])


def ladder_metrics(points):
    """Simulated end-to-end metrics of one traffic-ladder output."""
    rungs = pva_rungs(points)
    at_latency = rungs[LATENCY_RUNG]
    offered = sum(offered_requests(p["result"]) for p in points)
    completed = sum(p["result"]["completed"] for p in points
                    if not p["failed"])
    return {
        "sim_cycles": float(sum(p["result"]["cycles"] for p in points)),
        "lat_p50_cycles": float(at_latency["totalLatency"]["p50"]),
        "lat_p99_cycles": float(at_latency["totalLatency"]["p99"]),
        "throughput_req_per_kc":
            float(rungs[THROUGHPUT_RUNG]["requestsPerKilocycle"]),
        "capacity_req_per_kc": capacity(rungs),
        "served_ratio": ratio(completed, offered),
    }


def ladder_violations(points):
    """Broken invariants: failed points, completed + shed != offered."""
    bad = []
    for p in points:
        where = "%s@%g" % (p["system"], p["offered"])
        if p["failed"]:
            bad.append(where + " failed")
            continue
        for s in p["result"]["streams"]:
            if s["completed"] + s["shedDeadline"] + s["shedOverload"] != \
                    s["requests"]:
                bad.append("%s %s: completed + shed != offered"
                           % (where, s["name"]))
    return bad


# ----------------------------------------------------------- fleet-100k

def fleet_offered_rate(scenario):
    """Aggregate offered load (req/kc) of an open-loop fleet scenario."""
    return sum(t["count"] * t["streamsPerTenant"] * t["stream"]["rate"]
               for t in scenario["tenants"])


def fleet_offered_requests(scenario):
    return sum(t["count"] * t["streamsPerTenant"] * t["stream"]["requests"]
               for t in scenario["tenants"])


def fleet_metrics(fleet, scenario):
    """Simulated end-to-end metrics of one fleet scenario result."""
    rung = {fleet_offered_rate(scenario): fleet}
    return {
        "sim_cycles": float(fleet["cycles"]),
        "lat_p50_cycles": float(fleet["totalLatency"]["p50"]),
        "lat_p99_cycles": float(fleet["totalLatency"]["p99"]),
        "throughput_req_per_kc": float(fleet["requestsPerKilocycle"]),
        "capacity_req_per_kc": capacity(rung),
        "served_ratio": ratio(fleet["completed"],
                              fleet_offered_requests(scenario)),
    }


def fleet_violations(fleet, scenario):
    bad = []
    if fleet["busGrants"] != fleet["grants"]:
        bad.append("busGrants %d != grants %d"
                   % (fleet["busGrants"], fleet["grants"]))
    if fleet["busSheds"] != fleet["shed"]:
        bad.append("busSheds %d != shed %d"
                   % (fleet["busSheds"], fleet["shed"]))
    if fleet["completed"] + fleet["shed"] != fleet_offered_requests(scenario):
        bad.append("completed + shed != offered")
    return bad


# ------------------------------------------------------------ per layer

def layer_metrics(counts, self_s, point_ms):
    """Per-layer metrics from harness counts and median self times.

    counts: summed public StatSet counters (identical traced/untraced).
    self_s: span name -> self seconds. point_ms: per grid point wall.
    """
    c = lambda k: counts.get(k, 0.0)
    t = lambda k: self_s.get(k, 0.0)
    ticks = c("sim.ticks")
    return {
        "sim.ticks": ticks,
        "sim.skip_ratio": ratio(c("sim.skipped"), c("sim.cycles")),
        # runUntil minus the driver's self time: sim.run_until's own
        # time plus the MemorySystem calls the driver makes.
        "sim.ns_per_tick":
            1e9 * ratio(t("sim.run_until") + t("sys.calls"), ticks),
        "core.bc.observes": c("core.bc.observes"),
        "core.bc.hit_ratio": ratio(c("core.bc.hits"), c("core.bc.observes")),
        "core.bc.active_ratio":
            ratio(c("core.bc.active"), c("core.bc.bank_ticks")),
        "core.bc.stall_cycles": c("core.bc.stall_cycles"),
        "core.bc.vc_full_cycles": c("core.bc.vc_full_cycles"),
        "core.frontend.ctx_full_cycles": c("core.frontend.ctx_full_cycles"),
        "core.frontend.read_latency_mean":
            ratio(c("core.frontend.read_latency_sum"),
                  c("core.frontend.read_latency_n")),
        "core.frontend.write_latency_mean":
            ratio(c("core.frontend.write_latency_sum"),
                  c("core.frontend.write_latency_n")),
        "sdram.cas": c("sdram.cas"),
        "sdram.activates": c("sdram.activates"),
        "sdram.row_hit_ratio": ratio(c("sdram.row_hits"), c("sdram.cas")),
        "sdram.refreshes": c("sdram.refreshes"),
        "bus.data_util": ratio(c("bus.data_cycles"), c("bus.cycles")),
        "bus.request_cycles": c("bus.request_cycles"),
        "baselines.sim_cycles": c("baselines.sim_cycles"),
        "kernels.trace_build_s": t("kernels.trace_build"),
        "kernels.vcu_service_s": t("kernels.vcu_service"),
        "kernels.verify_s": t("kernels.verify"),
        "kernels.point_ms_p50": float(percentile(point_ms, 50)),
        "kernels.point_ms_p99": float(percentile(point_ms, 99)),
        "traffic.service_s": t("traffic.service"),
        "traffic.ns_per_grant":
            1e9 * ratio(t("traffic.service"), c("traffic.grants")),
        "traffic.deferrals": c("traffic.deferrals"),
        "traffic.shed": c("traffic.shed"),
        "fleet.build_s": t("fleet.build"),
        "fleet.service_s": t("fleet.service"),
        "fleet.ns_per_grant":
            1e9 * ratio(t("fleet.service"), c("fleet.grants")),
        "fleet.merge_s": t("fleet.merge"),
        "fleet.deferrals": c("fleet.deferrals"),
        "fleet.shed": c("fleet.shed"),
        "setup.make_system_s": t("setup.make_system"),
        "io.parse_s": t("io.parse"),
        "io.emit_s": t("io.emit"),
        "io.bytes": c("io.bytes"),
    }
