#!/usr/bin/env python3
"""The repository benchmark: see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the shipped tools and the per-layer harness from source (Release)
into .bench_build/ in the checkout, generates the workload's inputs from
--seed, checks every output, and prints as the last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of untraced tool runs; --trace 1 reports the
per-layer metrics of the harness's traced runs. Run records, spans and
tool outputs go to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import metrics as M

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
EXPECTED_GRID = ROOT / "tests" / "expected" / "sweep_legacy.csv"
DIGESTS = HERE / "expected_digests.json"

WORKLOADS = ("paper-grid", "traffic-ladder", "fleet-100k")

# --seed N selects input set N mod VARIANTS. Each set's simulated result
# was recorded in expected_digests.json at the commit that added the
# benchmark, so every run is checked against a recorded digest.
VARIANTS = 32
# Tool seed of the self-test's held-out run: no variant maps to it.
HELD_OUT_TOOL_SEED = 424242

LADDER = {
    "streams": 16, "requests": 2000, "read_frac": 0.5,
    "min_stride": 1, "max_stride": 32, "refresh": 1560,
    "deadline": 4000, "watermark": 0.75, "queue_cap": 16,
    "loads": [5, 10, 20, 40, 60, 80, 120],
    "systems": ["pva", "cacheline", "gathering"],
}

# Seconds a tool or harness process may take before it is killed.
CHILD_TIMEOUT = 150
# Share of --seconds spent timing set-up; the rest times tool runs.
SETUP_SHARE = 0.15
MIN_REPS = 3
MIN_SETUP_REPS = 5



class BenchError(Exception):
    """A failure that must end the run without a result line."""


def tool_seed(seed):
    return 1 + 7919 * (seed % VARIANTS)


def log(msg):
    print("# " + msg, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configure (once) and build the Release tools and harness."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no simulator sources at %s/src" % ROOT)
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "bench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(build_log, "w") as logf:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                timeout=850).returncode
            if rc != 0:
                raise BenchError("build step failed (%s); see %s"
                                 % (" ".join(cmd[:2]), build_log))
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError("refusing to report a %r build; delete %s"
                         % (build_type, BUILD))
    return {
        "build_type": build_type,
        "compiler": "%s %s" % (cache_value(cache, "CMAKE_CXX_COMPILER_ID"),
                               compiler_version()),
    }


def cache_value(cache, key):
    for line in cache.splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def compiler_version():
    for line in (BUILD / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        for entry in line.read_text().splitlines():
            if entry.startswith("set(CMAKE_CXX_COMPILER_VERSION"):
                return entry.split('"')[1]
    return "unknown"


def environment(build_info):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return dict(build_info, nproc=os.cpu_count(), cpu_model=cpu,
                commit=commit_id())


def commit_id():
    """git HEAD when the checkout is a repository, else a source hash."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-sha256:" + h.hexdigest()


# ------------------------------------------------------------- children

def run_child(cmd, stdout_path, stderr_path=None):
    """Run one process to completion; returns (wall s, peak RSS MiB, rc).

    Wall time spans spawn to reap; peak RSS comes from wait4. A child
    that outlives CHILD_TIMEOUT is killed and reaped before raising.
    """
    with open(stdout_path, "wb") as out, \
            open(stderr_path or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= CHILD_TIMEOUT:
        raise BenchError("%s timed out" % cmd[0])
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def harness(workload, args, out_name):
    path = OUT / out_name
    cmd = [str(BUILD / "pva_perfbench"), workload] + args
    _, _, rc = run_child(cmd, path, OUT / (out_name + ".err"))
    if rc != 0:
        raise BenchError("harness %s %s exited %d: %s" % (
            workload, args[0], rc, (OUT / (out_name + ".err")).read_text()))
    result = json.loads(path.read_text())
    if result["build_type"] != "Release" or not result["ndebug"]:
        raise BenchError("refusing to report a harness built as %r"
                         % result["build_type"])
    return result


# ------------------------------------------------------------ workloads

class Workload:
    """Inputs, tool command and output checks of one workload."""

    def __init__(self, name, seed, check=False, raw_tool_seed=None):
        self.name = name
        self.seed = seed
        self.variant = seed % VARIANTS
        self.tool_seed = (raw_tool_seed if raw_tool_seed is not None
                          else tool_seed(seed))
        self.check = check
        self.tag = "%s-s%d%s" % (name, self.tool_seed, "-check" if check
                                 else "")
        self.scenario = None
        if name == "fleet-100k":
            self.scenario = fleet_scenario(self.tool_seed, check)
            self.scenario_path = OUT / (self.tag + ".scenario.json")
            self.scenario_path.write_text(json.dumps(self.scenario))

    def tool_cmd(self, with_json=False):
        bindir = BUILD / "tools"
        if self.name == "paper-grid":
            cmd = [str(bindir / "pva_sim"), "--sweep", "--jobs", "1"]
            return cmd + (["--json"] if with_json else [])
        if self.name == "traffic-ladder":
            L = LADDER
            cmd = [str(bindir / "pva_loadgen"), "--load-sweep",
                   "--mode", "open", "--jobs", "1", "--json",
                   "--seed", str(self.tool_seed),
                   "--streams", str(L["streams"]),
                   "--requests", str(L["requests"]),
                   "--read-frac", str(L["read_frac"]),
                   "--min-stride", str(L["min_stride"]),
                   "--max-stride", str(L["max_stride"]),
                   "--refresh", str(L["refresh"]),
                   "--shed", "on", "--deadline", str(L["deadline"]),
                   "--shed-watermark", str(L["watermark"]),
                   "--queue-cap", str(L["queue_cap"]),
                   "--loads", ",".join(map(str, L["loads"])),
                   "--systems", ",".join(L["systems"])]
            return cmd + (["--check"] if self.check else [])
        return [str(bindir / "pva_loadgen"), "--scenario",
                str(self.scenario_path), "--jobs", "1"]

    def harness_params(self):
        if self.name == "paper-grid":
            return []
        if self.name == "fleet-100k":
            return ["scenario=" + str(self.scenario_path)]
        L = LADDER
        params = dict(L, seed=self.tool_seed, check=int(self.check),
                      loads=",".join(map(str, L["loads"])),
                      systems=",".join(L["systems"]))
        return ["%s=%s" % kv for kv in sorted(params.items())]

    def parse(self, text):
        """The simulated result inside one tool output."""
        if self.name == "paper-grid":
            return M.parse_grid_csv(text)
        doc = json.loads(text)
        return doc["loadSweep"]["points"] if self.name == "traffic-ladder" \
            else doc["fleet"]

    def sim_metrics(self, result):
        if self.name == "paper-grid":
            return M.grid_metrics(result)
        if self.name == "traffic-ladder":
            return M.ladder_metrics(result)
        return M.fleet_metrics(result, self.scenario)

    def harness_matches(self, mine, text, result):
        """Does the harness's output equal the tool's? The tool wraps the
        ladder's writeLoadJson output in its envelope; the other outputs
        are byte for byte the tool's."""
        if self.name == "traffic-ladder":
            return json.loads(mine)["points"] == result
        return mine == text

    def units(self, result):
        """Operations one tool run attempts: points or requests."""
        if self.name == "paper-grid":
            return len(result)
        if self.name == "traffic-ladder":
            return sum(M.offered_requests(p["result"]) for p in result)
        return M.fleet_offered_requests(self.scenario)

    def violations(self, text, result, expect_digest=True):
        """Every way one tool output is wrong (empty list: correct)."""
        if self.name == "paper-grid":
            bad = ["row %s/%s/%s/%s: %d mismatches" % (
                r["system"], r["kernel"], r["stride"], r["alignment"],
                r["mismatches"]) for r in result if r["mismatches"]]
            if text.encode() != EXPECTED_GRID.read_bytes():
                bad.append("CSV differs from %s"
                           % EXPECTED_GRID.relative_to(ROOT))
            return bad
        if self.name == "traffic-ladder":
            bad = M.ladder_violations(result)
        else:
            bad = M.fleet_violations(result, self.scenario)
        if expect_digest:
            want = json.loads(DIGESTS.read_text())[self.name][self.variant]
            got = M.digest(result)
            if got != want:
                bad.append("result digest %s != recorded %s for seed %d"
                           % (got[:12], want[:12], self.seed))
        return bad


def fleet_scenario(seed, check):
    return {
        "kind": "fleet", "name": "fleet-100k", "system": "pva",
        "policy": "fifo", "shards": 1, "seed": seed, "check": check,
        "shed": {"enabled": True, "deadline": 4000},
        "tenants": [{
            "name": "t", "count": 1563, "streamsPerTenant": 64,
            "stream": {
                "mode": "open", "rate": 0.0003, "requests": 2,
                "queueCap": 4,
                "pattern": {"minStride": 1, "maxStride": 32,
                            "minLength": 8, "maxLength": 32,
                            "readFraction": 0.5}}}],
    }


def run_tool(wl, rep, with_json=False):
    """One untraced tool run: (wall, rss, stdout text, stderr path)."""
    out = OUT / ("%s.tool%d.out" % (wl.tag, rep))
    err = OUT / ("%s.tool%d.err" % (wl.tag, rep))
    wall, rss, rc = run_child(wl.tool_cmd(with_json), out, err)
    if rc != 0:
        raise BenchError("%s exited %d: %s" % (
            wl.tool_cmd()[0], rc, err.read_text()[-2000:]))
    return wall, rss, out.read_text(), err


def fits(deadline, durations):
    """Would one more repetition, as long as the median so far, end
    before the deadline?"""
    return time.perf_counter() + M.median(durations) <= deadline


def setup_times(wl, budget):
    """Set-up times (s), repeated in one harness process for ~budget s."""
    probe = harness(wl.name, ["setup", "reps=1"] + wl.harness_params(),
                    wl.tag + ".setup.json")["setup_s"][0]
    reps = max(MIN_SETUP_REPS, int(budget / max(probe, 1e-4)))
    reps = min(reps, 2000)
    return harness(wl.name, ["setup", "reps=%d" % reps]
                   + wl.harness_params(), wl.tag + ".setup.json")["setup_s"]


# ------------------------------------------------------------- the runs

def end_to_end(wl, seconds):
    """--trace 0: untraced tool runs for `seconds`; medians."""
    setups = setup_times(wl, SETUP_SHARE * seconds)
    walls, rss, first, sim = [], [], None, None
    attempted = failed = 0
    deadline = time.perf_counter() + (1.0 - SETUP_SHARE) * seconds
    while len(walls) < MIN_REPS or fits(deadline, walls):
        wall, peak, text, _ = run_tool(wl, len(walls) % 2)
        walls.append(wall)
        rss.append(peak)
        if first is None:
            first = text
            result = wl.parse(text)
            sim = wl.sim_metrics(result)
            units = wl.units(result)
            bad = wl.violations(text, result)
            for b in bad:
                log("INCORRECT: " + b)
            failed += units if bad else 0
        elif text != first:
            log("INCORRECT: run %d output differs from run 0" % len(walls))
            failed += units
        attempted += units
    metrics = dict(sim)
    metrics["setup_s"] = M.median(setups)
    metrics["wall_s"] = M.median(walls)
    metrics["sim_cycles_per_s"] = M.median(
        [sim["sim_cycles"] / w for w in walls])
    metrics["peak_rss_mib"] = M.median(rss)
    samples = {"setup_s": setups, "wall_s": walls, "peak_rss_mib": rss}
    return metrics, attempted, failed, samples


def per_layer(wl, seconds):
    """--trace 1: one reference tool run, then alternating untraced and
    traced harness runs for `seconds`; medians of host times."""
    start = time.perf_counter()
    _, _, text, err = run_tool(wl, 0, with_json=True)
    result = wl.parse(text)
    units = wl.units(result)
    bad = wl.violations(text, result)
    extra = {"baselines.paper_err_pct": 0.0, "kernels.retries": 0.0,
             "kernels.failures": 0.0, "traffic.queue_delay_p99": 0.0}
    if wl.name == "paper-grid":
        extra["baselines.paper_err_pct"] = M.paper_err_pct(
            M.headline_speedups(result))
        envelope = json.loads(envelope_text(err))
        scalars = envelope["stats"]["scalars"]
        extra["kernels.retries"] = float(scalars["sweep.retries"])
        extra["kernels.failures"] = float(scalars["sweep.failures"])
        table_cmds = sum(M.kernel_commands(r["kernel"]) for r in result)
    if wl.name == "traffic-ladder":
        extra["traffic.queue_delay_p99"] = float(
            M.pva_rungs(result)[M.LATENCY_RUNG]["queueDelay"]["p99"])

    untraced, traced, pairs = [], [], []
    while not pairs or fits(start + seconds, pairs):
        began = time.perf_counter()
        for trace, runs in ((0, untraced), (1, traced)):
            name = "%s.harness%d" % (wl.tag, trace)
            out = OUT / (name + ".out")
            args = ["run", "trace=%d" % trace, "out=%s" % out]
            if trace:
                args.append("spans=%s" % (OUT / (name + ".spans.jsonl")))
            rep = harness(wl.name, args + wl.harness_params(),
                          name + ".json")
            if not wl.harness_matches(out.read_text(), text, result):
                bad.append("harness (trace=%d) output differs from the "
                           "tool's" % trace)
            runs.append(rep)
        pairs.append(time.perf_counter() - began)
    counts = untraced[0]["counts"]
    for rep in untraced + traced:
        if rep["counts"] != counts:
            bad.append("per-layer counts differ between harness runs")
            break
    if wl.name == "paper-grid" and counts["kernels.commands"] != table_cmds:
        bad.append("kernel command table disagrees with the traces")

    names = set().union(*(r["self_s"] for r in traced))
    self_s = {n: M.median([r["self_s"].get(n, 0.0) for r in traced])
              for n in names}
    point_ms = [M.median(ms) for ms in zip(*(r["point_ms"] for r in traced))]
    metrics = M.layer_metrics(counts, self_s, point_ms)
    metrics.update(extra)
    metrics["fleet.rss_bytes_per_stream"] = M.median(
        [r["rss_bytes_per_stream"] for r in untraced + traced])
    metrics["trace.overhead_ratio"] = M.ratio(
        M.median([r["wall_s"] for r in traced]),
        M.median([r["wall_s"] for r in untraced]))
    for b in bad:
        log("INCORRECT: " + b)
    runs = 1 + len(untraced) + len(traced)
    samples = {"untraced_wall_s": [r["wall_s"] for r in untraced],
               "traced_wall_s": [r["wall_s"] for r in traced],
               "self_s": [r["self_s"] for r in traced]}
    return metrics, units * runs, units * runs if bad else 0, samples


def envelope_text(err_path):
    """The JSON envelope pva_sim --sweep --json writes after its log."""
    text = err_path.read_text()
    start = text.find('{"schemaVersion"')
    if start < 0:
        raise BenchError("no JSON envelope in %s" % err_path)
    return text[start:]


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# ------------------------------------------------------------ self-test

def self_test():
    """Metric-math tests plus one held-out seed of traffic-ladder and
    fleet-100k with the protocol checker attached."""
    import unittest
    suite = unittest.defaultTestLoader.discover(str(HERE),
                                                pattern="test_*.py")
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        return 1
    build()
    OUT.mkdir(exist_ok=True)
    ok = True
    for name in ("traffic-ladder", "fleet-100k"):
        held = Workload(name, 0, check=True,
                        raw_tool_seed=HELD_OUT_TOOL_SEED)
        _, _, text, _ = run_tool(held, 0)
        result = held.parse(text)
        bad = held.violations(text, result, expect_digest=False)
        out = OUT / (held.tag + ".h.out")
        rep = harness(name, ["run", "trace=0", "out=%s" % out]
                      + held.harness_params(), held.tag + ".h.json")
        if not held.harness_matches(out.read_text(), text, result):
            bad.append("harness output differs from the tool's")
        checked = rep["counts"].get("checker.commands", 0)
        if checked == 0:
            bad.append("the protocol checker audited no commands")
        default = Workload(name, 0)
        _, _, base_text, _ = run_tool(default, 0)
        held_m = held.sim_metrics(result)
        base_m = default.sim_metrics(default.parse(base_text))
        if held_m == base_m:
            bad.append("held-out seed gives the default seed's metrics")
        for b in bad:
            print("FAIL %s held-out seed: %s" % (name, b))
        ok = ok and not bad
        print("%s held-out tool seed %d with --check: %s; checker audited "
              "%d commands; sim metrics %s vs default %s" % (
                  name, HELD_OUT_TOOL_SEED, "clean" if not bad else "FAILED",
                  checked, held_m, base_m))
    return 0 if ok else 1


def record_digests():
    """Write expected_digests.json from the current simulator. Only for
    a change that alters simulated results on purpose and says so."""
    build()
    OUT.mkdir(exist_ok=True)
    table = {}
    for name in ("traffic-ladder", "fleet-100k"):
        table[name] = []
        for variant in range(VARIANTS):
            wl = Workload(name, variant)
            _, _, text, _ = run_tool(wl, 0)
            result = wl.parse(text)
            bad = wl.violations(text, result, expect_digest=False)
            if bad:
                raise BenchError("variant %d of %s: %s" % (variant, name,
                                                           bad))
            table[name].append(M.digest(result))
            log("%s variant %d: %s" % (name, variant, wl.sim_metrics(result)))
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


# ----------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.record_digests:
            return record_digests()
        if not args.workload:
            ap.error("--workload is required")
        if args.seed < 0:
            ap.error("--seed must be non-negative")
        info = build()
        units = declared_units(args.trace)
        OUT.mkdir(exist_ok=True)
        env = environment(info)
        log("env " + json.dumps(env, sort_keys=True))
        wl = Workload(args.workload, args.seed)
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, samples = run(wl, args.seconds)
        if set(metrics) != set(units):
            raise BenchError("metrics %s do not match BENCHMARK.json"
                             % sorted(set(metrics) ^ set(units)))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    line = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }
    record = dict(line, workload=args.workload, seed=args.seed,
                  tool_seed=wl.tool_seed, seconds=args.seconds,
                  trace=args.trace, env=env, samples=samples)
    (OUT / ("result-%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))).write_text(
            json.dumps(record, indent=1) + "\n")
    for k, m in line["metrics"].items():
        log("%-34s %16.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps(line), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
