"""Self-tests of the benchmark's metric math (python3 perfbench/run.py
--self-test runs them, or: python3 -m unittest discover perfbench)."""

import unittest

import metrics as M


def rung(shed=0, p99=100, p50=40, achieved=10.0, cycles=1000):
    return {"shed": shed, "cycles": cycles, "completed": 10,
            "requestsPerKilocycle": achieved,
            "totalLatency": {"p50": p50, "p99": p99},
            "queueDelay": {"p99": 0},
            "streams": [{"name": "s0", "requests": 10 + shed,
                         "completed": 10, "shedDeadline": shed,
                         "shedOverload": 0}]}


def point(system, offered, **kw):
    return {"system": system, "offered": offered, "failed": False,
            "result": rung(**kw)}


class Capacity(unittest.TestCase):
    def test_highest_qualifying_rung(self):
        rungs = {5.0: rung(p99=60), 40.0: rung(p99=120),
                 60.0: rung(shed=3, p99=3500)}
        self.assertEqual(M.capacity(rungs), 40.0)

    def test_latency_limit_is_inclusive(self):
        rungs = {5.0: rung(p99=60), 10.0: rung(p99=M.LAT_LIMIT_CYCLES),
                 20.0: rung(p99=M.LAT_LIMIT_CYCLES + 1)}
        self.assertEqual(M.capacity(rungs), 10.0)

    def test_shedding_disqualifies_even_with_low_latency(self):
        rungs = {5.0: rung(p99=60), 10.0: rung(shed=1, p99=60)}
        self.assertEqual(M.capacity(rungs), 5.0)

    def test_no_rung_qualifies(self):
        rungs = {5.0: rung(shed=1), 10.0: rung(p99=10 ** 6)}
        self.assertEqual(M.capacity(rungs), 0.0)
        self.assertEqual(M.capacity({}), 0.0)

    def test_highest_not_first_failure(self):
        # A rung above a failing one still counts: the definition is the
        # highest qualifying rung, not the last one before a failure.
        rungs = {5.0: rung(), 10.0: rung(shed=1), 20.0: rung()}
        self.assertEqual(M.capacity(rungs), 20.0)


class Ratios(unittest.TestCase):
    def test_zero_denominator(self):
        self.assertEqual(M.ratio(5, 0), 0.0)
        self.assertEqual(M.ratio(0, 0), 0.0)
        self.assertEqual(M.ratio(3, 4), 0.75)

    def test_empty_layer_counts_are_zero(self):
        out = M.layer_metrics({}, {}, [])
        self.assertTrue(all(v == 0.0 for v in out.values()), out)

    def test_layer_ratio_bases(self):
        counts = {"sim.ticks": 100, "sim.skipped": 300, "sim.cycles": 400,
                  "core.bc.observes": 50, "core.bc.hits": 20,
                  "core.bc.active": 30, "core.bc.bank_ticks": 1600,
                  "core.frontend.read_latency_sum": 900,
                  "core.frontend.read_latency_n": 9,
                  "sdram.cas": 80, "sdram.row_hits": 60,
                  "bus.data_cycles": 64, "bus.cycles": 256,
                  "traffic.grants": 4, "fleet.grants": 8}
        self_s = {"sim.run_until": 2e-6, "sys.calls": 1e-6,
                  "traffic.service": 4e-6, "fleet.service": 4e-6}
        out = M.layer_metrics(counts, self_s, [])
        self.assertEqual(out["sim.skip_ratio"], 300 / 400)
        self.assertAlmostEqual(out["sim.ns_per_tick"], 3000 / 100)
        self.assertEqual(out["core.bc.hit_ratio"], 20 / 50)
        self.assertEqual(out["core.bc.active_ratio"], 30 / 1600)
        self.assertEqual(out["core.frontend.read_latency_mean"], 100.0)
        self.assertEqual(out["core.frontend.write_latency_mean"], 0.0)
        self.assertEqual(out["sdram.row_hit_ratio"], 60 / 80)
        self.assertEqual(out["bus.data_util"], 64 / 256)
        self.assertAlmostEqual(out["traffic.ns_per_grant"], 1000.0)
        self.assertAlmostEqual(out["fleet.ns_per_grant"], 500.0)


class Statistics(unittest.TestCase):
    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(M.percentile(values, 50), 50)
        self.assertEqual(M.percentile(values, 99), 99)
        self.assertEqual(M.percentile([7], 99), 7)
        self.assertEqual(M.percentile([], 50), 0.0)

    def test_spread_is_quartile_distance_over_median(self):
        self.assertEqual(M.spread([10.0] * 10), 0.0)
        self.assertEqual(M.spread([1.0]), 0.0)
        self.assertAlmostEqual(M.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)

    def test_digest_ignores_host_fields_only(self):
        a = {"cycles": 10, "cyclesPerSecond": 1, "x": [{"wallMillis": 2}]}
        b = {"cycles": 10, "cyclesPerSecond": 9, "x": [{"wallMillis": 7}]}
        self.assertEqual(M.digest(a), M.digest(b))
        self.assertNotEqual(M.digest(a), M.digest(dict(a, cycles=11)))


class Workloads(unittest.TestCase):
    GRID = ("system,kernel,stride,alignment,cycles,mismatches\n"
            "PVA SDRAM,copy,1,aligned,100,0\n"
            "PVA SDRAM,copy,1,bank+1,80,0\n"
            "cache-line serial SDRAM,copy,1,aligned,400,0\n"
            "gathering pipelined SDRAM,copy,1,aligned,240,0\n"
            "PVA SRAM,vaxpy,1,aligned,1000,2\n")

    def test_grid_metrics(self):
        rows = M.parse_grid_csv(self.GRID)
        out = M.grid_metrics(rows)
        copy, vaxpy = M.kernel_commands("copy"), M.kernel_commands("vaxpy")
        self.assertEqual((copy, vaxpy), (64, 128))
        self.assertEqual(out["sim_cycles"], 1820.0)
        self.assertEqual(out["throughput_req_per_kc"],
                         1000.0 * (4 * copy + vaxpy) / 1820)
        # Capacity counts the PVA SDRAM rows only.
        self.assertEqual(out["capacity_req_per_kc"], 1000.0 * 2 * copy / 180)
        self.assertEqual(out["served_ratio"], 4 / 5)
        self.assertEqual(out["lat_p50_cycles"], 240.0)
        self.assertEqual(out["lat_p99_cycles"], 1000.0)

    def test_headline_speedups_use_best_alignment(self):
        rows = M.parse_grid_csv(self.GRID)
        s = M.headline_speedups(rows)
        self.assertEqual(s["PVA vs cache-line"], 400 / 80)
        self.assertEqual(s["PVA vs gathering"], 240 / 80)
        exact = {k: v for k, v in M.PAPER_MAX_SPEEDUP.items()}
        self.assertEqual(M.paper_err_pct(exact), 0.0)
        self.assertAlmostEqual(
            M.paper_err_pct({"PVA vs cache-line": 32.8 * 1.1,
                             "PVA vs gathering": 3.3 * 0.9}), 10.0)

    def test_ladder_metrics(self):
        points = [point("pva", 40.0, p50=50, p99=120),
                  point("pva", 120.0, shed=6, achieved=55.0),
                  point("cacheline", 40.0, shed=2)]
        out = M.ladder_metrics(points)
        self.assertEqual(out["lat_p50_cycles"], 50.0)
        self.assertEqual(out["lat_p99_cycles"], 120.0)
        self.assertEqual(out["throughput_req_per_kc"], 55.0)
        self.assertEqual(out["capacity_req_per_kc"], 40.0)
        # Base: every request offered on every rung of every system.
        self.assertEqual(out["served_ratio"], 30 / 38)
        self.assertEqual(M.ladder_violations(points), [])
        points[0]["result"]["streams"][0]["completed"] = 9
        self.assertEqual(len(M.ladder_violations(points)), 1)

    def test_fleet_metrics_and_invariants(self):
        scenario = {"tenants": [{"count": 2, "streamsPerTenant": 5,
                                 "stream": {"rate": 0.5, "requests": 3}}]}
        fleet = {"cycles": 1000, "completed": 30, "shed": 0, "grants": 30,
                 "busGrants": 30, "busSheds": 0,
                 "requestsPerKilocycle": 30.0,
                 "totalLatency": {"p50": 40, "p99": 150}}
        out = M.fleet_metrics(fleet, scenario)
        self.assertEqual(out["capacity_req_per_kc"], 5.0)
        self.assertEqual(out["served_ratio"], 1.0)
        self.assertEqual(M.fleet_violations(fleet, scenario), [])
        bad = dict(fleet, busGrants=29, shed=1)
        self.assertEqual(len(M.fleet_violations(bad, scenario)), 3)
        self.assertEqual(M.fleet_metrics(bad, scenario)
                         ["capacity_req_per_kc"], 0.0)


if __name__ == "__main__":
    unittest.main()
