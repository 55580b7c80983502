// Command perfbench is the repository's benchmark: it runs the DrAFTS
// service stack — the service, core, qbets, store, cluster and tenant
// packages — at the paper's scale (the 452-combo, 90-day catalog of
// Table 1) in the configuration draftsd runs, in one process, and checks
// every output it measures.
//
//	perfbench --workload refresh-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// records spans around its calls into each layer, measures the layers
// one by one, and prints the per-layer metrics instead. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. Any incorrect output makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: refresh-steady or refresh-durable")
	seed := fs.Int64("seed", 1, "input seed: one seed gives the same inputs on every run")
	secs := fs.Int("seconds", 10, "measured time")
	traceFlag := fs.Int("trace", 0, "1 measures the layers and prints the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for spans, digests and the durable store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *traceFlag)
		return 2
	}
	s := &runState{wl: wl, seed: *seed, secs: float64(*secs), traced: *traceFlag == 1,
		outDir: *out, rec: newRecorder(*traceFlag == 1)}
	res, err := s.execute()
	if s.e != nil {
		s.e.close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs the workload and assembles its result.
func (s *runState) execute() (result, error) {
	s.ticks0 = readTicks()
	if err := s.setupEnv(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	if err := s.runCycles(); err != nil {
		return result{}, err
	}
	spans := refreshSpans(s.e.tracer)
	if err := s.runServe(); err != nil {
		return result{}, err
	}
	peakRSS := vmHWMMiB()
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) / (1 << 20)

	res := result{Attempted: s.tried, Failed: s.failed, Metrics: map[string]metric{}}
	if s.traced {
		if err := s.measureLayers(spans, res.Metrics); err != nil {
			return result{}, err
		}
		path := filepath.Join(s.outDir, fmt.Sprintf("spans-%s-%d.jsonl", s.wl.name, s.seed))
		if err := s.rec.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	} else {
		s.endToEnd(peakRSS, liveHeap, res.Metrics)
	}
	res.Attempted, res.Failed = s.tried, s.failed
	res.Correct = s.failed == 0
	return res, nil
}

// endToEnd fills the end-to-end metrics.
func (s *runState) endToEnd(peakRSS, liveHeap float64, m map[string]metric) {
	var refresh, lag []float64
	for _, c := range s.timed() {
		refresh = append(refresh, c.unstolen(c.refresh))
		lag = append(lag, c.unstolen(c.lag))
	}
	m["setup_s"] = metric{median(s.setup), "s"}
	m["cold_refresh_s"] = metric{s.cold.unstolen(s.cold.refresh), "s"}
	m["refresh_s"] = metric{median(refresh), "s"}
	m["publish_lag_s"] = metric{median(lag), "s"}
	m["peak_rss_mib"] = metric{peakRSS, "MiB"}
	m["live_heap_mib"] = metric{liveHeap, "MiB"}
	m["cpu_us_per_req"] = metric{s.serve.cpuPerReq, "us"}
	fmt.Fprintf(os.Stderr, "perfbench: less steal: setup %.3f s (n=%d), cold %.3f s, refresh %.3f s (n=%d), lag %.3f s\n",
		s.setup, len(s.setup), m["cold_refresh_s"].Value, refresh, len(refresh), lag)
	fmt.Fprintf(os.Stderr, "perfbench: host steal %.1f%% of busy CPU time during the run, open-loop lateness p99 %.3f ms\n",
		100*stolen(s.ticks0, readTicks()), s.serve.lagP99)
}

// measureLayers runs the traced run's layer measurements and fills the
// per-layer metrics. spans are the service's refresh traces, cold first.
func (s *runState) measureLayers(spans []map[string]float64, m map[string]metric) error {
	e := s.e
	if len(spans) != len(s.cycles)+1 {
		return fmt.Errorf("flight recorder holds %d refresh traces, want %d", len(spans), len(s.cycles)+1)
	}
	steady := func(f func(c cycleStats) float64) float64 {
		var xs []float64
		for _, c := range s.timed() {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	spanMedian := func(names ...string) float64 {
		var xs []float64
		for _, sp := range spans[1+s.wl.warmCycles:] {
			v := 0.0
			for _, n := range names {
				v += sp[n]
			}
			xs = append(xs, v)
		}
		return median(xs)
	}
	tables := float64(len(e.feed.combos) * 2)
	for i, c := range s.cycles {
		sum := 0.0
		for _, n := range []string{"ticks.ingest", "tables.build", "surfaces.build", "blob.encode", "blob.views",
			"snapshot.encode", "snapshot.write", "wal.compact"} {
			sum += spans[i+1][n]
		}
		fmt.Fprintf(os.Stderr, "perfbench: cycle %d layers %.3f s of refresh %.3f s\n", c.k, sum, c.refresh.Seconds())
		if sum > c.refresh.Seconds() {
			s.fail(fmt.Errorf("cycle %d: per-layer times %.3f s exceed the refresh %.3f s", c.k, sum, c.refresh.Seconds()))
		}
	}

	// The traced run's cycles differ from the untraced run's only by the
	// benchmark's own spans; trace.overhead_pct compares serving windows.
	fmt.Fprintf(os.Stderr, "perfbench: traced run refresh %.3f s (median of %d cycles)\n",
		steady(func(c cycleStats) float64 { return c.refresh.Seconds() }), len(s.timed()))

	m["history.append_s"] = metric{steady(func(c cycleStats) float64 { return c.appendDur.Seconds() }), "s"}
	m["history.ticks"] = metric{steady(func(c cycleStats) float64 { return float64(c.ticks) }), "count"}
	m["qbets.observations"] = metric{steady(func(c cycleStats) float64 {
		return delta(c.before, c.after, "drafts_qbets_observations_total")
	}), "count"}
	m["service.ingest_s"] = metric{spanMedian("ticks.ingest"), "s"}
	m["service.build_s"] = metric{spanMedian("tables.build"), "s"}
	m["service.surfaces_s"] = metric{spanMedian("surfaces.build"), "s"}
	m["service.encode_s"] = metric{spanMedian("blob.encode", "blob.views"), "s"}
	m["service.snapshot_encode_s"] = metric{spanMedian("snapshot.encode"), "s"}
	m["store.snapshot_write_s"] = metric{spanMedian("snapshot.write"), "s"}
	m["store.compact_s"] = metric{spanMedian("wal.compact"), "s"}
	m["service.incremental_frac"] = metric{steady(func(c cycleStats) float64 {
		return delta(c.before, c.after, "drafts_refresh_incremental_total") / tables
	}), "frac"}
	m["service.tables_changed_frac"] = metric{steady(func(c cycleStats) float64 { return c.changed }), "frac"}
	last := s.cycles[len(s.cycles)-1]
	m["service.snapshot_mib"] = metric{last.after.sum("drafts_snapshot_bytes") / (1 << 20), "MiB"}
	m["store.wal_append_s"] = metric{steady(func(c cycleStats) float64 { return c.walDur.Seconds() }), "s"}
	m["store.wal_fsyncs"] = metric{steady(func(c cycleStats) float64 {
		return delta(c.before, c.after, "drafts_wal_fsyncs_total")
	}), "count"}
	m["cluster.ship_s"] = metric{steady(func(c cycleStats) float64 { return c.ship.Seconds() }), "s"}
	ship := e.shipper.Stats()
	m["cluster.ship_bytes"] = metric{float64(ship.Bytes), "bytes"}
	m["cluster.ship_fulls"] = metric{float64(ship.Fulls), "count"}
	m["cluster.ship_deltas"] = metric{float64(ship.Deltas), "count"}

	sv := s.serve
	m["core.surface_lookups"] = metric{sv.surfaceLookups, "count"}
	m["core.advise_scans"] = metric{sv.adviseScans, "count"}
	m["core.scan_frac"] = metric{sv.adviseScans / (sv.adviseScans + sv.surfaceLookups), "frac"}
	m["tenant.rate_limited"] = metric{sv.rateLimited, "count"}
	m["resilience.shed"] = metric{sv.shed, "count"}
	m["resilience.queue_wait_ms"] = metric{sv.queueWaitMs, "ms"}
	m["trace.sampled"] = metric{sv.sampled, "count"}
	m["trace.overhead_pct"] = metric{sv.overheadPct, "%"}
	m["loadgen.sent"] = metric{float64(sv.sent), "count"}
	m["loadgen.lag_p99_ms"] = metric{sv.lagP99, "ms"}
	// What the load generator saw. Closed-loop throughput and open-loop
	// latency move with the host's CPU steal by more than any bound a run
	// can hold, so they are reported here, without a bound, and not among
	// the end-to-end metrics.
	m["loadgen.closed_rps"] = metric{sv.throughput, "1/s"}
	m["loadgen.p50_ms"] = metric{sv.p50, "ms"}
	m["loadgen.p99_ms"] = metric{sv.p99, "ms"}

	// The Go runtime's figures per steady cycle.
	m["runtime.gc_cycles"] = metric{steady(func(c cycleStats) float64 {
		return delta(c.before, c.after, "drafts_go_gc_cycles_total")
	}), "count"}
	m["runtime.gc_pause_max_ms"] = metric{last.after.sum("drafts_go_gc_pause_max_seconds") * 1e3, "ms"}
	m["runtime.alloc_mib"] = metric{steady(func(c cycleStats) float64 { return c.allocBytes / (1 << 20) }), "MiB"}

	// Request path, on this goroutine with nothing else running.
	var canonical []byte
	for _, t := range s.mix {
		if t.cls == clsPredictions && t.expect != nil && hasCanonicalKey(t.raw) {
			canonical = t.raw
			break
		}
	}
	if canonical == nil {
		return fmt.Errorf("mix has no sampled canonical predictions request")
	}
	steps, err := ladder(e, canonical, s.seed)
	if err != nil {
		return err
	}
	for step, c := range steps {
		m["service."+step+"_ns"] = metric{c.ns, "ns/op"}
		m["service."+step+"_allocs"] = metric{c.allocs, "allocs/op"}
	}
	routes, err := routeCosts(e, s.mix)
	if err != nil {
		return err
	}
	for route, c := range routes {
		m["service."+route+"_ns"] = metric{c.ns, "ns/op"}
		m["service."+route+"_allocs"] = metric{c.allocs, "allocs/op"}
	}
	lookup, allow, acquire, err := microLayers()
	if err != nil {
		return err
	}
	m["tenant.lookup_ns"] = metric{lookup, "ns/op"}
	m["tenant.allow_ns"] = metric{allow, "ns/op"}
	m["resilience.acquire_ns"] = metric{acquire, "ns/op"}

	// The replay keeps a second predictor set; release the service's
	// first so the two never share the heap.
	f, rotate, cycles := e.feed, s.wl.rotate, min(len(s.cycles), 3)
	e.close()
	s.e = nil
	runtime.GC()
	replay, err := replayLayers(f, rotate, cycles, runtime.GOMAXPROCS(0), []float64{0.95, 0.99}, s.rec)
	if err != nil {
		return err
	}
	rmed := func(g func(r replayCycle) float64) float64 {
		var xs []float64
		for _, r := range replay {
			xs = append(xs, g(r))
		}
		return median(xs)
	}
	m["core.clone_s"] = metric{rmed(func(r replayCycle) float64 { return r.clone.Seconds() }), "s"}
	m["core.clone_alloc_mib"] = metric{rmed(func(r replayCycle) float64 { return r.cloneAllocMiB }), "MiB"}
	m["core.observe_s"] = metric{rmed(func(r replayCycle) float64 { return r.observe.Seconds() }), "s"}
	m["qbets.bound_s"] = metric{rmed(func(r replayCycle) float64 { return r.bound.Seconds() }), "s"}
	m["qbets.bound_calls"] = metric{rmed(func(r replayCycle) float64 { return float64(r.boundCalls) }), "count"}
	m["core.table_s"] = metric{rmed(func(r replayCycle) float64 { return r.table.Seconds() }), "s"}
	m["core.table_points"] = metric{rmed(func(r replayCycle) float64 { return float64(r.points) }), "count"}
	m["core.surface_s"] = metric{rmed(func(r replayCycle) float64 { return r.surface.Seconds() }), "s"}
	m["core.surface_entries"] = metric{rmed(func(r replayCycle) float64 { return float64(r.entries) }), "count"}
	return nil
}
