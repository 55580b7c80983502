package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

// workload is one set of inputs the benchmark runs. Every workload sets
// up the same production-configured writer and replica over the
// 452-combo, 90-day catalog, runs a cold refresh and steady 15-minute
// cycles, and then serves the request mix over loopback HTTP; they differ
// in persistence, in which combos advance, and in where the measured
// time goes.
type workload struct {
	name string
	// durable gives the writer a store.Store (WAL plus snapshots).
	durable bool
	// rotate advances only one region's combos per cycle, and the timed
	// cycles cover whole rotations, so every region weighs the same in
	// the median.
	rotate bool
	// warmCycles steady cycles run first and are checked but not timed:
	// the first cycles after the cold refresh fault in the memory the
	// predictor clones need, which a live writer does once.
	warmCycles int
	// Timed steady cycles run for --seconds, and at least minCycles.
	minCycles int
}

var workloads = []workload{
	{name: "refresh-steady", warmCycles: 2, minCycles: 5},
	{name: "refresh-durable", durable: true, rotate: true, warmCycles: 1, minCycles: 3},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// setupRepeats is how many times a run builds its environment; the
	// median is setup_s.
	setupRepeats = 3
	// conns is the load generator's connection count: the machine's two
	// vCPUs.
	conns = 2
	// openRate is the open loop's fixed offered rate, requests per second,
	// well under the closed-loop capacity of the serving path.
	openRate = 6000
	// serveSeconds is how long a run serves after its cycles.
	serveSeconds = 4
	// closedBursts is how many closed-loop bursts a run's throughput is
	// the median of.
	closedBursts = 8
	// openWindow is the open loop's window: p50 and p99 are medians over
	// windows, so a host stall that spoils a minority of them does not
	// move the figures. At openRate a window holds 1200 requests, 12 of
	// them beyond its p99.
	openWindow = 200 * time.Millisecond
	// closedShare is the share of the serving time run closed loop.
	closedShare = 0.4
	// replicaTimeout bounds how long a cycle waits for the replica.
	replicaTimeout = 60 * time.Second
)

// cycleStats is what one refresh cycle measured.
type cycleStats struct {
	k          int
	refresh    time.Duration
	lag        time.Duration
	ship       time.Duration
	appendDur  time.Duration
	walDur     time.Duration
	ticks      int
	digest     epochDigest
	changed    float64
	before     instruments
	after      instruments
	allocBytes float64
	// cpu is the process CPU time of the refresh. steal is the share of
	// the machine's busy CPU time the hypervisor gave to other guests from
	// the start of the refresh until the replica installed the epoch.
	cpu   time.Duration
	steal float64
}

// unstolen is d less the share of it the hypervisor ran other guests:
// the end-to-end times measure the program, not the host's neighbours.
func (c cycleStats) unstolen(d time.Duration) float64 {
	return d.Seconds() * (1 - c.steal)
}

// runState carries a run from setup to the result.
type runState struct {
	wl      workload
	seed    int64
	secs    float64
	traced  bool
	outDir  string
	rec     *recorder
	e       *env
	setup   []float64
	cold    cycleStats
	cycles  []cycleStats // every steady cycle, warm-up ones first
	serve   serveStats
	mix     []tmpl
	failed  int64
	tried   int64
	digests []uint64
	// The machine's CPU ticks when the run began.
	ticks0 cpuTicks
}

// fail records a correctness failure.
func (s *runState) fail(err error) {
	s.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
}

// setupEnv builds the environment setupRepeats times, keeping the last,
// and records each build's time.
func (s *runState) setupEnv() error {
	dataDir := filepath.Join(s.outDir, "tmp")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	for i := 0; i < setupRepeats; i++ {
		if s.e != nil {
			s.e.close()
			s.e = nil
			runtime.GC()
		}
		ticks0 := readTicks()
		began := time.Now()
		e, err := newEnv(s.wl, s.seed, s.rec, dataDir)
		if err != nil {
			return err
		}
		s.setup = append(s.setup, time.Since(began).Seconds()*(1-stolen(ticks0, readTicks())))
		s.e = e
	}
	return nil
}

// settle collects the heap twice, emptying the sync.Pool victim caches
// too. A live writer refreshes every 15 minutes and the Go runtime forces
// a collection at least every two minutes, so every cycle and the
// requests served between cycles start from a collected heap; settle
// runs before each cycle, before serving and before the live heap is
// read.
func settle() {
	runtime.GC()
	runtime.GC()
}

// runCycle runs refresh cycle k (0 = cold) and checks what it published.
func (s *runState) runCycle(k int, prev *epochDigest) (cycleStats, error) {
	e := s.e
	st := cycleStats{k: k}
	e.cycle, e.cycleID = k, uint64(k)+1
	settle()
	st.before = e.scrape()
	alloc0 := allocBytes()
	ticks0 := readTicks()
	cpu0 := cpuTime()
	began := time.Now()
	e.cycleSpan = s.rec.begin("refresh.cycle", e.cycleID, -1)
	refreshSpan := s.rec.begin("service.Refresh", e.cycleID, e.cycleSpan)
	err := e.writer.Refresh()
	st.refresh = time.Since(began)
	st.cpu = cpuTime() - cpu0
	s.rec.end(refreshSpan)
	if err == nil && e.hookErr != nil {
		err = e.hookErr
	}
	if err != nil {
		return st, fmt.Errorf("refresh %d: %w", k, err)
	}
	installed, err := e.waitReplica(replicaTimeout)
	s.rec.end(e.cycleSpan)
	if err != nil {
		return st, err
	}
	st.steal = stolen(ticks0, readTicks())
	st.allocBytes = allocBytes() - alloc0
	st.after = e.scrape()
	st.lag = installed.Sub(began)
	st.ship = installed.Sub(time.Unix(0, e.published.Load()))
	s.rec.add("cluster.ship", e.cycleID, -1, time.Unix(0, e.published.Load()), installed)
	st.appendDur, st.walDur, st.ticks = e.appendDur, e.walDur, e.ticksAdded

	// Checks run outside the timed cycle.
	s.tried++
	ep := e.writer.CurrentEpoch()
	if err := checkReplica(ep, e.replica.CurrentEpoch()); err != nil {
		s.fail(fmt.Errorf("cycle %d: %w", k, err))
	}
	if st.digest, err = digestEpoch(ep); err != nil {
		s.fail(fmt.Errorf("cycle %d: %w", k, err))
	}
	if prev != nil {
		st.changed = changedFrac(*prev, st.digest)
	}
	rng := rand.New(rand.NewSource(s.seed*1000003 + int64(k)))
	if err := checkOracle(ep, e.hist.Full, rng, oracleSample, runtime.GOMAXPROCS(0)); err != nil {
		s.fail(fmt.Errorf("cycle %d: %w", k, err))
	}
	s.digests = append(s.digests, st.digest.all)
	fmt.Fprintf(os.Stderr, "perfbench: cycle %d refresh %.3fs (cpu %.3fs, steal %.1f%%) lag %.3fs ticks %d digest %016x\n",
		k, st.refresh.Seconds(), st.cpu.Seconds(), 100*st.steal, st.lag.Seconds(), st.ticks, st.digest.all)
	return st, nil
}

// runCycles runs the cold refresh and the steady cycles.
func (s *runState) runCycles() error {
	cold, err := s.runCycle(0, nil)
	if err != nil {
		return err
	}
	s.cold = cold
	prev := cold.digest
	budget := time.Duration(s.secs * float64(time.Second))
	var began time.Time
	for k := 1; k <= maxCycles; k++ {
		timed := k - 1 - s.wl.warmCycles
		if timed == 0 {
			began = time.Now()
		}
		if timed >= s.wl.minCycles && time.Since(began) >= budget &&
			(!s.wl.rotate || timed%len(spot.Regions()) == 0) {
			break
		}
		st, err := s.runCycle(k, &prev)
		if err != nil {
			return err
		}
		prev = st.digest
		s.cycles = append(s.cycles, st)
	}
	pattern := "all"
	if s.wl.rotate {
		pattern = "rotate"
	}
	if err := checkDigests(filepath.Join(s.outDir, "digests"), pattern, s.seed, s.digests); err != nil {
		s.fail(err)
	}
	return nil
}

// timed is the steady cycles after the warm-up ones.
func (s *runState) timed() []cycleStats {
	return s.cycles[s.wl.warmCycles:]
}

// runServe serves the mix from the writer over loopback HTTP.
func (s *runState) runServe() error {
	mix, err := buildMix(s.e, s.seed)
	if err != nil {
		return err
	}
	s.mix = mix
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.e.writer.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	settle()
	s.serve = serveMix(s.e, ln.Addr().String(), mix, serveSeconds, s.rec, s.traced)
	s.tried += s.serve.attempted
	if s.serve.failed > 0 {
		s.failed += s.serve.failed
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %d of %d requests failed, first: %v\n",
			s.serve.failed, s.serve.attempted, s.serve.firstErr)
	}
	return nil
}
