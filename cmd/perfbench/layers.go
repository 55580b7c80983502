package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/resilience"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/telemetry"
	"github.com/drafts-go/drafts/internal/trace"
)

// The traced run's layer measurements. Each times the benchmark's own
// calls into one layer's public functions, records a span around each,
// or reads an instrument the program already exports.

// parallel runs fn(0..n-1) on workers goroutines and returns the wall
// time, the refresh fan-out's shape.
func parallel(n, workers int, fn func(i int)) time.Duration {
	began := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return time.Since(began)
}

// replayCycle is one replayed cycle's per-layer figures.
type replayCycle struct {
	clone, observe, bound, table, surface time.Duration
	cloneAllocMiB                         float64
	observations, boundCalls              int
	points, entries                       int
}

// replayLayers keeps its own predictor set and makes, for every combo
// and probability, the calls the refresh fan-out makes: NewPredictor and
// ObserveSeries when cold, then per cycle Clone and Observe of the new
// ticks, MinBid, Table and Surface. Each call kind runs as its own pass
// over every predictor on as many workers as the fan-out uses, so a
// pass's wall time is that layer's share of a cycle and the allocation
// during the clone pass is the clone's alone. The feed's series are drawn
// again from its seed, outside every timed pass.
func replayLayers(f *feed, rotate bool, cycles, workers int, probs []float64, rec *recorder) ([]replayCycle, error) {
	full, err := f.full()
	if err != nil {
		return nil, err
	}
	type slot struct {
		c    int
		prob float64
		pred *core.Predictor
	}
	var slots []slot
	for ci := range f.combos {
		for _, p := range probs {
			slots = append(slots, slot{c: ci, prob: p})
		}
	}
	have := make([]int, len(f.combos))
	errs := make([]error, len(slots))
	coldSpan := rec.begin("replay.cold", 1, -1)
	parallel(len(slots), workers, func(i int) {
		s := &slots[i]
		series := full[f.combos[s.c]]
		began := time.Now()
		p, err := core.NewPredictor(core.Params{Probability: s.prob}, series.Start)
		if err != nil {
			errs[i] = err
			return
		}
		p.ObserveSeries(series.Slice(0, historyTicks))
		rec.add("core.ObserveSeries", 1, coldSpan, began, time.Now())
		s.pred = p
	})
	rec.end(coldSpan)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range have {
		have[i] = historyTicks
	}
	index := make(map[spot.Combo]int, len(f.combos))
	for i, c := range f.combos {
		index[c] = i
	}

	var out []replayCycle
	for k := 1; k <= cycles; k++ {
		id := uint64(k) + 1
		var rc replayCycle
		advancing := make([]bool, len(f.combos))
		for _, c := range f.advancing(k, rotate) {
			advancing[index[c]] = true
		}
		pass := func(name string, fn func(s *slot)) time.Duration {
			h := rec.begin("replay."+name, id, -1)
			d := parallel(len(slots), workers, func(i int) {
				began := time.Now()
				fn(&slots[i])
				rec.add(name, id, h, began, time.Now())
			})
			rec.end(h)
			return d
		}
		alloc0 := allocBytes()
		rc.clone = pass("core.Clone", func(s *slot) { s.pred = s.pred.Clone() })
		rc.cloneAllocMiB = (allocBytes() - alloc0) / (1 << 20)
		var mu sync.Mutex
		rc.observe = pass("core.Observe", func(s *slot) {
			if !advancing[s.c] {
				return
			}
			prices := full[f.combos[s.c]].Prices[have[s.c] : have[s.c]+ticksPerCycle]
			for _, v := range prices {
				s.pred.Observe(v)
			}
			mu.Lock()
			rc.observations += len(prices)
			mu.Unlock()
		})
		rc.bound = pass("qbets.MinBid", func(s *slot) {
			s.pred.MinBid()
			mu.Lock()
			rc.boundCalls++
			mu.Unlock()
		})
		rc.table = pass("core.Table", func(s *slot) {
			t, _ := s.pred.Table()
			mu.Lock()
			rc.points += len(t.Points)
			mu.Unlock()
		})
		rc.surface = pass("core.Surface", func(s *slot) {
			sf, ok := s.pred.Surface()
			if ok {
				mu.Lock()
				rc.entries += len(sf.Bids)
				mu.Unlock()
			}
		})
		for i := range have {
			if advancing[i] {
				have[i] += ticksPerCycle
			}
		}
		out = append(out, rc)
		fmt.Fprintf(os.Stderr, "perfbench: replay cycle %d clone %.3fs observe %.3fs bound %.3fs table %.3fs surface %.3fs\n",
			k, rc.clone.Seconds(), rc.observe.Seconds(), rc.bound.Seconds(), rc.table.Seconds(), rc.surface.Seconds())
	}
	return out, nil
}

// refreshSpans reads the service's own forced refresh traces, oldest
// first: one map of span name to seconds per refresh.
func refreshSpans(tr *trace.Tracer) []map[string]float64 {
	var traces []trace.TraceJSON
	for _, t := range tr.Report().Recent {
		if t.Kind == "refresh" {
			traces = append(traces, t)
		}
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Start.Before(traces[j].Start) })
	out := make([]map[string]float64, len(traces))
	for i, t := range traces {
		out[i] = map[string]float64{"total": t.DurMS / 1e3}
		for _, sp := range t.Spans {
			if sp.DurUS != nil {
				out[i][sp.Name] += *sp.DurUS / 1e6
			}
		}
	}
	return out
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, reusing one header map so it allocates nothing per request.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// handlerCost is one in-process request's cost.
type handlerCost struct {
	ns     float64 // median over batches
	allocs float64 // mallocs per request, whole number
}

// measureHandler serves req through h on this goroutine for about d and
// returns the median ns/op over five batches and the allocations per
// request. body, when non-nil, is replayed as the request body.
func measureHandler(h http.Handler, req *http.Request, body []byte, want int, d time.Duration) (handlerCost, error) {
	w := &discardWriter{h: http.Header{}}
	var br *bytes.Reader
	var rc io.ReadCloser
	if body != nil {
		br = bytes.NewReader(body)
		rc = io.NopCloser(br)
	}
	serve := func() {
		clear(w.h)
		w.status = http.StatusOK
		if br != nil {
			br.Reset(body)
			req.Body = rc
		}
		h.ServeHTTP(w, req)
	}
	for i := 0; i < 50; i++ {
		serve()
	}
	if w.status != want {
		return handlerCost{}, fmt.Errorf("%s %s: status %d, want %d", req.Method, req.URL, w.status, want)
	}
	// Calibrate a batch to a fifth of d.
	began := time.Now()
	n := 0
	for time.Since(began) < d/50 {
		serve()
		n++
	}
	batch := max(1, n*10)
	var ns []float64
	var total int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < 5; b++ {
		t := time.Now()
		for i := 0; i < batch; i++ {
			serve()
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(batch))
		total += batch
	}
	runtime.ReadMemStats(&after)
	return handlerCost{ns: median(ns), allocs: float64((after.Mallocs - before.Mallocs) / uint64(total))}, nil
}

// parseRaw turns pre-rendered request bytes into an in-process request
// and its body.
func parseRaw(raw []byte) (*http.Request, []byte, error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return nil, nil, err
	}
	var body []byte
	if req.ContentLength > 0 {
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, nil, err
		}
	}
	return req, body, nil
}

// ladder measures cached /v1/predictions on servers that add one layer
// of the production configuration at a time: bare, +metrics, +tenants,
// +admission at 256, +1% tracing. Each is a replica holding the writer's
// epoch, so all serve identical bytes.
func ladder(e *env, raw []byte, seed int64) (map[string]handlerCost, error) {
	ep := e.writer.CurrentEpoch()
	req, _, err := parseRaw(raw)
	if err != nil {
		return nil, err
	}
	steps := []string{"bare", "metrics", "tenants", "admission", "trace"}
	out := map[string]handlerCost{}
	var cfg service.Config
	tenants := false
	for _, step := range steps {
		switch step {
		case "metrics":
			cfg.Metrics = telemetry.NewRegistry()
		case "tenants":
			tenants = true
		case "admission":
			cfg.MaxConcurrent = maxConcurrent
		case "trace":
			if cfg.Tracer, err = trace.New(trace.Config{SampleRate: traceSample, Seed: seed, Now: time.Now}); err != nil {
				return nil, err
			}
		}
		// Each server gets its own tenant registry: the server installs
		// its clock and concurrency share into it.
		if tenants {
			if cfg.Tenants, cfg.AccountMappings, err = newTenantRegistry(); err != nil {
				return nil, err
			}
		}
		rep, err := service.NewReplica(cfg)
		if err != nil {
			return nil, err
		}
		if err := rep.InstallEpoch(ep); err != nil {
			return nil, err
		}
		c, err := measureHandler(rep.Handler(), req, nil, http.StatusOK, 300*time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", step, err)
		}
		out[step] = c
	}
	return out, nil
}

// routeCosts measures one request of each class on the writer itself, in
// the full production configuration: the first oracle-checked request of
// the class that a canonical tenant sent and that succeeded.
func routeCosts(e *env, mix []tmpl) (map[string]handlerCost, error) {
	out := map[string]handlerCost{}
	h := e.writer.Handler()
	for cls := class(0); cls < numClasses; cls++ {
		var m *tmpl
		for i := range mix {
			t := &mix[i]
			if t.cls == cls && (t.status == http.StatusOK || t.status == http.StatusNotModified) && hasCanonicalKey(t.raw) {
				m = t
				break
			}
		}
		if m == nil {
			return nil, fmt.Errorf("mix has no checked canonical %s request that succeeds", classNames[cls])
		}
		req, body, err := parseRaw(m.raw)
		if err != nil {
			return nil, err
		}
		c, err := measureHandler(h, req, body, m.status, 300*time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("route %s: %w", classNames[cls], err)
		}
		out[classNames[cls]] = c
	}
	return out, nil
}

// microLayers times uncontended calls into the tenant registry, a
// tenant's token bucket and the admission semaphore, in ns per call.
func microLayers() (lookup, allow, acquire float64, err error) {
	reg, _, err := newTenantRegistry()
	if err != nil {
		return 0, 0, 0, err
	}
	reg.EnsureClock(time.Now)
	key := tenantSpecs()[2].key
	t := reg.Lookup(key)
	if t == nil {
		return 0, 0, 0, fmt.Errorf("tenant %q not found", key)
	}
	sem := resilience.NewSemaphore(maxConcurrent, 0)
	ctx := context.Background()
	const n = 100000
	time5 := func(fn func()) float64 {
		var ns []float64
		for b := 0; b < 5; b++ {
			began := time.Now()
			for i := 0; i < n; i++ {
				fn()
			}
			ns = append(ns, float64(time.Since(began).Nanoseconds())/n)
		}
		return median(ns)
	}
	lookup = time5(func() { reg.Lookup(key) })
	allow = time5(func() {
		if ok, _ := t.Allow(); !ok {
			err = fmt.Errorf("tenant bucket refused an uncontended call")
		}
	})
	acquire = time5(func() {
		if aerr := sem.Acquire(ctx, 1); aerr != nil {
			err = aerr
			return
		}
		sem.Release(1)
	})
	return lookup, allow, acquire, err
}
