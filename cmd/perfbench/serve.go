package main

import (
	"fmt"
	"os"
	"time"
)

// serveStats is what the serving phases measured.
type serveStats struct {
	throughput float64 // closed loop, median burst, requests/s
	p50, p99   float64 // open loop, median window, ms from due time
	tail       float64 // open loop, highest percentile with >= 10 samples beyond
	tailQ      float64
	samples    int
	cpuPerReq  float64 // open loop, median window, µs of process CPU per request
	lagP99     float64 // generator lateness, ms
	sent       int64

	attempted, failed int64
	firstErr          error

	overheadPct float64 // CPU per request, traced windows over untraced

	surfaceLookups, adviseScans, rateLimited, shed, sampled float64
	queueWaitMs                                             float64
}

// serveMix runs the closed loop and then the open loop against addr and
// reads the program's instruments around both.
func serveMix(e *env, addr string, mix []tmpl, secs float64, rec *recorder, traced bool) serveStats {
	var st serveStats
	total := time.Duration(secs * float64(time.Second))
	closedDur := time.Duration(float64(total) * closedShare)
	openDur := total - closedDur
	openWin := max(2, int(openDur/openWindow))
	reqs, verify := wireMix(mix), verifyMix(mix)

	before := e.scrape()
	sampled0 := e.tracer.Stats().Sampled

	// The closed loop runs as separate bursts, each on fresh connections
	// and goroutines. One long loop's windows agree with each other to a
	// few percent while whole runs differ by more, so a run samples
	// several connection lifetimes and reports the median burst.
	burst := closedDur / time.Duration(closedBursts)
	rps := make([]float64, closedBursts)
	var cl loadResult
	for b := range rps {
		r := closedLoop(addr, conns, reqs, verify, burst, 1)
		rps[b] = float64(r.completed[0]) / burst.Seconds()
		cl.attempted += r.attempted
		cl.failed += r.failed
		if cl.firstErr == nil {
			cl.firstErr = r.firstErr
		}
	}
	st.throughput = median(rps)

	tracedWindow := func(w int) bool { return traced && w%2 == 1 }
	op := openLoop(addr, conns, reqs, verify, openRate, openDur, openWin, rec, tracedWindow)
	// CPU per request is a median over windows too: a host stall makes
	// the requests queued behind it run in a burst, which costs fewer
	// wake-ups per request than the paced load the rate offers.
	var p50s, p99s, all, cpuOn, cpuOff []float64
	for w, lat := range op.lat {
		if len(lat) == 0 {
			continue
		}
		perReq := op.cpu[w] / float64(len(lat)) * 1e6
		if tracedWindow(w) {
			cpuOn = append(cpuOn, perReq)
			continue
		}
		cpuOff = append(cpuOff, perReq)
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
		all = append(all, lat...)
	}
	st.p50, st.p99 = median(p50s), median(p99s)
	st.samples = len(all)
	st.tailQ = tailQuantile(len(all))
	st.tail = quantile(all, st.tailQ)
	st.cpuPerReq = median(cpuOff)
	if len(cpuOn) > 0 {
		st.overheadPct = (median(cpuOn)/st.cpuPerReq - 1) * 100
	}
	st.lagP99 = quantile(op.lag, 0.99)
	st.sent = op.sent

	after := e.scrape()
	st.attempted = cl.attempted + op.attempted
	st.failed = cl.failed + op.failed
	st.firstErr = cl.firstErr
	if st.firstErr == nil {
		st.firstErr = op.firstErr
	}
	st.surfaceLookups = delta(before, after, "drafts_predictor_surface_lookups_total")
	st.adviseScans = delta(before, after, "drafts_predictor_advise_total")
	st.rateLimited = delta(before, after, "drafts_rate_limited_total")
	st.shed = delta(before, after, "drafts_http_shed_total")
	st.sampled = float64(e.tracer.Stats().Sampled - sampled0)
	st.queueWaitMs = admissionWaitMs(e)

	perClass := make([][]float64, numClasses)
	for _, r := range op.byReq {
		perClass[mix[r.j].cls] = append(perClass[mix[r.j].cls], r.lat)
	}
	for c, lat := range perClass {
		fmt.Fprintf(os.Stderr, "perfbench: open loop %s: n=%d p50 %.3f ms p99 %.3f ms\n",
			classNames[c], len(lat), quantile(lat, 0.5), quantile(lat, 0.99))
	}
	fmt.Fprintf(os.Stderr, "perfbench: closed-loop bursts %.0f rps, open-loop window p99s %.3f ms\n", rps, p99s)
	fmt.Fprintf(os.Stderr, "perfbench: serve closed %.0f rps (%d bursts, %d requests); open %d rps: p50 %.3f ms p99 %.3f ms p%g %.3f ms (n=%d), %.1f µs CPU/req, lateness p99 %.3f ms\n",
		st.throughput, closedBursts, cl.attempted, openRate, st.p50, st.p99, st.tailQ*100, st.tail, st.samples, st.cpuPerReq, st.lagP99)
	return st
}

// admissionWaitMs is the mean admission.wait span of the request traces
// the flight recorder retained (0 when none was sampled).
func admissionWaitMs(e *env) float64 {
	var sum float64
	n := 0
	for _, tr := range e.tracer.Report().Recent {
		for _, sp := range tr.Spans {
			if sp.Name == "admission.wait" && sp.DurUS != nil {
				sum += *sp.DurUS / 1e3
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
