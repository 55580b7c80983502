package main

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/trace"
)

func newTestTracer() (*trace.Tracer, error) {
	return trace.New(trace.Config{SampleRate: traceSample, Seed: 1, Now: time.Now})
}

// serveLoopback serves h on a loopback port until the test ends.
func serveLoopback(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return ln.Addr().String()
}

func TestClientReadsLengthAndChunkedBodies(t *testing.T) {
	big := strings.Repeat("0123456789", 2000)
	addr := serveLoopback(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/chunked":
			for i := 0; i < 4; i++ {
				fmt.Fprint(w, big)
				w.(http.Flusher).Flush()
			}
		case "/missing":
			http.NotFound(w, r)
		default:
			w.Header().Set("Content-Length", "5")
			fmt.Fprint(w, "hello")
		}
	}))
	c := &client{addr: addr}
	defer c.close()
	for _, tc := range []struct {
		path   string
		status int
		body   string
	}{
		{"/plain", 200, "hello"},
		{"/chunked", 200, strings.Repeat(big, 4)},
		{"/missing", 404, "404 page not found\n"},
		{"/plain", 200, "hello"}, // the connection is still usable
	} {
		raw := getRequest(tc.path, "k", "")
		status, body, err := c.do(raw, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if status != tc.status || string(body) != tc.body {
			t.Fatalf("%s: status %d body %d bytes, want %d and %d bytes", tc.path, status, len(body), tc.status, len(tc.body))
		}
	}
}

// TestOpenLoopChargesStallToQueuedRequests stalls one request for 200 ms
// on a single connection at 200 requests per second: the requests due
// during the stall wait behind it, and their latency, counted from when
// each was due, must carry that wait, while the generator's own lateness
// stays small.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	addr := serveLoopback(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 50 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Length", "2")
		fmt.Fprint(w, "ok")
	}))
	reqs := []wireReq{{raw: getRequest("/", "k", "")}}
	ok := func(i, status int, body []byte) error {
		if status != 200 {
			return fmt.Errorf("status %d", status)
		}
		return nil
	}
	res := openLoop(addr, 1, reqs, ok, 200, time.Second, 1, newRecorder(false), nil)
	if res.failed != 0 || res.sent != 200 {
		t.Fatalf("sent %d, failed %d (%v)", res.sent, res.failed, res.firstErr)
	}
	lat := res.lat[0]
	if len(lat) != 200 {
		t.Fatalf("%d latencies, want 200", len(lat))
	}
	// The stalled request and the ~40 due during its stall: each waits
	// for the stall's end, so at least 20 of them wait 100 ms or more.
	slow := 0
	for _, l := range lat {
		if l >= 100 {
			slow++
		}
	}
	if slow < 20 {
		t.Fatalf("%d requests charged >= 100 ms; the stall was not charged to the queue: %v", slow, lat)
	}
	if max := quantile(lat, 1); max < float64(stall.Milliseconds())*0.9 {
		t.Fatalf("worst latency %.1f ms, want about the %v stall", max, stall)
	}
	if len(res.lag) != 200 {
		t.Fatalf("%d lateness samples, want 200", len(res.lag))
	}
	if p50 := quantile(res.lag, 0.5); p50 > 10 {
		t.Fatalf("generator lateness p50 %.1f ms: queueing counted as lateness", p50)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	addr := serveLoopback(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "bad") {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Length", "2")
		fmt.Fprint(w, "ok")
	}))
	mix := []tmpl{
		{cls: clsPredictions, raw: getRequest("/good", "k", "")},
		{cls: clsPredictions, raw: getRequest("/bad", "k", "")},
	}
	res := closedLoop(addr, 2, wireMix(mix), verifyMix(mix), 200*time.Millisecond, 2)
	if res.failed == 0 || res.failed == res.attempted {
		t.Fatalf("failed %d of %d: want the 429s and only them", res.failed, res.attempted)
	}
	// A request that ends after the last window counts as attempted only.
	if ok := res.attempted - res.failed; res.completed[0]+res.completed[1] > ok || res.completed[0]+res.completed[1] < ok-2 {
		t.Fatalf("completed %v of %d attempted, %d failed", res.completed, res.attempted, res.failed)
	}
}
