package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is a lean HTTP/1.1 keep-alive client: each
// connection writes pre-rendered request bytes and parses just enough of
// the response (status, Content-Length or chunked framing) to deliver the
// status and, when asked, the body. A net/http client spends most of the
// CPU of a loopback request, which would hide server-side changes.

// wireReq is one pre-rendered request.
type wireReq struct {
	raw  []byte
	keep bool // deliver the body to the verifier
}

// verifier judges one response to reqs[i]; a non-nil error is a failure.
type verifier func(i, status int, body []byte) error

// client is one keep-alive connection.
type client struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
	body []byte
}

func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// do sends raw and reads the response. The returned body aliases the
// client's buffer and is only filled when keep is set.
func (c *client) do(raw []byte, keep bool) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn = conn
		if c.r == nil {
			c.r = bufio.NewReaderSize(conn, 64<<10)
		} else {
			c.r.Reset(conn)
		}
	}
	if _, err := c.conn.Write(raw); err != nil {
		c.close()
		return 0, nil, err
	}
	status, body, err := c.readResponse(keep)
	if err != nil {
		c.close()
	}
	return status, body, err
}

var errBadResponse = errors.New("malformed HTTP response")

// readResponse parses one HTTP/1.1 response from the connection.
func (c *client) readResponse(keep bool) (int, []byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, errBadResponse
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errBadResponse
	}
	length, chunked, closing := -1, false, false
	for {
		h, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(h) <= 2 {
			break
		}
		colon := bytes.IndexByte(h, ':')
		if colon < 0 {
			return 0, nil, errBadResponse
		}
		name, value := h[:colon], bytes.TrimSpace(h[colon+1:])
		switch {
		case asciiEqualFold(name, "Content-Length"):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, errBadResponse
			}
		case asciiEqualFold(name, "Transfer-Encoding"):
			chunked = asciiEqualFold(value, "chunked")
		case asciiEqualFold(name, "Connection"):
			closing = asciiEqualFold(value, "close")
		}
	}
	c.body = c.body[:0]
	switch {
	case status == 304 || status == 204 || (status >= 100 && status < 200):
	case chunked:
		for {
			sizeLine, err := c.r.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimSpace(sizeLine)), 16, 64)
			if err != nil {
				return 0, nil, errBadResponse
			}
			if size == 0 {
				if _, err := c.r.ReadSlice('\n'); err != nil { // trailer end
					return 0, nil, err
				}
				break
			}
			if err := c.readBody(int(size), keep); err != nil {
				return 0, nil, err
			}
			if _, err := c.r.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		if err := c.readBody(length, keep); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errBadResponse
	}
	if closing {
		c.close()
	}
	return status, c.body, nil
}

func (c *client) readBody(n int, keep bool) error {
	if !keep {
		_, err := c.r.Discard(n)
		return err
	}
	start := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.r, c.body[start:])
	return err
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// loadResult counts one load phase.
type loadResult struct {
	attempted, failed int64
	firstErr          error
	// windows[w] holds the phase's per-window figures.
	completed []int64     // closed loop: completions per window
	lat       [][]float64 // open loop: latency from due time, ms, per window
	cpu       []float64   // open loop: process CPU seconds per window
	lag       []float64   // open loop: generator lateness, ms
	byReq     []reqLatency
	sent      int64
}

// reqLatency is one open-loop latency with the request it measured.
type reqLatency struct {
	j   int
	lat float64
}

type failureLog struct {
	mu    sync.Mutex
	first error
	n     atomic.Int64
}

func (f *failureLog) add(err error) {
	f.n.Add(1)
	f.mu.Lock()
	if f.first == nil {
		f.first = err
	}
	f.mu.Unlock()
}

// closedLoop keeps every connection busy for d: each sends its next
// request as soon as the previous response arrived. Completions are
// counted per window of d/windows.
func closedLoop(addr string, conns int, reqs []wireReq, verify verifier, d time.Duration, windows int) loadResult {
	res := loadResult{completed: make([]int64, windows)}
	counts := make([][]int64, conns)
	var fails failureLog
	var attempted atomic.Int64
	start := time.Now()
	end := start.Add(d)
	win := d / time.Duration(windows)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		counts[k] = make([]int64, windows)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := &client{addr: addr}
			defer c.close()
			for i := k * len(reqs) / conns; ; i++ {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				j := i % len(reqs)
				attempted.Add(1)
				status, body, err := c.do(reqs[j].raw, reqs[j].keep)
				if err == nil {
					err = verify(j, status, body)
				}
				if err != nil {
					fails.add(fmt.Errorf("request %d: %w", j, err))
					continue
				}
				if w := int(time.Since(start) / win); w < windows {
					counts[k][w]++
				}
			}
		}(k)
	}
	wg.Wait()
	for _, cs := range counts {
		for w, n := range cs {
			res.completed[w] += n
		}
	}
	res.attempted, res.failed, res.firstErr = attempted.Load(), fails.n.Load(), fails.first
	return res
}

// openLoop offers rate requests per second for d, whatever the server's
// pace: request i is due at start + i/rate and is sent by whichever
// connection is free first. Latency runs from the due time, so a stall
// is charged to every request queued behind it; lateness is how long
// after the later of its due time and its connection becoming free the
// generator actually sent a request. traced(w) turns per-request spans on
// for window w.
func openLoop(addr string, conns int, reqs []wireReq, verify verifier, rate float64, d time.Duration, windows int,
	rec *recorder, traced func(w int) bool) loadResult {
	res := loadResult{lat: make([][]float64, windows), cpu: make([]float64, windows)}
	total := int64(rate * d.Seconds())
	period := float64(time.Second) / rate
	win := d / time.Duration(windows)
	type sample struct {
		w, j     int
		lat, lag float64
	}
	perConn := make([][]sample, conns)
	var fails failureLog
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)

	var wg sync.WaitGroup
	// CPU is read at every window boundary by a sampler that ends with
	// the phase.
	cpuMarks := make([]time.Duration, windows+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 0; w <= windows; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w) * win)))
			cpuMarks[w] = cpuTime()
		}
	}()
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := &client{addr: addr}
			defer c.close()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				picked := time.Now()
				due := start.Add(time.Duration(float64(i) * period))
				sleepUntil(due)
				sent := time.Now()
				ready := due
				if picked.After(ready) {
					ready = picked
				}
				w := int(due.Sub(start) / win)
				if w >= windows {
					w = windows - 1
				}
				j := int(i % int64(len(reqs)))
				status, body, err := c.do(reqs[j].raw, reqs[j].keep)
				if err == nil {
					err = verify(j, status, body)
				}
				done := time.Now()
				if traced != nil && traced(w) {
					rec.add("loadgen.request", uint64(i)+1, -1, due, done)
				}
				if err != nil {
					fails.add(fmt.Errorf("request %d: %w", j, err))
					continue
				}
				perConn[k] = append(perConn[k], sample{w: w, j: j,
					lat: float64(done.Sub(due)) / 1e6, lag: float64(sent.Sub(ready)) / 1e6})
			}
		}(k)
	}
	wg.Wait()
	for _, ss := range perConn {
		for _, s := range ss {
			res.lat[s.w] = append(res.lat[s.w], s.lat)
			res.byReq = append(res.byReq, reqLatency{s.j, s.lat})
			res.lag = append(res.lag, s.lag)
		}
	}
	for w := 0; w < windows; w++ {
		res.cpu[w] = (cpuMarks[w+1] - cpuMarks[w]).Seconds()
	}
	res.sent = total
	res.attempted, res.failed, res.firstErr = total, fails.n.Load(), fails.first
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer wakes sleepers through the network poller, whose timeouts have
// millisecond granularity; nanosleep keeps the generator's lateness to
// the kernel's timer slack, tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
