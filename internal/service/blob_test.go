package service

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/tenant"
	"github.com/drafts-go/drafts/internal/trace"
)

func getBody(t *testing.T, h http.Handler, target string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

// replicaOf builds a replica configured with the writer's tenants and
// account mappings and installs the writer's current epoch (if any): the
// third handler the equivalence tests hold to the writer's.
func replicaOf(t *testing.T, writer *Server) *Server {
	t.Helper()
	rep, err := NewReplica(Config{Tenants: writer.cfg.Tenants, AccountMappings: writer.cfg.AccountMappings})
	if err != nil {
		t.Fatal(err)
	}
	if ep := writer.CurrentEpoch(); ep != nil {
		if err := rep.InstallEpoch(ep); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

// equivalenceHandlers are the three handlers every equivalence test
// compares: the writer's and the replica's serving path, and the
// writer's reference MarshalHandler.
func equivalenceHandlers(t *testing.T, writer *Server) []namedHandler {
	t.Helper()
	return []namedHandler{
		{"writer", writer.Handler()},
		{"replica", replicaOf(t, writer).Handler()},
		{"marshal", writer.MarshalHandler()},
	}
}

type namedHandler struct {
	name string
	h    http.Handler
}

// checkSameResponses fails unless every handler answers the GET with the
// same status, body and headers — X-Request-Id and Traceparent aside,
// which identify the request rather than the answer.
func checkSameResponses(t *testing.T, target string, hdr map[string]string, hs []namedHandler) {
	t.Helper()
	var first *httptest.ResponseRecorder
	for _, nh := range hs {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		nh.h.ServeHTTP(rec, req)
		for _, k := range []string{requestIDHeader, traceparentHeader} {
			rec.Header().Del(k)
		}
		if first == nil {
			first = rec
			continue
		}
		if rec.Code != first.Code || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) ||
			!reflect.DeepEqual(rec.Header(), first.Header()) {
			t.Errorf("%s:\n%s: %d %v %s\n%s: %d %v %s", target,
				hs[0].name, first.Code, first.Header(), first.Body.Bytes(),
				nh.name, rec.Code, rec.Header(), rec.Body.Bytes())
		}
	}
}

// TestCachedGetZeroAllocs is the acceptance criterion for the serving fast
// path: a cached single-table GET performs zero heap allocations — both on
// a bare server and with tracing enabled at a production sampling rate
// (the unsampled request path must not pay for observability it isn't
// using).
func TestCachedGetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	// Seed 0 is chosen so the tracer's first 400 deterministic trace IDs
	// all fall outside the 1% sampling threshold: the loop below pins the
	// unsampled hot path specifically. Sampling itself is covered by the
	// trace package's own tests.
	tracer, err := trace.New(trace.Config{SampleRate: 0.01, Seed: 0, Now: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(Config{Source: testStore(t), MaxHistory: 9000, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if err := traced.Refresh(); err != nil {
		t.Fatal(err)
	}
	// A replica serving a replicated epoch must keep the same guarantee:
	// rebuild the writer's epoch the way the cluster receiver does and
	// install it into a replica server.
	writer := testServer(t)
	wep := writer.CurrentEpoch()
	blobs := make(map[BlobKey][]byte, wep.NumTables())
	for _, k := range wep.Keys() {
		b, _ := wep.Blob(k)
		blobs[k] = b
	}
	rebuilt, err := NewEpochFull(wep.Seq(), wep.AsOf(), wep.Combos(), blobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewReplica(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.InstallEpoch(rebuilt); err != nil {
		t.Fatal(err)
	}
	// An authenticated tenant-scoped server must keep the guarantee too:
	// the key is hashed on the stack, the token bucket is branch-and-mutex,
	// and the tenant's obfuscated view is a precomputed blob. The tenant's
	// visible us-east-1b is physically us-east-1c, so a passing run proves
	// the renamed-view path specifically (not the identity alias).
	treg, err := tenant.New(tenant.Config{RPS: 1e9}, []tenant.Spec{
		{ID: "acme", Key: "ak_zero_alloc", Account: "acct-42"},
	})
	if err != nil {
		t.Fatal(err)
	}
	authed, err := New(Config{Source: testStore(t), MaxHistory: 9000,
		Tenants: treg,
		AccountMappings: map[string]obfuscate.Mapping{"acct-42": {
			"us-east-1b": "us-east-1c",
			"us-east-1c": "us-east-1b",
			"us-west-1a": "us-west-1a",
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := authed.Refresh(); err != nil {
		t.Fatal(err)
	}
	servers := []struct {
		name string
		srv  *Server
		key  string
	}{
		{"bare", writer, ""},
		{"traced_1pct_unsampled", traced, ""},
		{"replica_installed_epoch", replica, ""},
		{"authenticated_tenant_view", authed, "ak_zero_alloc"},
	}
	for _, tc := range servers {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.srv.Handler()
			req := httptest.NewRequest(http.MethodGet,
				"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99", nil)
			if tc.key != "" {
				req.Header.Set("Authorization", "Bearer "+tc.key)
			}
			rec := httptest.NewRecorder()
			// AllocsPerRun's warm-up call absorbs the recorder's one-time header
			// snapshot; Body.Reset keeps the buffer capacity across runs.
			allocs := testing.AllocsPerRun(200, func() {
				rec.Body.Reset()
				h.ServeHTTP(rec, req)
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			if allocs != 0 {
				t.Errorf("cached GET allocated %.1f times per request, want 0", allocs)
			}
			if hdr := rec.Header().Get(requestIDHeader); tc.srv.cfg.Tracer != nil && hdr != "" {
				t.Errorf("unsampled traced GET stamped X-Request-Id %q; correlation headers must stay lazy", hdr)
			}
		})
	}
}

// TestFastPathMatchesMarshal asserts the serving path is invisible to
// clients: the writer's and a replica's Handler answer exactly as the
// marshal-per-request reference does — status, headers and bytes — for
// canonical, non-canonical, escaped and malformed request spellings, and
// before the first epoch.
func TestFastPathMatchesMarshal(t *testing.T) {
	srv := testServer(t)
	handlers := equivalenceHandlers(t, srv)
	targets := []string{
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99",
		"/v1/predictions?zone=us-east-1b&type=c4.large", // default probability
		"/v1/predictions?zone=us-west-1a&type=c3.2xlarge&probability=0.95",
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.990",  // non-canonical spelling
		"/v1/predictions?zone=us-east-1%62&type=c4.large&probability=0.99", // escaped -> url.ParseQuery
		"/v1/predictions?zone=us%2Deast-1b&type=c4.large&probability=0.99", // escaped dash
		"/v1/predictions?zone=us-east-1b;x&type=c4.large",                  // ';' pair dropped -> 400
		"/v1/predictions?zone=us-east-1b;x&zone=us-east-1b&type=c4.large",  // ';' pair dropped -> 200
		"/v1/predictions?zone=nowhere-1x&type=c4.large",                    // 404
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=2",      // 400
		"/v1/predictions?zone=us-east-1b&type=c4.large&account=acct-1",     // unmapped account -> 403
		"/v1/combos",
	}
	for _, target := range targets {
		checkSameResponses(t, target, nil, handlers)
	}

	// Before the first epoch every handler renders the same empty state.
	cold, err := New(Config{Source: testStore(t), MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{
		"/v1/predictions?zone=us-east-1b&type=c4.large",
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=2",
		"/v1/advise?zone=us-east-1b&type=c4.large&duration=1h",
		"/v1/advise?zone=us-east-1b&type=c4.large",
		"/v1/combos",
	} {
		checkSameResponses(t, target, nil, equivalenceHandlers(t, cold))
	}
}

func TestETagNotModified(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	target := "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"
	code, hdr, body := getBody(t, h, target)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	etag := hdr.Get("Etag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing or unquoted ETag %q", etag)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatal("body must end with newline (json.Encoder compatibility)")
	}

	for _, match := range []string{etag, "*", `"zzz", ` + etag} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		req.Header.Set("If-None-Match", match)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", match, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("If-None-Match %q: 304 carried a body", match)
		}
	}

	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", `"stale"`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("stale If-None-Match: status %d, want 200", rec.Code)
	}

	// A refresh is a new epoch: the old ETag must stop matching.
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("post-refresh revalidation: status %d, want 200", rec.Code)
	}
	if rec.Header().Get("Etag") == etag {
		t.Error("refresh did not change the ETag")
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	tables, err := cl.Tables(testCombos, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(testCombos) {
		t.Fatalf("%d tables, want %d", len(tables), len(testCombos))
	}
	for i, tj := range tables {
		if tj.Zone != string(testCombos[i].Zone) || tj.InstanceType != string(testCombos[i].Type) {
			t.Errorf("table %d is %s/%s, want %s (request order must be preserved)",
				i, tj.Zone, tj.InstanceType, testCombos[i])
		}
		if tj.Probability != 0.95 {
			t.Errorf("table %d probability %v", i, tj.Probability)
		}
		if len(tj.Points) == 0 {
			t.Errorf("table %d empty", i)
		}
	}

	// The batch must carry the same epoch ETag and honour If-None-Match.
	h := srv.Handler()
	target := "/v1/tables?combos=us-east-1b/c4.large,us-east-1c/c4.large"
	code, hdr, _ := getBody(t, h, target)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	etag := hdr.Get("Etag")
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", etag)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Errorf("batch If-None-Match: status %d, want 304", rec.Code)
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	cases := []struct {
		target string
		want   int
	}{
		{"/v1/tables", http.StatusBadRequest},
		{"/v1/tables?combos=", http.StatusBadRequest},
		{"/v1/tables?combos=us-east-1b", http.StatusBadRequest}, // no slash
		{"/v1/tables?combos=us-east-1b/c4.large&probability=2", http.StatusBadRequest},
		{"/v1/tables?combos=us-east-1b/c4.large&probability=abc", http.StatusBadRequest},
		// All-or-nothing: one unknown combo fails the whole batch.
		{"/v1/tables?combos=us-east-1b/c4.large,nowhere-9z/c4.large", http.StatusNotFound},
		{"/v1/tables?combos=" + strings.Repeat("us-east-1b/c4.large,", maxBatchCombos) + "us-east-1b/c4.large",
			http.StatusBadRequest}, // over the batch cap
	}
	for _, tc := range cases {
		code, _, body := getBody(t, h, tc.target)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.target, code, tc.want, body)
		}
	}

	// Before any refresh there is no blob store: the batch endpoint, which
	// has no marshal fallback, must answer 503.
	empty, err := New(Config{Source: history.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	code, _, _ := getBody(t, empty.Handler(), "/v1/tables?combos=a/b")
	if code != http.StatusServiceUnavailable {
		t.Errorf("empty server batch: status %d, want 503", code)
	}
}

// TestIncrementalRefreshEquivalence is the service-level half of the
// incremental invariant: after histories grow by a few ticks, a refresh
// that takes the incremental path serves responses byte-identical to a
// server that computed the same histories from scratch.
func TestIncrementalRefreshEquivalence(t *testing.T) {
	gen := pricegen.Generator{Seed: 31}
	st := history.NewStore()
	if err := gen.Populate(st, testCombos, t0, 9000); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Source: st, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Grow every history by a handful of ticks, deterministically continuing
	// each combo's price process.
	const newTicks = 7
	for _, c := range testCombos {
		tail, err := gen.Continue(c, t0, 9000, newTicks)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range tail.Prices {
			st.Append(c, tail.TimeAt(i), v)
		}
	}

	// The next refresh must actually take the incremental path for the
	// installed predictors.
	key := tableKey{combo: testCombos[0], prob: 0.99}
	srv.mu.RLock()
	old := srv.preds[key]
	srv.mu.RUnlock()
	series, _ := st.Full(testCombos[0])
	want, err := (core.Params{Probability: 0.99, MaxHistory: 9000}).WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if srv.extendPredictor(old, want, series) == nil {
		t.Fatal("extendPredictor declined the incremental path")
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}

	// A from-scratch server over the identical grown store.
	fresh, err := New(Config{Source: st, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Refresh(); err != nil {
		t.Fatal(err)
	}

	hInc, hFull := srv.Handler(), fresh.Handler()
	for _, c := range testCombos {
		for _, prob := range []float64{0.95, 0.99} {
			target := fmt.Sprintf("/v1/predictions?zone=%s&type=%s&probability=%v", c.Zone, c.Type, prob)
			codeI, _, bodyI := getBody(t, hInc, target)
			codeF, _, bodyF := getBody(t, hFull, target)
			if codeI != http.StatusOK || codeF != http.StatusOK {
				t.Fatalf("%s: status %d vs %d", target, codeI, codeF)
			}
			if !bytes.Equal(bodyI, bodyF) {
				t.Errorf("%s: incremental refresh served different bytes than full recompute:\nincremental: %s\nfull:        %s",
					target, bodyI, bodyF)
			}
		}
	}
}

// TestExtendPredictorDeclines pins the guard conditions under which the
// incremental path must fall back to a full recompute.
func TestExtendPredictorDeclines(t *testing.T) {
	srv := testServer(t)
	key := tableKey{combo: testCombos[0], prob: 0.99}
	srv.mu.RLock()
	old := srv.preds[key]
	srv.mu.RUnlock()
	series, _ := srv.cfg.Source.(*history.Store).Full(testCombos[0])
	want := old.Params()

	if srv.extendPredictor(nil, want, series) != nil {
		t.Error("nil predictor extended")
	}
	other, err := (core.Params{Probability: 0.5, MaxHistory: 9000}).WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if srv.extendPredictor(old, other, series) != nil {
		t.Error("parameter mismatch extended")
	}
	// A series on a different grid (shifted start) must be rejected.
	shifted := &history.Series{Start: series.Start.Add(time.Minute), Step: series.Step, Prices: series.Prices}
	if srv.extendPredictor(old, want, shifted) != nil {
		t.Error("grid-misaligned series extended")
	}
	// A gap of exactly the cap is replayed; one tick more is rebuilt from
	// the series instead.
	grown := func(gap int) *history.Series {
		prices := append([]float64(nil), series.Prices...)
		for i := 0; i < gap; i++ {
			prices = append(prices, series.Prices[len(series.Prices)-1])
		}
		return &history.Series{Start: series.Start, Step: series.Step, Prices: prices}
	}
	if srv.extendPredictor(old, want, grown(incrementalMaxTicks)) == nil {
		t.Error("gap at the cap declined")
	}
	if srv.extendPredictor(old, want, grown(incrementalMaxTicks+1)) != nil {
		t.Error("gap beyond the cap extended")
	}
}

// TestEncodeFailureInstallsNothing pins the encode-failure policy: an
// epoch whose tables cannot be encoded installs nothing — neither the
// epoch nor the maps behind it — so the previous epoch keeps serving and
// a nil epoch only ever means "before the first install".
func TestEncodeFailureInstallsNothing(t *testing.T) {
	srv := testServer(t)
	before := srv.CurrentEpoch()
	bad := map[tableKey]core.BidTable{{combo: testCombos[0], prob: 0.99}: {
		At: t0, Probability: 0.99, Points: []core.BidPoint{{Bid: math.NaN(), Duration: time.Hour}},
	}}
	if err := srv.publish(bad, nil, nil, time.Now(), "", nil); err == nil {
		t.Fatal("a table with a NaN bid encoded")
	}
	if got := srv.CurrentEpoch(); got.Seq() != before.Seq() || got.Checksum() != before.Checksum() {
		t.Fatal("a failed encode replaced the serving epoch")
	}
	srv.mu.RLock()
	n := len(srv.tables)
	srv.mu.RUnlock()
	if n != before.NumTables() {
		t.Fatalf("a failed encode installed %d tables behind a %d-table epoch", n, before.NumTables())
	}
}

// TestRestoreInstallsBlobs ensures a snapshot restore re-arms the fast
// path: the restored server answers cached GETs from pre-encoded blobs with
// the same ETag epoch it served before the restart.
func TestRestoreInstallsBlobs(t *testing.T) {
	srv := testServer(t)
	target := "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"
	_, hdrBefore, bodyBefore := getBody(t, srv.Handler(), target)

	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{Source: testStore(t), MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	if restored.blobs.Load() == nil {
		t.Fatal("restore did not install the blob store")
	}
	code, hdr, body := getBody(t, restored.Handler(), target)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !bytes.Equal(body, bodyBefore) {
		t.Error("restored server served different bytes")
	}
	if hdr.Get("Etag") != hdrBefore.Get("Etag") {
		t.Errorf("restored ETag %q != original %q", hdr.Get("Etag"), hdrBefore.Get("Etag"))
	}
}

// TestRawQueryValue pins the zero-allocation query scanner against the
// url.Values ground truth.
func TestRawQueryValue(t *testing.T) {
	cases := []struct {
		q, key, want string
		found        bool
	}{
		{"zone=a&type=b", "zone", "a", true},
		{"zone=a&type=b", "type", "b", true},
		{"zone=a&type=b", "probability", "", false},
		{"type=b&zone=", "zone", "", true},
		{"zone=a", "zon", "", false}, // prefix must not match
		{"zonex=a", "zone", "", false},
		{"azone=a", "zone", "", false},
		{"", "zone", "", false},
		{"zone", "zone", "", true},               // bare key: present, empty (url.ParseQuery agrees)
		{"zone&zone=x", "zone", "", true},        // first occurrence wins, bare or not
		{"zone=x;y&type=t", "zone", "x;y", true}, // raw read; fastQuery routes ';' to url.ParseQuery
	}
	for _, tc := range cases {
		got, found := rawQueryValue(tc.q, tc.key)
		if got != tc.want || found != tc.found {
			t.Errorf("rawQueryValue(%q, %q) = (%q, %v), want (%q, %v)",
				tc.q, tc.key, got, found, tc.want, tc.found)
		}
	}
	if fastQuery("zone=us%2Deast") || fastQuery("a=b+c") || fastQuery("zone=a;b") {
		t.Error("escaped query accepted by fast path")
	}
	if !fastQuery("zone=us-east-1b&type=c4.large") {
		t.Error("plain query rejected by fast path")
	}
}

// FuzzRawParams holds the allocation-free query reader to url.ParseQuery:
// on every raw query rawParams accepts, each parameter it reads equals
// what url.Values.Get returns for it.
func FuzzRawParams(f *testing.F) {
	for _, target := range adviseSpellings {
		_, q, _ := strings.Cut(target, "?")
		f.Add(q)
	}
	f.Add("zone&zone=us-east-1b&type==c4.large&&account=")
	f.Add("combos=us-east-1b/c4.large,us-west-1a/c3.2xlarge&probability=0.95")
	f.Fuzz(func(t *testing.T, q string) {
		p, ok := rawParams(q)
		if !ok {
			return
		}
		v, err := url.ParseQuery(q)
		if err != nil {
			t.Fatalf("rawParams accepted %q, which url.ParseQuery rejects: %v", q, err)
		}
		for key, got := range map[string]string{
			"zone": p.zone, "type": p.typ, "probability": p.prob,
			"duration": p.dur, "account": p.account, "combos": p.combos,
		} {
			if want := v.Get(key); got != want {
				t.Errorf("rawParams(%q).%s = %q, url.ParseQuery has %q", q, key, got, want)
			}
		}
	})
}
