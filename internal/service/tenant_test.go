package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/tenant"
)

// testTenantClock is a hand-advanced clock injected into tenant registries
// so token-bucket tests are deterministic (EnsureClock never overrides an
// injected clock).
type testTenantClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestTenantClock() *testTenantClock {
	return &testTenantClock{t: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *testTenantClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testTenantClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testMapping is the same deterministic two-zone swap the deobfuscation
// tests use: this account's "us-east-1b" is physically "us-east-1c" and
// vice versa; us-west is identity.
func testMapping() obfuscate.Mapping {
	return obfuscate.Mapping{
		"us-east-1b": "us-east-1c",
		"us-east-1c": "us-east-1b",
		"us-west-1a": "us-west-1a",
	}
}

// authedServer builds a refreshed server whose registry holds three
// tenants: "acme" (account acct-42, mapped zones), "zeta" (no account),
// and "dead" (revoked). cfg controls the shared quota defaults.
func authedServer(t *testing.T, cfg tenant.Config) *Server {
	t.Helper()
	reg, err := tenant.New(cfg, []tenant.Spec{
		{ID: "acme", Key: "ak_live_acme_1", Account: "acct-42", Weight: 4},
		{ID: "zeta", Key: "ak_live_zeta_1"},
		{ID: "dead", Key: "ak_dead_1", Revoked: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Source:          testStore(t),
		MaxHistory:      9000,
		Tenants:         reg,
		AccountMappings: map[string]obfuscate.Mapping{"acct-42": testMapping()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// getAuthed issues one request with the given headers against h.
func getAuthed(t *testing.T, h http.Handler, target string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

// TestAuthMatrix pins the identity half of the v1 contract: every way a
// key can be missing, wrong, or revoked answers 401 unauthenticated with
// WWW-Authenticate; valid keys pass via either header; the legacy
// ?account= alias works only when it matches the authenticated tenant
// (and is marked deprecated); and non-/v1 probes stay open.
func TestAuthMatrix(t *testing.T) {
	srv := authedServer(t, tenant.Config{RPS: 1e6})
	h := srv.Handler()
	target := "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"
	cases := []struct {
		name     string
		target   string
		hdr      map[string]string
		want     int
		wantCode string
	}{
		{"missing key", target, nil, http.StatusUnauthorized, codeUnauthenticated},
		{"malformed scheme", target, map[string]string{"Authorization": "Basic abc"},
			http.StatusUnauthorized, codeUnauthenticated},
		{"unknown bearer", target, map[string]string{"Authorization": "Bearer ak_nope"},
			http.StatusUnauthorized, codeUnauthenticated},
		{"unknown x-api-key", target, map[string]string{"X-Api-Key": "ak_nope"},
			http.StatusUnauthorized, codeUnauthenticated},
		{"revoked key", target, map[string]string{"Authorization": "Bearer ak_dead_1"},
			http.StatusUnauthorized, codeUnauthenticated},
		{"valid bearer", target, map[string]string{"Authorization": "Bearer ak_live_acme_1"},
			http.StatusOK, ""},
		{"valid x-api-key", target, map[string]string{"X-Api-Key": "ak_live_acme_1"},
			http.StatusOK, ""},
		{"alias matches tenant", target + "&account=acct-42",
			map[string]string{"Authorization": "Bearer ak_live_acme_1"},
			http.StatusOK, ""},
		{"alias mismatch", target + "&account=acct-other",
			map[string]string{"Authorization": "Bearer ak_live_acme_1"},
			http.StatusForbidden, codePermissionDenied},
		{"accountless tenant gets canonical view", target,
			map[string]string{"Authorization": "Bearer ak_live_zeta_1"},
			http.StatusOK, ""},
		{"healthz stays open", "/healthz", nil, http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, hdr, body := getAuthed(t, h, tc.target, tc.hdr)
			if code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", code, tc.want, body)
			}
			if tc.wantCode != "" && !bytes.Contains(body, []byte(`"code":"`+tc.wantCode+`"`)) {
				t.Errorf("body %s, want code %q", body, tc.wantCode)
			}
			if code == http.StatusUnauthorized && hdr.Get("Www-Authenticate") == "" {
				t.Error("401 without WWW-Authenticate")
			}
		})
	}

	// The honoured alias is marked deprecated on the wire (RFC 9745/8594);
	// keyless requests never are.
	_, hdr, _ := getAuthed(t, h, target+"&account=acct-42",
		map[string]string{"Authorization": "Bearer ak_live_acme_1"})
	if hdr.Get("Deprecation") != accountDeprecation || hdr.Get("Sunset") != accountSunset {
		t.Errorf("alias response headers Deprecation=%q Sunset=%q, want %q / %q",
			hdr.Get("Deprecation"), hdr.Get("Sunset"), accountDeprecation, accountSunset)
	}
	_, hdr, _ = getAuthed(t, h, target, map[string]string{"Authorization": "Bearer ak_live_acme_1"})
	if hdr.Get("Deprecation") != "" {
		t.Error("keyless-alias response carried a Deprecation header")
	}
}

// TestTenantViewMatchesMarshal holds the precomputed per-tenant view
// blobs to the marshal path for authenticated requests: the writer's and
// a replica's Handler must answer exactly as MarshalHandler does — status,
// headers and bytes — across zone spellings, both mapped zones, the
// identity zone, the deprecated ?account= alias, and error shapes. It is
// the tenant-scoped sibling of TestFastPathMatchesMarshal.
func TestTenantViewMatchesMarshal(t *testing.T) {
	srv := authedServer(t, tenant.Config{RPS: 1e6})
	fast := srv.Handler()
	handlers := equivalenceHandlers(t, srv)
	// A fixed inbound request ID makes error envelopes comparable byte for
	// byte (the middleware echoes it instead of minting one per request).
	auth := map[string]string{"Authorization": "Bearer ak_live_acme_1", requestIDHeader: "equivalence"}
	targets := []string{
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99",   // mapped: phys us-east-1c
		"/v1/predictions?zone=us-east-1c&type=c4.large&probability=0.95",   // mapped: phys us-east-1b
		"/v1/predictions?zone=us-west-1a&type=c3.2xlarge&probability=0.99", // identity mapping
		"/v1/predictions?zone=us-east-1b&type=c4.large",                    // default probability
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.990",  // non-canonical spelling
		"/v1/predictions?zone=us-east-1%62&type=c4.large",                  // escaped, mapped
		"/v1/predictions?zone=us-east-1c&type=c4.large&account=acct-42",    // deprecated alias
		"/v1/predictions?zone=us-east-1c&type=c4.large&account=acct-7",     // alias mismatch -> 403
		"/v1/predictions?zone=nowhere-9z&type=c4.large",                    // unmapped zone -> 400
		"/v1/predictions?zone=us-east-1b&type=nope.large",                  // unknown combo -> 404
		"/v1/advise?zone=us-east-1b&type=c4.large&duration=30m",            // mapped
		"/v1/advise?zone=us-west-1a&type=c3.2xlarge&duration=30m&probability=0.95",
		"/v1/advise?zone=us-east-1b&type=c4.large&duration=20000h", // refusal
		"/v1/advise?zone=us-east-1%62&type=c4.large&duration=30m",  // escaped, mapped
		"/v1/advise?zone=us-east-1c&type=c4.large&duration=30m&account=acct-42",
		"/v1/advise?zone=nowhere-9z&type=c4.large&duration=30m",
		"/v1/advise?zone=us-east-1b&type=c4.large", // missing duration
		"/v1/combos",
	}
	for _, target := range targets {
		checkSameResponses(t, target, auth, handlers)
	}

	// The tenant's view must be labelled with its own zone name while
	// carrying the physical market's table: visible us-east-1b == the
	// anonymous server's us-east-1c table with the zone field renamed.
	anon := testServer(t).Handler()
	code, _, viewBody := getAuthed(t, fast,
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99", auth)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !bytes.HasPrefix(viewBody, []byte(`{"zone":"us-east-1b"`)) {
		t.Fatalf("view labelled %.40s, want the tenant's visible zone", viewBody)
	}
	_, _, physBody := getBody(t, anon,
		"/v1/predictions?zone=us-east-1c&type=c4.large&probability=0.99")
	renamed := bytes.Replace(physBody, []byte(`{"zone":"us-east-1c"`), []byte(`{"zone":"us-east-1b"`), 1)
	if !bytes.Equal(viewBody, renamed) {
		t.Error("tenant view is not the physical table renamed to the visible zone")
	}
}

// TestTenantRateLimit drives one tenant's token bucket over a fake clock:
// the burst passes, the next request is refused 429 rate_limited with
// Retry-After and the RateLimit-* fields, and a one-second refill admits
// exactly the steady rate again.
func TestTenantRateLimit(t *testing.T) {
	clk := newTestTenantClock()
	srv := authedServer(t, tenant.Config{RPS: 1, Burst: 2, Now: clk.now})
	h := srv.Handler()
	target := "/v1/combos"
	auth := map[string]string{"Authorization": "Bearer ak_live_zeta_1"}

	for i := 0; i < 2; i++ {
		if code, _, body := getAuthed(t, h, target, auth); code != http.StatusOK {
			t.Fatalf("burst request %d: status %d (body %s)", i, code, body)
		}
	}
	code, hdr, body := getAuthed(t, h, target, auth)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429 (body %s)", code, body)
	}
	if !bytes.Contains(body, []byte(`"code":"rate_limited"`)) {
		t.Errorf("429 body %s, want code rate_limited", body)
	}
	if hdr.Get("Retry-After") == "" || hdr.Get("Ratelimit-Reset") == "" {
		t.Error("429 without Retry-After / RateLimit-Reset")
	}
	// zeta is weight 1 at 1 rps; the advertised steady limit is 4 for
	// acme (weight 4) and 1 here.
	if got := hdr.Get("Ratelimit-Limit"); got != "1" {
		t.Errorf("RateLimit-Limit %q, want 1", got)
	}
	if got := hdr.Get("Ratelimit-Remaining"); got != "0" {
		t.Errorf("RateLimit-Remaining %q, want 0", got)
	}

	clk.advance(time.Second)
	if code, _, _ := getAuthed(t, h, target, auth); code != http.StatusOK {
		t.Fatalf("post-refill status %d, want 200", code)
	}
	if code, _, _ := getAuthed(t, h, target, auth); code != http.StatusTooManyRequests {
		t.Fatalf("second post-refill request admitted; refill exceeded the steady rate")
	}

	// Per-tenant isolation: acme's bucket is untouched by zeta's refusals.
	if code, _, _ := getAuthed(t, h, target,
		map[string]string{"Authorization": "Bearer ak_live_acme_1"}); code != http.StatusOK {
		t.Fatalf("acme status %d after zeta was limited, want 200", code)
	}
}

// TestTenantFairnessChaos is the fairness acceptance test: a tenant
// blasting 50x its quota is shed to exactly its token-bucket allowance by
// 429s issued BEFORE the shared admission semaphore, so a compliant
// tenant pacing under quota sees zero shed — no 429s, no 503s — for the
// whole storm.
func TestTenantFairnessChaos(t *testing.T) {
	clk := newTestTenantClock()
	reg, err := tenant.New(tenant.Config{RPS: 10, Burst: 10, Now: clk.now}, []tenant.Spec{
		{ID: "abusive", Key: "ak_abusive"},
		{ID: "compliant", Key: "ak_compliant"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Source:        testStore(t),
		MaxHistory:    9000,
		Tenants:       reg,
		MaxConcurrent: 4, // shared admission on: the semaphore the storm must not starve
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	target := "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"

	type tally struct{ sent, ok, limited, shed, other int }
	send := func(key string, n int, tl *tally) {
		hdr := map[string]string{"Authorization": "Bearer " + key}
		for i := 0; i < n; i++ {
			code, _, _ := getAuthed(t, h, target, hdr)
			tl.sent++
			switch code {
			case http.StatusOK:
				tl.ok++
			case http.StatusTooManyRequests:
				tl.limited++
			case http.StatusServiceUnavailable:
				tl.shed++
			default:
				tl.other++
			}
		}
	}

	var abusive, compliant tally
	const seconds = 30
	for s := 0; s < seconds; s++ {
		send("ak_abusive", 500, &abusive)   // 50x the 10 rps quota
		send("ak_compliant", 8, &compliant) // paced under quota
		clk.advance(time.Second)
	}

	if compliant.ok != compliant.sent || compliant.limited != 0 || compliant.shed != 0 {
		t.Errorf("compliant tenant: %+v; an abusive neighbour must not cost it a single request", compliant)
	}
	// The abuser is held to its allowance: the initial burst plus one
	// refill per elapsed second, everything else 429'd pre-admission.
	maxAllowed := 10 + 10*seconds
	if abusive.ok > maxAllowed {
		t.Errorf("abusive tenant got %d requests through, allowance is %d", abusive.ok, maxAllowed)
	}
	if abusive.shed != 0 {
		t.Errorf("abusive tenant hit the shared semaphore %d times; rate limiting must precede admission", abusive.shed)
	}
	if abusive.limited < abusive.sent-maxAllowed {
		t.Errorf("abusive tally %+v: expected at least %d rate-limited", abusive, abusive.sent-maxAllowed)
	}
	if abusive.other != 0 || compliant.other != 0 {
		t.Errorf("unexpected statuses: abusive %+v compliant %+v", abusive, compliant)
	}
}

// TestClientAPIKeyAndRateLimitedRetry covers the client half of the
// contract: APIKey rides every attempt as a Bearer header, and a 429
// rate_limited envelope is retried after the server's Retry-After floor.
func TestClientAPIKeyAndRateLimitedRetry(t *testing.T) {
	var attempts int
	var gotAuth string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		gotAuth = r.Header.Get("Authorization")
		if attempts == 1 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":{"code":"rate_limited","message":"slow down"}}`)
			return
		}
		fmt.Fprintln(w, `[]`)
	}))
	defer ts.Close()

	var slept time.Duration
	cl := &Client{BaseURL: ts.URL, APIKey: "ak_test_9", Retries: 2,
		sleep: func(d time.Duration) { slept += d }}
	if _, err := cl.Combos(); err != nil {
		t.Fatalf("combos after one 429: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2 (one 429, one success)", attempts)
	}
	if gotAuth != "Bearer ak_test_9" {
		t.Fatalf("Authorization %q, want the client's bearer key", gotAuth)
	}
	if slept < 3*time.Second {
		t.Errorf("slept %v before retrying, want at least the 3s Retry-After floor", slept)
	}

	// The unauthenticated envelope must NOT be retried: it cannot clear on
	// its own.
	var authFails int
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		authFails++
		w.WriteHeader(http.StatusUnauthorized)
		fmt.Fprintln(w, `{"error":{"code":"unauthenticated","message":"missing API key"}}`)
	}))
	defer ts2.Close()
	cl2 := &Client{BaseURL: ts2.URL, Retries: 3, sleep: func(time.Duration) {}}
	if _, err := cl2.Combos(); err == nil {
		t.Fatal("401 did not surface an error")
	} else if !strings.Contains(err.Error(), "unauthenticated") {
		t.Fatalf("error %v, want unauthenticated code", err)
	}
	if authFails != 1 {
		t.Fatalf("%d attempts against a 401, want 1 (never retried)", authFails)
	}
}

// TestAnonymousServerUnchanged pins backward compatibility: with no
// registry configured, keyless requests — including the legacy ?account=
// alias — behave exactly as before the tenancy layer existed.
func TestAnonymousServerUnchanged(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	code, hdr, _ := getBody(t, h, "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99")
	if code != http.StatusOK {
		t.Fatalf("anonymous request status %d", code)
	}
	if hdr.Get("Www-Authenticate") != "" || hdr.Get("Deprecation") != "" {
		t.Error("anonymous server stamped auth headers")
	}
	// A stray API key against an anonymous server is simply ignored.
	code, _, _ = getAuthed(t, h, "/v1/combos", map[string]string{"Authorization": "Bearer whatever"})
	if code != http.StatusOK {
		t.Fatalf("keyed request against anonymous server: status %d", code)
	}
}

// TestTenantComboDiscoveryRoundTrips pins namespace coherence across the
// whole read surface for a mapped tenant: /v1/combos lists the account's
// visible zone names, and every listed combo is fetchable by that name via
// /v1/predictions and /v1/tables, each body echoing the visible zone. The
// server deliberately serves only ONE of the two swapped east zones, so a
// listing that leaked physical names (or a request path that skipped
// translation) cannot round-trip.
func TestTenantComboDiscoveryRoundTrips(t *testing.T) {
	st := history.NewStore()
	combos := []spot.Combo{
		{Zone: "us-east-1b", Type: "c4.large"}, // acct-42 sees this as us-east-1c
		{Zone: "us-west-1a", Type: "c3.2xlarge"},
	}
	if err := (pricegen.Generator{Seed: 31}).Populate(st, combos, t0, 9000); err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.New(tenant.Config{RPS: 1e6}, []tenant.Spec{
		{ID: "acme", Key: "ak_live_acme_1", Account: "acct-42"},
		{ID: "zeta", Key: "ak_live_zeta_1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Source:          st,
		MaxHistory:      9000,
		Tenants:         reg,
		AccountMappings: map[string]obfuscate.Mapping{"acct-42": testMapping()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	auth := map[string]string{"Authorization": "Bearer ak_live_acme_1"}

	code, _, listing := getAuthed(t, h, "/v1/combos", auth)
	if code != http.StatusOK {
		t.Fatalf("combos status %d: %s", code, listing)
	}
	want := `[{"zone":"us-east-1c","instance_type":"c4.large"},{"zone":"us-west-1a","instance_type":"c3.2xlarge"}]`
	if got := string(bytes.TrimRight(listing, "\n")); got != want {
		t.Fatalf("combos view listing = %s, want %s", got, want)
	}

	var listed []struct {
		Zone string `json:"zone"`
		Type string `json:"instance_type"`
	}
	if err := json.Unmarshal(listing, &listed); err != nil {
		t.Fatal(err)
	}
	for _, c := range listed {
		target := fmt.Sprintf("/v1/predictions?zone=%s&type=%s&probability=0.99", c.Zone, c.Type)
		code, _, body := getAuthed(t, h, target, auth)
		if code != http.StatusOK {
			t.Fatalf("listed combo %s/%s not fetchable: status %d: %s", c.Zone, c.Type, code, body)
		}
		if !bytes.HasPrefix(body, []byte(`{"zone":"`+c.Zone+`"`)) {
			t.Errorf("predictions body for %s does not echo the visible zone: %.60s", c.Zone, body)
		}
		code, _, body = getAuthed(t, h,
			fmt.Sprintf("/v1/tables?combos=%s/%s&probability=0.99", c.Zone, c.Type), auth)
		if code != http.StatusOK {
			t.Fatalf("tables for listed combo %s/%s: status %d: %s", c.Zone, c.Type, code, body)
		}
		if !bytes.HasPrefix(body, []byte(`[{"zone":"`+c.Zone+`"`)) {
			t.Errorf("tables body for %s does not echo the visible zone: %.60s", c.Zone, body)
		}
	}

	// The physical name must NOT resolve for the mapped tenant: acct-42's
	// us-east-1b is physically us-east-1c, which this server doesn't serve.
	code, _, _ = getAuthed(t, h, "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99", auth)
	if code != http.StatusNotFound {
		t.Errorf("physical zone name resolved for mapped tenant: status %d", code)
	}
	code, _, _ = getAuthed(t, h, "/v1/tables?combos=us-east-1b/c4.large&probability=0.99", auth)
	if code != http.StatusNotFound {
		t.Errorf("tables physical zone name resolved for mapped tenant: status %d", code)
	}

	// An accountless tenant still sees (and fetches by) canonical names.
	code, _, listing = getAuthed(t, h, "/v1/combos",
		map[string]string{"Authorization": "Bearer ak_live_zeta_1"})
	if code != http.StatusOK || !bytes.Contains(listing, []byte(`"us-east-1b"`)) {
		t.Fatalf("accountless tenant combos lost canonical names: %d %s", code, listing)
	}

	// The marshal baseline renders the same view listing byte-for-byte.
	code, _, slow := getAuthed(t, srv.MarshalHandler(), "/v1/combos", auth)
	if code != http.StatusOK {
		t.Fatalf("marshal combos status %d", code)
	}
	if string(bytes.TrimRight(slow, "\n")) != want {
		t.Fatalf("marshal combos view = %s, want %s", slow, want)
	}
}
