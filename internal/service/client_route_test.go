package service

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/hashring"
)

// countingServer fronts a handler and counts the requests it served.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// TestClientRoutesReadsOverReplicas pins the client half of the read
// tier: with Replicas configured, each combo's reads land on its ring
// owner — the same placement the server-side router computes — and fail
// over to the next candidate when the owner dies.
func TestClientRoutesReadsOverReplicas(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	base, baseHits := countingServer(t, h)
	repA, hitsA := countingServer(t, h)
	repB, hitsB := countingServer(t, h)

	cl := &Client{
		BaseURL:      base.URL,
		Replicas:     []string{repA.URL, repB.URL},
		Retries:      2,
		RetryBackoff: time.Millisecond,
	}

	combo := testCombos[0]
	key := string(combo.Zone) + "/" + string(combo.Type)
	owner, _ := hashring.New(0, repA.URL, repB.URL).Lookup(key)
	ownerHits, otherHits := hitsA, hitsB
	if owner == repB.URL {
		ownerHits, otherHits = hitsB, hitsA
	}

	for i := 0; i < 4; i++ {
		if _, err := cl.Predictions(combo, 0.99); err != nil {
			t.Fatal(err)
		}
	}
	if ownerHits.Load() != 4 || otherHits.Load() != 0 || baseHits.Load() != 0 {
		t.Fatalf("placement: owner=%d other=%d base=%d, want 4/0/0",
			ownerHits.Load(), otherHits.Load(), baseHits.Load())
	}

	// Batched tables route by their first combo — still a replica, not the
	// writer.
	if _, err := cl.Tables(testCombos[:2], 0.95); err != nil {
		t.Fatal(err)
	}
	if baseHits.Load() != 0 {
		t.Fatal("batch read went to the writer despite healthy replicas")
	}

	// Kill the owner: reads keep working via the next ring candidate.
	if owner == repA.URL {
		repA.Close()
	} else {
		repB.Close()
	}
	before := otherHits.Load() + baseHits.Load()
	if _, err := cl.Predictions(combo, 0.99); err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if otherHits.Load()+baseHits.Load() != before+1 {
		t.Fatal("failover did not reach a surviving node")
	}

	// Advise is placed like Predictions — every node answers it from its
	// epoch — so with the owner dead the surviving replica serves it.
	before = otherHits.Load()
	if _, err := cl.Advise(combo, 0.99, 2*time.Hour); err != nil {
		t.Fatalf("advise: %v", err)
	}
	if otherHits.Load() != before+1 || baseHits.Load() != 0 {
		t.Fatalf("advise: other=%d (was %d) base=%d, want the surviving replica",
			otherHits.Load(), before, baseHits.Load())
	}
}

// TestClientWithoutReplicasUsesBase pins the default: no Replicas, no
// ring — everything goes to BaseURL exactly as before the read tier.
func TestClientWithoutReplicasUsesBase(t *testing.T) {
	srv := testServer(t)
	base, baseHits := countingServer(t, srv.Handler())
	cl := &Client{BaseURL: base.URL}
	if _, err := cl.Predictions(testCombos[0], 0.99); err != nil {
		t.Fatal(err)
	}
	if baseHits.Load() != 1 {
		t.Fatalf("base served %d requests, want 1", baseHits.Load())
	}
}
