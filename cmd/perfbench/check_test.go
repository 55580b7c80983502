package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
)

// tinyWriter refreshes a writer over three combos and two days of ticks.
func tinyWriter(t *testing.T) (*service.Server, *history.Store) {
	t.Helper()
	combos := spot.Combos()[:3]
	st := history.NewStore()
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := (pricegen.Generator{Seed: 3}).Populate(st, combos, start, 2*24*12); err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Source: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	return srv, st
}

// rebuild copies ep into a new epoch after edit has changed its blobs.
func rebuild(t *testing.T, ep *service.Epoch, edit func(blobs map[service.BlobKey][]byte)) *service.Epoch {
	t.Helper()
	blobs := map[service.BlobKey][]byte{}
	for _, k := range ep.Keys() {
		b, _ := ep.Blob(k)
		blobs[k] = append([]byte(nil), b...)
	}
	surfaces := map[service.BlobKey][]byte{}
	for _, k := range ep.SurfaceKeys() {
		s, _ := ep.Surface(k)
		surfaces[k] = s
	}
	edit(blobs)
	out, err := service.NewEpochFull(ep.Seq(), ep.AsOf(), ep.Combos(), blobs, surfaces)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOracleFailsOnAlteredTablePoint(t *testing.T) {
	srv, st := tinyWriter(t)
	ep := srv.CurrentEpoch()
	all := len(ep.Keys())
	if err := checkOracle(ep, st.Full, rand.New(rand.NewSource(1)), all, 2); err != nil {
		t.Fatalf("oracle rejects a correct epoch: %v", err)
	}
	altered := rebuild(t, ep, func(blobs map[service.BlobKey][]byte) {
		k := ep.Keys()[1]
		var tj service.TableJSON
		if err := json.Unmarshal(blobs[k], &tj); err != nil {
			t.Fatal(err)
		}
		tj.Points[len(tj.Points)/2].DurationSeconds += 300
		b, err := json.Marshal(tj)
		if err != nil {
			t.Fatal(err)
		}
		blobs[k] = b
	})
	if err := checkOracle(altered, st.Full, rand.New(rand.NewSource(1)), all, 2); err == nil {
		t.Fatal("oracle accepts a table with one altered point")
	}
}

func TestReplicaCheckFailsOnFlippedByte(t *testing.T) {
	srv, _ := tinyWriter(t)
	ep := srv.CurrentEpoch()
	same := rebuild(t, ep, func(map[service.BlobKey][]byte) {})
	if err := checkReplica(ep, same); err != nil {
		t.Fatalf("identical epochs differ: %v", err)
	}
	flipped := rebuild(t, ep, func(blobs map[service.BlobKey][]byte) {
		b := blobs[ep.Keys()[0]]
		i := bytes.LastIndexAny(b, "0123456789")
		b[i] = '0' + (b[i]-'0'+1)%10
	})
	if err := checkReplica(ep, flipped); err == nil {
		t.Fatal("replica check accepts a blob with one flipped byte")
	}
}

func TestDigestRepeatsExactly(t *testing.T) {
	srv, _ := tinyWriter(t)
	d1, err := digestEpoch(srv.CurrentEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	// A new refresh time, the same points.
	d2, err := digestEpoch(srv.CurrentEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if d1.all != d2.all || changedFrac(d1, d2) != 0 {
		t.Fatalf("digest changed across refreshes of the same ticks: %x vs %x", d1.all, d2.all)
	}
	dir := t.TempDir()
	if err := checkDigests(dir, "all", 7, []uint64{d1.all, 5}); err != nil {
		t.Fatal(err)
	}
	if err := checkDigests(dir, "all", 7, []uint64{d1.all}); err != nil {
		t.Fatalf("a shorter repeat of the recorded digests fails: %v", err)
	}
	if err := checkDigests(dir, "all", 7, []uint64{d1.all, 6, 9}); err == nil {
		t.Fatal("a digest differing from the recorded run passes")
	}
}

func TestVerifyMixFailsOnWrongStatusOrBody(t *testing.T) {
	mix := []tmpl{
		{cls: clsPredictions, raw: []byte("GET /a HTTP/1.1\r\n")},
		{cls: clsAdvise, raw: []byte("GET /b HTTP/1.1\r\n"), status: http.StatusOK, expect: []byte("quote\n")},
		{cls: clsNotModified, raw: []byte("GET /c HTTP/1.1\r\n")},
	}
	v := verifyMix(mix)
	for _, c := range []struct {
		i, status int
		body      string
		ok        bool
	}{
		{0, 200, "", true},
		{0, 404, "", false},
		{0, 429, "", false},
		{0, 503, "", false},
		{1, 200, "quote\n", true},
		{1, 409, "", false}, // allowed for the class, but not what the oracle answered
		{1, 200, "other\n", false},
		{2, 304, "", true},
		{2, 200, "", false},
	} {
		err := v(c.i, c.status, []byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("request %d status %d body %q: err %v, want ok=%v", c.i, c.status, c.body, err, c.ok)
		}
	}
}

func TestRefreshSpansReadTheFlightRecorder(t *testing.T) {
	combos := spot.Combos()[:2]
	st := history.NewStore()
	if err := (pricegen.Generator{Seed: 3}).Populate(st, combos, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), 288); err != nil {
		t.Fatal(err)
	}
	tracer, err := newTestTracer()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Source: st, Tracer: tracer, PreRefresh: func() error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := srv.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	spans := refreshSpans(tracer)
	if len(spans) != 2 {
		t.Fatalf("%d refresh traces, want 2", len(spans))
	}
	for _, name := range []string{"ticks.ingest", "tables.build", "surfaces.build", "blob.encode"} {
		if _, ok := spans[1][name]; !ok {
			t.Errorf("refresh trace lacks span %s: %v", name, spans[1])
		}
	}
	if _, ok := spans[0]["total"]; !ok {
		t.Error("refresh trace lacks its total")
	}
}

func TestFleetOracleCatchesWrongSelection(t *testing.T) {
	srv, _ := tinyWriter(t)
	b := &mixBuilder{tenants: tenantSpecs(), marshal: srv.MarshalHandler(), catalog: spot.Combos()[:3],
		scans: map[scanKey]scanQuote{}}
	serve := func(req service.FleetRequest) service.FleetResponse {
		t.Helper()
		body, _ := json.Marshal(req)
		rec, err := inproc(srv.Handler(), postRequest("/v1/fleet", b.tenants[0].key, body))
		if err != nil || rec.Code != http.StatusOK {
			t.Fatalf("fleet: %v %d %s", err, rec.Code, rec.Body.Bytes())
		}
		var fr service.FleetResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
			t.Fatal(err)
		}
		return fr
	}
	req := service.FleetRequest{Duration: "10m", Probability: 0.95, Count: 2}
	want, err := b.fleetOracle(req)
	if err != nil {
		t.Fatal(err)
	}
	if want.total != 3 || !want.more {
		t.Fatalf("oracle ranks %d compliant combos (more %v), want all 3 and a next page", want.total, want.more)
	}
	check := func(fr service.FleetResponse) error {
		body, _ := json.Marshal(fr)
		return checkFleet(body, want)
	}
	if err := check(serve(req)); err != nil {
		t.Fatalf("served page fails the oracle: %v", err)
	}
	for name, edit := range map[string]func(fr *service.FleetResponse){
		"cheapest left out": func(fr *service.FleetResponse) {
			fr.Results[0] = serve(service.FleetRequest{Duration: "10m", Probability: 0.95, Count: 3}).Results[2]
		},
		"short page":   func(fr *service.FleetResponse) { fr.Results = fr.Results[:1] },
		"out of order": func(fr *service.FleetResponse) { fr.Results[0], fr.Results[1] = fr.Results[1], fr.Results[0] },
		"wrong count":  func(fr *service.FleetResponse) { fr.TotalCompliant-- },
		"no cursor":    func(fr *service.FleetResponse) { fr.NextCursor = "" },
		"altered bid":  func(fr *service.FleetResponse) { fr.Results[1].Bid += 0.0001 },
		"constraint ignored": func(fr *service.FleetResponse) {
			*fr = serve(service.FleetRequest{Duration: "10m", Probability: 0.95, Count: 2, Types: []string{string(spot.Combos()[0].Type)}})
		},
	} {
		fr := serve(req)
		edit(&fr)
		if err := check(fr); err == nil {
			t.Errorf("%s: the oracle accepted a wrong page", name)
		}
	}
}
