package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/store"
)

// fetch returns the raw response body for a path on the test server.
func fetch(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body
}

// TestSnapshotRestoreServesIdenticalBytes is the warm-restart acceptance
// test: a server restored from a snapshot must serve byte-identical
// prediction responses before any refresh runs.
func TestSnapshotRestoreServesIdenticalBytes(t *testing.T) {
	hist := testStore(t)
	srv, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}

	// A brand-new server process: same config, no refresh — only the
	// snapshot.
	restored, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}

	ts1 := httptest.NewServer(srv.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(restored.Handler())
	defer ts2.Close()
	paths := []string{"/v1/combos"}
	for _, c := range testCombos {
		for _, prob := range []float64{0.95, 0.99} {
			paths = append(paths, fmt.Sprintf(
				"/v1/predictions?zone=%s&type=%s&probability=%v", c.Zone, c.Type, prob))
		}
	}
	for _, path := range paths {
		before := fetch(t, ts1, path)
		after := fetch(t, ts2, path)
		if !bytes.Equal(before, after) {
			t.Errorf("GET %s diverged after restore:\n before: %s\n after:  %s",
				path, before, after)
		}
	}
}

// TestSnapshotRestoreResumesEpochSeq pins the replication contract across
// writer restarts: the epoch counter persists in the snapshot, so the
// restore's own install publishes above the pre-crash sequence and
// long-lived replicas never see the writer's numbering run backwards.
func TestSnapshotRestoreResumesEpochSeq(t *testing.T) {
	hist := testStore(t)
	srv, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := srv.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if seq := srv.CurrentEpoch().Seq(); seq != 3 {
		t.Fatalf("writer at epoch %d before restart, want 3", seq)
	}
	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	if seq := restored.CurrentEpoch().Seq(); seq != 4 {
		t.Fatalf("restore installed epoch %d, want 4 (snapshot counter 3 + restore's install)", seq)
	}
	if err := restored.Refresh(); err != nil {
		t.Fatal(err)
	}
	if seq := restored.CurrentEpoch().Seq(); seq != 5 {
		t.Fatalf("post-restore refresh installed epoch %d, want 5", seq)
	}
}

// spikeTail appends n ticks at three times each test combo's last price:
// history that arrives after the last snapshot, while the writer is down.
func spikeTail(st *history.Store, n int) {
	for _, c := range testCombos {
		ser, _ := st.Full(c)
		last := ser.Prices[ser.Len()-1]
		for i := 0; i < n; i++ {
			st.Append(c, t0, 3*last)
		}
	}
}

// readTargets are the GETs the restore tests compare: every table, and
// advise at grid, off-grid and unguaranteeable durations.
func readTargets() []string {
	targets := []string{"/v1/combos"}
	for _, c := range testCombos {
		for _, prob := range []float64{0.95, 0.99} {
			q := fmt.Sprintf("zone=%s&type=%s&probability=%v", c.Zone, c.Type, prob)
			targets = append(targets, "/v1/predictions?"+q)
			for _, d := range []string{"1h", "90m", "6h", "24h", "100h", "2000h"} {
				targets = append(targets, "/v1/advise?"+q+"&duration="+d)
			}
		}
	}
	return targets
}

// fleetBodies are the /v1/fleet requests the restore tests compare.
var fleetBodies = []string{
	`{"duration":"1h","probability":0.99,"count":6}`,
	`{"duration":"6h","probability":0.95,"count":6}`,
	`{"duration":"30h","probability":0.99,"count":2}`,
}

// checkSameBodies fails unless a and b answer every read target and fleet
// request with the same status and body. Requests carry a fixed request ID
// so error envelopes compare too. Fleet bodies carry their epoch's as_of;
// unless a and b serve the same epoch, b's is swapped for a's first.
func checkSameBodies(t *testing.T, a, b http.Handler, sameEpoch bool) {
	t.Helper()
	hdr := map[string]string{requestIDHeader: "restore-check"}
	for _, target := range readTargets() {
		codeA, _, bodyA := getAuthed(t, a, target, hdr)
		codeB, _, bodyB := getAuthed(t, b, target, hdr)
		if codeA != codeB || !bytes.Equal(bodyA, bodyB) {
			t.Errorf("GET %s:\n %d %s\n %d %s", target, codeA, bodyA, codeB, bodyB)
		}
	}
	for _, body := range fleetBodies {
		codeA, respA, bodyA := postFleet(t, a, body)
		codeB, respB, bodyB := postFleet(t, b, body)
		if !sameEpoch {
			asOfA, _ := json.Marshal(respA.AsOf)
			asOfB, _ := json.Marshal(respB.AsOf)
			bodyB = bytes.Replace(bodyB, asOfB, asOfA, 1)
		}
		if codeA != codeB || !bytes.Equal(bodyA, bodyB) {
			t.Errorf("POST /v1/fleet %s:\n %d %s\n %d %s", body, codeA, bodyA, codeB, bodyB)
		}
	}
}

// TestSnapshotRestoreServesSavedEpoch pins that a restore serves the epoch
// exactly as saved even when history ticks arrived after the snapshot was
// cut: advise and fleet answer from the saved predictors' surfaces, the
// same bytes the pre-crash writer served beside the same tables and ETag.
func TestSnapshotRestoreServesSavedEpoch(t *testing.T) {
	hist := testStore(t)
	srv, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	spikeTail(hist, 12)

	restored, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	if restored.CurrentEpoch().NumSurfaces() != len(testCombos)*2 {
		t.Fatalf("restore installed %d surfaces, want %d", restored.CurrentEpoch().NumSurfaces(), len(testCombos)*2)
	}
	checkSameBodies(t, srv.Handler(), restored.Handler(), true)
}

// TestRestoreThenRefreshMatchesFromScratch pins how a restored writer
// catches up on the ticks that arrived after its snapshot: it holds no
// predictors, so the first refresh rebuilds every one from the grown
// history and then serves exactly what a server computing from scratch
// over that store serves, for tails short and long.
func TestRestoreThenRefreshMatchesFromScratch(t *testing.T) {
	for _, gap := range []int{12, incrementalMaxTicks + 1} {
		t.Run(fmt.Sprintf("tail%d", gap), func(t *testing.T) {
			hist := testStore(t)
			srv, err := New(Config{Source: hist, MaxHistory: 9000})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Refresh(); err != nil {
				t.Fatal(err)
			}
			payload, err := srv.EncodeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			spikeTail(hist, gap)

			restored, err := New(Config{Source: hist, MaxHistory: 9000})
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreSnapshot(payload); err != nil {
				t.Fatal(err)
			}
			if err := restored.Refresh(); err != nil {
				t.Fatal(err)
			}
			scratch, err := New(Config{Source: hist, MaxHistory: 9000})
			if err != nil {
				t.Fatal(err)
			}
			if err := scratch.Refresh(); err != nil {
				t.Fatal(err)
			}
			checkSameBodies(t, restored.Handler(), scratch.Handler(), false)
		})
	}
}

func TestSnapshotRejectsDefects(t *testing.T) {
	srv := testServer(t)
	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Server {
		s, err := New(Config{Source: testStore(t), MaxHistory: 9000})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// A byte inside the first table body: the checksum covers it, and no
	// other check reads it.
	tampered := append([]byte(nil), payload...)
	key := srv.CurrentEpoch().Keys()[0]
	body, _ := srv.CurrentEpoch().Blob(key)
	at := bytes.Index(tampered, body)
	if at < 0 {
		t.Fatal("table body not found in the snapshot")
	}
	tampered[at+len(body)/2] ^= 0x01
	v1 := []byte(`{"version":1,"as_of":"2026-01-01T00:00:00Z","epoch_seq":1,"entries":[` +
		`{"zone":"us-east-1b","instance_type":"c4.large","probability":0.99,` +
		`"as_of":"2026-01-01T00:00:00Z","points":[{"bid_usd_per_hour":0.1,"guaranteed_duration_ns":3600000000000}]}]}`)
	// want is a fragment the error must carry, for the cases only one
	// check can catch.
	for name, c := range map[string]struct {
		in   []byte
		want string
	}{
		"garbage":           {[]byte("not json"), "version"},
		"bad-version":       {[]byte(`{"version":99,"entries":[{}]}`), "version"},
		"empty":             {[]byte(`{"version":1,"entries":[]}`), "version"},
		"v1-json":           {v1, "version 1"},
		"no-bytes":          {nil, "empty"},
		"checksum-mismatch": {tampered, "checksum mismatch"},
		"truncated":         {payload[:len(payload)-1], "truncated"},
		"trailing":          {append(append([]byte(nil), payload...), 0), "trailing"},
	} {
		err := fresh().RestoreSnapshot(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RestoreSnapshot(%s) = %v, want an error mentioning %q", name, err, c.want)
		}
	}
	if err := fresh().RestoreSnapshot(payload); err != nil {
		t.Errorf("RestoreSnapshot rejected a valid snapshot: %v", err)
	}
}

func TestEncodeSnapshotEmptyServer(t *testing.T) {
	srv, err := New(Config{Source: history.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.EncodeSnapshot(); err == nil {
		t.Fatal("EncodeSnapshot succeeded with no tables")
	}
}

// memDurable records Durable calls for assertion.
type memDurable struct {
	snapshots [][]byte
	compacted []time.Time
}

func (m *memDurable) WriteSnapshot(p []byte) error {
	m.snapshots = append(m.snapshots, append([]byte(nil), p...))
	return nil
}

func (m *memDurable) CompactBefore(oldest time.Time) (int, error) {
	m.compacted = append(m.compacted, oldest)
	return 0, nil
}

func TestRefreshPersistsThroughDurable(t *testing.T) {
	durable := &memDurable{}
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000, Durable: durable})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	if len(durable.snapshots) != 1 {
		t.Fatalf("refresh wrote %d snapshots, want 1", len(durable.snapshots))
	}
	if len(durable.compacted) != 1 {
		t.Fatalf("refresh requested %d compactions, want 1", len(durable.compacted))
	}
	// The snapshot written must be restorable.
	restored, err := New(Config{Source: testStore(t), MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(durable.snapshots[0]); err != nil {
		t.Fatalf("durable snapshot does not restore: %v", err)
	}
}

func TestPreRefreshHookRuns(t *testing.T) {
	calls := 0
	srv, err := New(Config{
		Source:     testStore(t),
		MaxHistory: 9000,
		PreRefresh: func() error { calls++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("PreRefresh ran %d times, want 1", calls)
	}
	// A failing hook must not fail the refresh.
	srv.cfg.PreRefresh = func() error { calls++; return fmt.Errorf("boom") }
	if err := srv.Refresh(); err != nil {
		t.Fatalf("refresh failed on PreRefresh error: %v", err)
	}
	if calls != 2 {
		t.Fatalf("PreRefresh ran %d times, want 2", calls)
	}
}

func TestRefreshWorkersConfig(t *testing.T) {
	if _, err := New(Config{Source: history.NewStore(), RefreshWorkers: -1}); err == nil {
		t.Fatal("negative RefreshWorkers accepted")
	}
	// A single worker must still complete a full refresh.
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000, RefreshWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv.mu.RLock()
	n := len(srv.tables)
	srv.mu.RUnlock()
	if n != len(testCombos)*2 {
		t.Fatalf("single-worker refresh built %d tables, want %d", n, len(testCombos)*2)
	}
}

// snapshotChecksum reads the epoch checksum out of a version-2 header.
func snapshotChecksum(p []byte) uint64 {
	errLen := int(binary.LittleEndian.Uint32(p[17:21]))
	return binary.LittleEndian.Uint64(p[21+errLen:])
}

// FuzzRestoreSnapshot holds the snapshot decoder to hostile bytes: no
// payload may panic it, and every payload it accepts must install an
// epoch whose checksum is the header's and that re-encodes to the same
// bytes, the epoch counter (one higher after the restore's install) aside.
func FuzzRestoreSnapshot(f *testing.F) {
	st := history.NewStore()
	if err := (pricegen.Generator{Seed: 7}).Populate(st, testCombos[:2], t0, 1500); err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{Source: st, MaxHistory: 1500, Probabilities: []float64{0.99}})
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for i := 0; i < 2; i++ {
		if err := srv.Refresh(); err != nil {
			f.Fatal(err)
		}
		payload, err := srv.EncodeSnapshot()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, payload)
	}
	srv.mu.Lock()
	srv.lastErr = "1 combo failures, last: boom"
	srv.mu.Unlock()
	withErr, err := srv.EncodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, withErr)
	for _, p := range seeds {
		f.Add(p)
		for _, n := range []int{0, 1, 9, 17, 30, len(p) / 2, len(p) - 1} {
			f.Add(p[:n])
		}
		for _, at := range []int{0, 5, 13, 19, 25, len(p) / 3, len(p) - 2} {
			flipped := append([]byte(nil), p...)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		srv, err := New(Config{Source: history.NewStore()})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.RestoreSnapshot(payload); err != nil {
			return
		}
		ep := srv.CurrentEpoch()
		if got, want := ep.Checksum(), snapshotChecksum(payload); got != want {
			t.Fatalf("restored epoch checksum %x, header says %x", got, want)
		}
		again, err := srv.EncodeSnapshot()
		if err != nil {
			t.Fatalf("restored epoch does not re-encode: %v", err)
		}
		if seq, saved := binary.LittleEndian.Uint64(again[1:9]), binary.LittleEndian.Uint64(payload[1:9]); seq != saved+1 {
			t.Fatalf("restored epoch %d, want the saved %d plus one", seq, saved)
		}
		if again[0] != payload[0] || !bytes.Equal(again[9:], payload[9:]) {
			t.Fatalf("accepted snapshot does not re-encode to itself:\n in  %x\n out %x", payload, again)
		}
	})
}

// TestRecoveryThroughStore runs the whole warm restart over a real store:
// a durable writer journals its history and refreshes twice, the store is
// closed and reopened, and a new server replays the WAL and restores the
// newest snapshot. It must serve the pre-close writer's bodies and ETag
// above the saved epoch number, and after one refresh it must serve what a
// server computing from scratch over the replayed history serves.
func TestRecoveryThroughStore(t *testing.T) {
	dir := t.TempDir()
	// The whole log fits in one (active) segment, so the refreshes'
	// retention compaction leaves it alone although t0 is years old.
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	hist := testStore(t)
	for _, c := range testCombos {
		ser, _ := hist.Full(c)
		if err := st.AppendSeries(c, ser); err != nil {
			t.Fatal(err)
		}
	}
	writer, err := New(Config{Source: hist, MaxHistory: 9000, Durable: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Three ticks per combo between the refreshes, journaled as draftsd's
	// pre-refresh hook journals them.
	for _, c := range testCombos {
		for i := 0; i < 3; i++ {
			ser, _ := hist.Full(c)
			price := ser.Prices[ser.Len()-1] * 1.1
			hist.Append(c, t0, price)
			if err := st.AppendTick(c, ser.TimeAt(ser.Len()), price); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := writer.Refresh(); err != nil {
		t.Fatal(err)
	}
	saved := writer.CurrentEpoch()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Fsync: store.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replayed, records, err := st2.ReplayHistory()
	if err != nil || replayed == nil {
		t.Fatalf("ReplayHistory: %d records, %v", records, err)
	}
	payload, ok, err := st2.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v, %v", ok, err)
	}
	restored, err := New(Config{Source: replayed, MaxHistory: 9000, Durable: st2})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	if seq := restored.CurrentEpoch().Seq(); seq <= saved.Seq() {
		t.Fatalf("restored writer at epoch %d, not above the saved %d", seq, saved.Seq())
	}
	checkSameBodies(t, writer.Handler(), restored.Handler(), true)
	for _, target := range readTargets()[:2] {
		_, before, _ := getBody(t, writer.Handler(), target)
		_, after, _ := getBody(t, restored.Handler(), target)
		if before.Get("Etag") == "" || before.Get("Etag") != after.Get("Etag") {
			t.Errorf("GET %s: ETag %q before close, %q after restore", target, before.Get("Etag"), after.Get("Etag"))
		}
	}

	if err := restored.Refresh(); err != nil {
		t.Fatal(err)
	}
	scratch, err := New(Config{Source: replayed, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.Refresh(); err != nil {
		t.Fatal(err)
	}
	checkSameBodies(t, restored.Handler(), scratch.Handler(), false)
}
