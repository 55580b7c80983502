package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
)

// oracleSample is how many published tables each cycle recomputes with
// a fresh predictor and compares.
const oracleSample = 64

// epochDigest fingerprints every table point an epoch publishes: the
// combo, probability, bid and guaranteed duration of each point, in key
// order. The refresh time is left out, so one seed gives one digest per
// cycle on every run.
type epochDigest struct {
	all    uint64
	tables map[service.BlobKey]uint64
	points int
}

// decodeTable parses one published table body.
func decodeTable(body []byte) (spot.Combo, core.BidTable, error) {
	var tj service.TableJSON
	if err := json.Unmarshal(body, &tj); err != nil {
		return spot.Combo{}, core.BidTable{}, err
	}
	c, t := service.FromJSON(tj)
	return c, t, nil
}

// digestEpoch decodes every table of ep and fingerprints its points.
func digestEpoch(ep *service.Epoch) (epochDigest, error) {
	d := epochDigest{tables: make(map[service.BlobKey]uint64)}
	all := fnv.New64a()
	var buf [16]byte
	for _, k := range ep.Keys() {
		body, _ := ep.Blob(k)
		c, t, err := decodeTable(body)
		if err != nil {
			return d, fmt.Errorf("table %v: %w", k, err)
		}
		if string(c.Zone) != k.Zone || string(c.Type) != k.Type {
			return d, fmt.Errorf("table %v carries combo %v", k, c)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%s|", k.Zone, k.Type, k.Prob)
		for _, p := range t.Points {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.Bid))
			binary.LittleEndian.PutUint64(buf[8:], uint64(p.Duration))
			h.Write(buf[:])
		}
		sum := h.Sum64()
		d.tables[k] = sum
		binary.LittleEndian.PutUint64(buf[:8], sum)
		all.Write(buf[:8])
		d.points += len(t.Points)
	}
	d.all = all.Sum64()
	return d, nil
}

// changedFrac is the share of cur's tables whose points differ from prev.
func changedFrac(prev, cur epochDigest) float64 {
	if len(cur.tables) == 0 {
		return 0
	}
	changed := 0
	for k, h := range cur.tables {
		if ph, ok := prev.tables[k]; !ok || ph != h {
			changed++
		}
	}
	return float64(changed) / float64(len(cur.tables))
}

// checkOracle recomputes a seeded sample of the epoch's tables with a
// fresh predictor over each combo's whole archived series — what a full
// refresh computes — and compares them, point for point, with the
// published bodies decoded through service.FromJSON.
func checkOracle(ep *service.Epoch, full func(spot.Combo) (*history.Series, bool), rng *rand.Rand, n, workers int) error {
	keys := ep.Keys()
	if n > len(keys) {
		n = len(keys)
	}
	sample := rng.Perm(len(keys))[:n]
	errs := make([]error, n)
	parallel(n, workers, func(i int) { errs[i] = oracleTable(ep, keys[sample[i]], full) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// oracleTable checks one published table against its recomputation.
func oracleTable(ep *service.Epoch, k service.BlobKey, full func(spot.Combo) (*history.Series, bool)) error {
	body, ok := ep.Blob(k)
	if !ok {
		return fmt.Errorf("oracle: epoch lost table %v", k)
	}
	c, got, err := decodeTable(body)
	if err != nil {
		return fmt.Errorf("oracle: table %v: %w", k, err)
	}
	prob, err := strconv.ParseFloat(k.Prob, 64)
	if err != nil {
		return fmt.Errorf("oracle: table %v: %w", k, err)
	}
	series, ok := full(c)
	if !ok {
		return fmt.Errorf("oracle: no history for %v", c)
	}
	p, err := core.NewPredictor(core.Params{Probability: prob}, series.Start)
	if err != nil {
		return err
	}
	p.ObserveSeries(series)
	want, ok := p.Table()
	if !ok {
		return fmt.Errorf("oracle: no table for %v", k)
	}
	return sameTable(k, got, want)
}

// sameTable compares two tables point for point.
func sameTable(k service.BlobKey, got, want core.BidTable) error {
	if len(got.Points) != len(want.Points) {
		return fmt.Errorf("table %v: %d points published, oracle has %d", k, len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			return fmt.Errorf("table %v point %d: published %+v, oracle %+v", k, i, got.Points[i], want.Points[i])
		}
	}
	return nil
}

// checkReplica requires the replica's installed epoch to be the writer's,
// byte for byte: identity, combo listing, every table blob and every
// advise surface.
func checkReplica(w, r *service.Epoch) error {
	if w == nil || r == nil {
		return fmt.Errorf("replica: missing epoch")
	}
	if w.Seq() != r.Seq() || w.ETag() != r.ETag() || w.Checksum() != r.Checksum() {
		return fmt.Errorf("replica: epoch %d %s differs from writer epoch %d %s", r.Seq(), r.ETag(), w.Seq(), w.ETag())
	}
	if !bytes.Equal(w.Combos(), r.Combos()) {
		return fmt.Errorf("replica: combo listing differs")
	}
	wk, rk := w.Keys(), r.Keys()
	if len(wk) != len(rk) {
		return fmt.Errorf("replica: %d tables, writer %d", len(rk), len(wk))
	}
	for _, k := range wk {
		wb, _ := w.Blob(k)
		rb, ok := r.Blob(k)
		if !ok || !bytes.Equal(wb, rb) {
			return fmt.Errorf("replica: table %v differs", k)
		}
	}
	ws, rs := w.SurfaceKeys(), r.SurfaceKeys()
	if len(ws) != len(rs) {
		return fmt.Errorf("replica: %d surfaces, writer %d", len(rs), len(ws))
	}
	for _, k := range ws {
		wb, _ := w.Surface(k)
		rb, ok := r.Surface(k)
		if !ok || !bytes.Equal(wb, rb) {
			return fmt.Errorf("replica: surface %v differs", k)
		}
	}
	return nil
}

// digestLog is the per-cycle digest sequence of one (tick pattern, seed),
// kept across runs in the build directory: each run must reproduce every
// digest an earlier run of the same seed recorded.
type digestLog struct {
	Digests []string `json:"digests"`
}

// checkDigests compares this run's per-cycle digests with the ones
// recorded under dir and records the longer sequence.
func checkDigests(dir, pattern string, seed int64, digests []uint64) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", pattern, seed))
	var prev digestLog
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("digest log %s: %w", path, err)
		}
	}
	cur := make([]string, len(digests))
	for i, d := range digests {
		cur[i] = strconv.FormatUint(d, 16)
	}
	for i := 0; i < len(cur) && i < len(prev.Digests); i++ {
		if cur[i] != prev.Digests[i] {
			return fmt.Errorf("cycle %d table digest %s differs from %s recorded by an earlier run of seed %d",
				i, cur[i], prev.Digests[i], seed)
		}
	}
	if len(cur) <= len(prev.Digests) {
		return nil
	}
	data, err := json.Marshal(digestLog{Digests: cur})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
