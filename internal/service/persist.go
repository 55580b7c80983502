package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/spot"
)

// Durable is the sink for the server's crash-recovery state; *store.Store
// satisfies it. After every successful refresh the server hands it the
// encoded serving state and asks it to drop log segments older than the
// history retention window.
type Durable interface {
	WriteSnapshot(payload []byte) error
	CompactBefore(oldest time.Time) (int, error)
}

// serviceSnapshot is the wire form of the server's serving state: every
// published bid table plus the online predictor that produced it. Entries
// are sorted (zone, type, probability) so encoding is deterministic.
type serviceSnapshot struct {
	Version int       `json:"version"`
	AsOf    time.Time `json:"as_of"`
	// EpochSeq is the epoch counter at snapshot time. Restoring it keeps
	// the replication sequence monotonic across writer restarts, so
	// long-lived replicas never see the writer's numbering run backwards.
	// Absent in pre-replication snapshots (then the counter starts at 0,
	// as before).
	EpochSeq uint64          `json:"epoch_seq,omitempty"`
	LastErr  string          `json:"last_refresh_error,omitempty"`
	Entries  []snapshotEntry `json:"entries"`
}

type snapshotEntry struct {
	Zone        string          `json:"zone"`
	Type        string          `json:"instance_type"`
	Probability float64         `json:"probability"`
	At          time.Time       `json:"as_of"`
	Points      []snapshotPoint `json:"points"`
	Predictor   json.RawMessage `json:"predictor"`
}

// snapshotPoint stores the guaranteed duration in integer nanoseconds so a
// restored table is bit-identical to the saved one (float seconds would
// round-trip through a division).
type snapshotPoint struct {
	Bid        float64 `json:"bid_usd_per_hour"`
	DurationNS int64   `json:"guaranteed_duration_ns"`
}

const snapshotVersion = 1

// EncodeSnapshot serializes the currently served tables and predictors.
// It returns an error when there is nothing to snapshot yet.
func (s *Server) EncodeSnapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tables) == 0 {
		return nil, fmt.Errorf("service: no tables to snapshot")
	}
	keys := make([]tableKey, 0, len(s.tables))
	for k := range s.tables {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.combo.Zone != b.combo.Zone {
			return a.combo.Zone < b.combo.Zone
		}
		if a.combo.Type != b.combo.Type {
			return a.combo.Type < b.combo.Type
		}
		return a.prob < b.prob
	})
	snap := serviceSnapshot{
		Version:  snapshotVersion,
		AsOf:     s.asOf,
		EpochSeq: s.epochSeq.Load(),
		LastErr:  s.lastErr,
	}
	for _, k := range keys {
		table := s.tables[k]
		entry := snapshotEntry{
			Zone:        string(k.combo.Zone),
			Type:        string(k.combo.Type),
			Probability: k.prob,
			At:          table.At,
		}
		for _, p := range table.Points {
			entry.Points = append(entry.Points, snapshotPoint{
				Bid:        p.Bid,
				DurationNS: int64(p.Duration),
			})
		}
		if pred := s.preds[k]; pred != nil {
			var buf bytes.Buffer
			if err := pred.Save(&buf); err != nil {
				return nil, fmt.Errorf("service: saving predictor for %s/p=%v: %w", k.combo, k.prob, err)
			}
			entry.Predictor = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		}
		snap.Entries = append(snap.Entries, entry)
	}
	return json.Marshal(snap)
}

// RestoreSnapshot installs a previously encoded serving state exactly as
// saved: the tables, and the advise surfaces the saved predictors give, so
// a warm restart serves the same bytes on every endpoint it served before
// the crash. History ticks newer than the snapshot (the WAL tail) reach
// the predictors through the next refresh's incremental path, like the
// ticks of any refresh cycle.
func (s *Server) RestoreSnapshot(payload []byte) error {
	var snap serviceSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("service: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("service: unsupported snapshot version %d", snap.Version)
	}
	if len(snap.Entries) == 0 {
		return fmt.Errorf("service: snapshot holds no tables")
	}
	tables := make(map[tableKey]core.BidTable, len(snap.Entries))
	preds := make(map[tableKey]*core.Predictor, len(snap.Entries))
	surfaces := make(map[tableKey]*core.AdviseSurface, len(snap.Entries))
	for _, e := range snap.Entries {
		k := tableKey{
			combo: spot.Combo{Zone: spot.Zone(e.Zone), Type: spot.InstanceType(e.Type)},
			prob:  e.Probability,
		}
		table := core.BidTable{At: e.At, Probability: e.Probability}
		for _, p := range e.Points {
			table.Points = append(table.Points, core.BidPoint{
				Bid:      p.Bid,
				Duration: time.Duration(p.DurationNS),
			})
		}
		tables[k] = table
		if len(e.Predictor) == 0 {
			continue
		}
		pred, err := core.LoadPredictor(bytes.NewReader(e.Predictor))
		if err != nil {
			return fmt.Errorf("service: restoring predictor for %s/p=%v: %w", k.combo, k.prob, err)
		}
		preds[k] = pred
		if surf, ok := pred.Surface(); ok {
			surfaces[k] = surf
		}
	}
	// Resume the epoch counter where the snapshot left it, so the install
	// below publishes as EpochSeq+1 and replication sequence numbers stay
	// monotonic across a writer restart.
	if cur := s.epochSeq.Load(); snap.EpochSeq > cur {
		s.epochSeq.CompareAndSwap(cur, snap.EpochSeq)
	}
	// Pre-encode the restored tables under the snapshot's original epoch:
	// the warm restart serves the same bytes — and the same ETag, so client
	// caches keep revalidating successfully — it served before the crash.
	if err := s.publish(tables, preds, surfaces, snap.AsOf, snap.LastErr, nil); err != nil {
		return s.refreshFailed(nil, fmt.Errorf("service: restoring snapshot: %w", err))
	}
	s.logger.Info("snapshot restored",
		"tables", len(tables), "predictors", len(preds), "as_of", snap.AsOf)
	return nil
}
