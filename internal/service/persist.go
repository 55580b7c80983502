package service

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Durable is the sink for the server's crash-recovery state; *store.Store
// satisfies it. After every successful refresh the server hands it the
// encoded serving state and asks it to drop log segments older than the
// history retention window.
type Durable interface {
	WriteSnapshot(payload []byte) error
	CompactBefore(oldest time.Time) (int, error)
}

// A snapshot is the installed epoch itself: exactly what a replica
// installs, plus the writer's epoch counter and last refresh error. The
// predictors behind it are not saved — the WAL already holds the history
// they were built from, and the first refresh after a restore rebuilds them
// from it. Version 2 layout, every integer little-endian:
//
//	byte    version (2)
//	uint64  epoch sequence number
//	uint64  asOf, UnixNano
//	bytes   last refresh error
//	uint64  epoch checksum (Epoch.Checksum)
//	bytes   /v1/combos body
//	uint32  table count, then per table in sorted key order: key, bytes body
//	uint32  surface count, then per surface in sorted key order: key, bytes encoding
//
// where bytes is a uint32 length and the bytes, and a key is the zone, the
// instance type and the probability spelling, each as bytes. Every field
// has one encoding, so an accepted payload re-encodes to itself.
const snapshotVersion = 2

// EncodeSnapshot serializes the installed epoch. It returns an error when
// there is nothing to snapshot yet.
func (s *Server) EncodeSnapshot() ([]byte, error) {
	s.mu.RLock()
	ep, lastErr := s.CurrentEpoch(), s.lastErr
	s.mu.RUnlock()
	if ep == nil {
		return nil, fmt.Errorf("service: no tables to snapshot")
	}
	keys, surfKeys := ep.Keys(), ep.SurfaceKeys()
	buf := make([]byte, 0, 64+len(lastErr)+ep.et.bytes+64*(len(keys)+len(surfKeys)))
	buf = append(buf, snapshotVersion)
	buf = binary.LittleEndian.AppendUint64(buf, ep.Seq())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ep.AsOf().UnixNano()))
	buf = appendField(buf, []byte(lastErr))
	buf = binary.LittleEndian.AppendUint64(buf, ep.Checksum())
	buf = appendField(buf, ep.Combos())
	buf = appendParts(buf, keys, ep.Blob)
	return appendParts(buf, surfKeys, ep.Surface), nil
}

func appendField(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendParts(buf []byte, keys []BlobKey, part func(BlobKey) ([]byte, bool)) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		body, _ := part(k)
		buf = appendField(buf, []byte(k.Zone))
		buf = appendField(buf, []byte(k.Type))
		buf = appendField(buf, []byte(k.Prob))
		buf = appendField(buf, body)
	}
	return buf
}

// RestoreSnapshot installs a previously encoded epoch exactly as saved, so
// a warm restart serves the same bytes and ETag on every endpoint it
// served before the crash. The epoch is rebuilt and validated by
// NewEpochFull, checked against the saved checksum and installed through
// InstallEpoch — the replica install path — one sequence number above the
// saved one. The restored writer holds no predictors: its first refresh
// rebuilds them from the WAL-replayed history. The bodies alias payload,
// which the caller must not modify afterwards.
func (s *Server) RestoreSnapshot(payload []byte) error {
	ep, lastErr, err := decodeSnapshot(payload)
	if err != nil {
		return err
	}
	if err := s.InstallEpoch(ep); err != nil {
		return fmt.Errorf("service: restoring snapshot: %w", err)
	}
	s.mu.Lock()
	s.tables, s.preds, s.lastErr = nil, nil, lastErr
	s.mu.Unlock()
	s.logger.Info("snapshot restored",
		"tables", ep.NumTables(), "surfaces", ep.NumSurfaces(), "epoch", ep.Seq(), "as_of", ep.AsOf())
	return nil
}

// decodeSnapshot parses a version-2 payload into the epoch it holds (at
// the saved sequence number plus one) and the saved refresh error.
func decodeSnapshot(p []byte) (*Epoch, string, error) {
	switch {
	case len(p) == 0:
		return nil, "", fmt.Errorf("service: empty snapshot")
	case p[0] == '{':
		return nil, "", fmt.Errorf("service: unsupported snapshot version 1 (JSON predictor checkpoints)")
	case p[0] != snapshotVersion:
		return nil, "", fmt.Errorf("service: unsupported snapshot version %d", p[0])
	}
	r := snapshotReader{p: p[1:]}
	seq := r.uint64()
	asOf := time.Unix(0, int64(r.uint64())).UTC()
	lastErr := string(r.field())
	sum := r.uint64()
	combos := r.field()
	tables := r.parts()
	surfaces := r.parts()
	if r.err == nil && len(r.p) > 0 {
		r.err = fmt.Errorf("service: %d trailing snapshot bytes", len(r.p))
	}
	if r.err != nil {
		return nil, "", r.err
	}
	ep, err := NewEpochFull(seq+1, asOf, combos, tables, surfaces)
	if err != nil {
		return nil, "", fmt.Errorf("service: restoring snapshot: %w", err)
	}
	if got := ep.Checksum(); got != sum {
		return nil, "", fmt.Errorf("service: snapshot checksum mismatch (%x != %x)", got, sum)
	}
	return ep, lastErr, nil
}

// snapshotReader walks a snapshot payload; the first malformed read
// latches err and every later read returns zero values.
type snapshotReader struct {
	p   []byte
	err error
}

func (r *snapshotReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.p) {
		r.err = fmt.Errorf("service: snapshot truncated")
		return nil
	}
	b := r.p[:n:n]
	r.p = r.p[n:]
	return b
}

func (r *snapshotReader) uint64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *snapshotReader) uint32() int {
	if b := r.take(4); b != nil {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

func (r *snapshotReader) field() []byte { return r.take(r.uint32()) }

// parts reads a counted run of keyed parts, which must be in strictly
// increasing key order (so neither duplicates nor a second encoding of the
// same epoch exist).
func (r *snapshotReader) parts() map[BlobKey][]byte {
	n := r.uint32()
	if n > len(r.p)/16 { // each part carries four length prefixes
		r.err = fmt.Errorf("service: snapshot truncated (%d parts)", n)
		return nil
	}
	out := make(map[BlobKey][]byte, n)
	var prev BlobKey
	for i := 0; i < n; i++ {
		k := BlobKey{Zone: string(r.field()), Type: string(r.field()), Prob: string(r.field())}
		body := r.field()
		if r.err != nil {
			return nil
		}
		if i > 0 && !prev.less(k) {
			r.err = fmt.Errorf("service: snapshot key %s/%s/p=%s out of order", k.Zone, k.Type, k.Prob)
			return nil
		}
		out[k], prev = body, k
	}
	return out
}
