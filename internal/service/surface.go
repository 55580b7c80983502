package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/drafts-go/drafts/internal/core"
)

// Advise surfaces ride the same epoch lifecycle as the pre-encoded table
// blobs: the writer materializes one per (combo, probability) at refresh,
// they are installed behind the same atomic pointer, shipped to replicas in
// their canonical wire encoding, and rebuilt there bit-identically — so a
// replica's /v1/advise and /v1/fleet answers are byte-for-byte the
// writer's. This file holds the storage entry, the canonical wire codec,
// and the cross-combo fleet index the /v1/fleet argmin runs over.

// surfaceWireVersion versions the canonical surface encoding below.
const surfaceWireVersion = 1

// surfaceEntry is one stored surface: the lookup structure plus its
// canonical encoding. The encoding — not the in-memory form — is what the
// epoch checksum covers and what ships to replicas, so writer and replica
// hash identical bytes.
type surfaceEntry struct {
	surf *core.AdviseSurface
	enc  []byte
}

// fleetEntry is one row of the per-probability fleet index: a combo and its
// surface, pre-sorted by (zone, type) so /v1/fleet scans deterministically.
type fleetEntry struct {
	zone string
	typ  string
	surf *core.AdviseSurface
}

// encodeSurface renders the canonical wire form:
//
//	byte    version (1)
//	uint64  LE step, nanoseconds
//	uint64  LE probability, IEEE-754 bits
//	uint32  LE entry count n
//	n x (uint32 LE bid tick, uint32 LE guaranteed steps)
func encodeSurface(s *core.AdviseSurface) []byte {
	n := len(s.Bids)
	buf := make([]byte, 0, 1+8+8+4+8*n)
	buf = append(buf, surfaceWireVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Step))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Probability))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, s.Bids[i])
		buf = binary.LittleEndian.AppendUint32(buf, s.Guar[i])
	}
	return buf
}

// decodeSurface rebuilds a surface from its canonical wire form,
// re-running the core validations so a corrupt or adversarial payload
// cannot install a malformed lookup structure.
func decodeSurface(p []byte) (*core.AdviseSurface, error) {
	const header = 1 + 8 + 8 + 4
	if len(p) < header {
		return nil, fmt.Errorf("service: surface payload truncated (%d bytes)", len(p))
	}
	if p[0] != surfaceWireVersion {
		return nil, fmt.Errorf("service: unsupported surface version %d", p[0])
	}
	step := time.Duration(binary.LittleEndian.Uint64(p[1:9]))
	prob := math.Float64frombits(binary.LittleEndian.Uint64(p[9:17]))
	n := int(binary.LittleEndian.Uint32(p[17:21]))
	if len(p) != header+8*n {
		return nil, fmt.Errorf("service: surface payload length %d does not match %d entries", len(p), n)
	}
	bids := make([]uint32, n)
	guar := make([]uint32, n)
	for i := 0; i < n; i++ {
		off := header + 8*i
		bids[i] = binary.LittleEndian.Uint32(p[off : off+4])
		guar[i] = binary.LittleEndian.Uint32(p[off+4 : off+8])
	}
	return core.NewAdviseSurface(prob, step, bids, guar)
}

// buildSurfaces materializes one surface per table whose predictor is
// available. A combo without one (a snapshot entry saved without its
// predictor, or a surface past core's size bound) simply gets no surface,
// and its advise requests answer 404 on every node.
func buildSurfaces(tables map[tableKey]core.BidTable, preds map[tableKey]*core.Predictor) map[blobKey]*surfaceEntry {
	if len(preds) == 0 {
		return nil
	}
	surfaces := make(map[blobKey]*surfaceEntry, len(tables))
	for k := range tables {
		pred := preds[k]
		if pred == nil {
			continue
		}
		surf, ok := pred.Surface()
		if !ok {
			continue
		}
		surfaces[blobKey{
			zone: string(k.combo.Zone),
			typ:  string(k.combo.Type),
			prob: probKey(k.prob),
		}] = &surfaceEntry{surf: surf, enc: encodeSurface(surf)}
	}
	if len(surfaces) == 0 {
		return nil
	}
	return surfaces
}

// buildFleetIndex groups surfaces by probability spelling and sorts each
// group by (zone, type), the deterministic scan order /v1/fleet pages over.
func buildFleetIndex(surfaces map[blobKey]*surfaceEntry) map[string][]fleetEntry {
	if len(surfaces) == 0 {
		return nil
	}
	idx := make(map[string][]fleetEntry)
	for k, se := range surfaces {
		idx[k.prob] = append(idx[k.prob], fleetEntry{zone: k.zone, typ: k.typ, surf: se.surf})
	}
	for prob, list := range idx {
		sort.Slice(list, func(i, j int) bool {
			if list[i].zone != list[j].zone {
				return list[i].zone < list[j].zone
			}
			return list[i].typ < list[j].typ
		})
		idx[prob] = list
	}
	return idx
}

// attachSurfaces installs a surface set (and its fleet index) into an
// epoch under construction, charging the canonical encodings to the
// epoch's byte gauge.
func (et *encodedTables) attachSurfaces(surfaces map[blobKey]*surfaceEntry) {
	et.surfaces = surfaces
	et.fleet = buildFleetIndex(surfaces)
	for _, se := range surfaces {
		et.bytes += len(se.enc)
	}
}

// surface returns the advise surface answering c, retrying a
// non-canonical probability spelling under the canonical one exactly like
// table. Surfaces are keyed by physical combo: a mapped tenant's quote is
// the physical market's, rendered under its visible zone.
func (et *encodedTables) surface(c comboReq) (*core.AdviseSurface, bool) {
	if et == nil {
		return nil, false
	}
	se, ok := et.surfaces[blobKey{zone: c.phys, typ: c.typ, prob: c.prob}]
	if !ok {
		se, ok = et.surfaces[blobKey{zone: c.phys, typ: c.typ, prob: probKey(c.probF)}]
	}
	if !ok {
		return nil, false
	}
	return se.surf, true
}
