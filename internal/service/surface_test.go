package service

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/pricegen"
)

// FuzzDecodeSurface holds the replica-side surface decoder to hostile
// bytes: no payload may panic it, and every payload it accepts must be
// canonical — re-encoding the decoded surface reproduces it byte for byte,
// which is what lets the epoch checksum cover the wire form. Accepted
// surfaces must also answer lookups without panicking.
func FuzzDecodeSurface(f *testing.F) {
	series, err := pricegen.Generator{Seed: 5}.Series(testCombos[0], t0, 2000)
	if err != nil {
		f.Fatal(err)
	}
	for _, prob := range []float64{0.95, 0.99} {
		p, err := core.NewPredictor(core.Params{Probability: prob, MaxHistory: 2000}, t0)
		if err != nil {
			f.Fatal(err)
		}
		p.ObserveSeries(series)
		if s, ok := p.Surface(); ok {
			f.Add(encodeSurface(s))
		}
	}
	for _, s := range []struct {
		prob       float64
		step       time.Duration
		bids, guar []uint32
	}{
		{0.95, 5 * time.Minute, []uint32{100, 105, 111}, []uint32{12, 0, 40}},
		{0.5, time.Nanosecond, []uint32{1}, []uint32{math.MaxUint32}},
		{0.99, 24 * time.Hour, []uint32{7, math.MaxUint32}, []uint32{0, 3}},
	} {
		surf, err := core.NewAdviseSurface(s.prob, s.step, s.bids, s.guar)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeSurface(surf))
	}
	f.Add([]byte{})
	f.Add([]byte{surfaceWireVersion})
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := decodeSurface(payload)
		if err != nil {
			return
		}
		if got := encodeSurface(s); !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload does not re-encode to itself:\n in  %x\n out %x", payload, got)
		}
		for _, d := range []time.Duration{time.Nanosecond, time.Hour, 90 * time.Minute, 7 * 24 * time.Hour, 200 * 24 * time.Hour} {
			if _, ok := s.Lookup(d); !ok {
				_ = s.CannotGuarantee(d)
			}
		}
	})
}
