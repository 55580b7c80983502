package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
)

// referenceTable is the per-bid table loop: every table bid, in or above
// the surface ceiling, runs its own GuaranteeFor scan. It is the oracle
// the shared escalation walk is checked against.
func referenceTable(p *Predictor) (BidTable, bool) {
	bid0, ok := p.MinBid()
	if !ok {
		return BidTable{}, false
	}
	t := BidTable{At: p.Now(), Probability: p.params.Probability}
	limit := bid0 * p.params.TableSpanMult
	for bid := bid0; bid <= limit+1e-12; bid *= p.params.TableRatio {
		tb := spot.RoundToTick(bid)
		if n := len(t.Points); n > 0 && t.Points[n-1].Bid >= tb {
			continue
		}
		d, _ := p.GuaranteeFor(tb)
		t.Points = append(t.Points, BidPoint{Bid: tb, Duration: d})
	}
	enforceMonotone(t.Points)
	return t, true
}

// referenceSurface is the standalone surface loop: the escalation up to
// the ceiling, one GuaranteeFor per distinct clamped tick, abandoned past
// maxSurfaceEntries.
func referenceSurface(p *Predictor) (*AdviseSurface, bool) {
	bid0, ok := p.MinBid()
	if !ok {
		return nil, false
	}
	maxSeen := 0.0
	for _, v := range p.hist() {
		if v > maxSeen {
			maxSeen = v
		}
	}
	ceiling := spot.NextTickAbove(1.25 * maxSeen)
	if ceiling < bid0 {
		ceiling = bid0
	}
	s := &AdviseSurface{Probability: p.params.Probability, Step: p.step}
	for bid := bid0; ; bid *= p.params.TableRatio {
		tb := spot.RoundToTick(bid)
		if tb > ceiling {
			tb = ceiling
		}
		tick := uint32(spot.Ticks(tb))
		if n := len(s.Bids); n == 0 || s.Bids[n-1] < tick {
			g, _ := p.GuaranteeFor(tb)
			s.Bids = append(s.Bids, tick)
			s.Guar = append(s.Guar, uint32(g/p.step))
		}
		if tb >= ceiling {
			break
		}
		if len(s.Bids) > maxSurfaceEntries {
			return nil, false
		}
	}
	return s, true
}

// checkEscalation compares Table, Surface and TableAndSurface on p with the
// reference loops, byte for byte.
func checkEscalation(t *testing.T, name string, p *Predictor) {
	t.Helper()
	wantT, wantTOK := referenceTable(p)
	wantS, wantSOK := referenceSurface(p)
	gotT, gotTOK := p.Table()
	gotS, gotSOK := p.Surface()
	bothT, bothS, bothOK := p.TableAndSurface()
	if gotTOK != wantTOK || bothOK != wantTOK {
		t.Fatalf("%s: table ok Table=%v TableAndSurface=%v, reference %v", name, gotTOK, bothOK, wantTOK)
	}
	want := mustJSON(t, wantT)
	if got := mustJSON(t, gotT); string(got) != string(want) {
		t.Fatalf("%s: Table differs from the per-bid reference:\n got  %s\n want %s", name, got, want)
	}
	if got := mustJSON(t, bothT); string(got) != string(want) {
		t.Fatalf("%s: TableAndSurface table differs from the per-bid reference:\n got  %s\n want %s", name, got, want)
	}
	if gotSOK != wantSOK || (bothS != nil) != wantSOK {
		t.Fatalf("%s: surface present Surface=%v TableAndSurface=%v, reference %v", name, gotSOK, bothS != nil, wantSOK)
	}
	if !wantSOK {
		return
	}
	for _, s := range []*AdviseSurface{gotS, bothS} {
		if s.Probability != wantS.Probability || s.Step != wantS.Step ||
			!slices.Equal(s.Bids, wantS.Bids) || !slices.Equal(s.Guar, wantS.Guar) {
			t.Fatalf("%s: surface differs from the reference:\n got  %v %v\n want %v %v",
				name, s.Bids, s.Guar, wantS.Bids, wantS.Guar)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEscalationMatchesReference checks the shared escalation walk against
// the per-bid reference loops over catalog combos and seeds, the default
// and two non-default table shapes, warm-up windows (checked while the
// history grows), and random short windows.
func TestEscalationMatchesReference(t *testing.T) {
	variants := []Params{
		{Probability: 0.99, MaxHistory: 2000},
		{Probability: 0.95, MaxHistory: 2000, TableRatio: 1.2, TableSpanMult: 10},
		{Probability: 0.99, MaxHistory: 2000, TableSpanMult: 1},
	}
	checkpoints := map[int]bool{1: true, 2: true, 3: true, 5: true, 10: true, 30: true, 100: true, 400: true}
	const n = 2500
	combos := spot.Combos()
	for ci := 0; ci < len(combos); ci += 11 {
		c := combos[ci]
		for _, seed := range []int64{1, 2, 3, 4} {
			series, err := pricegen.Generator{Seed: seed}.Series(c, t0, n)
			if err != nil {
				t.Fatal(err)
			}
			for vi, params := range variants {
				p, err := NewPredictor(params, t0)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range series.Prices {
					p.Observe(v)
					if checkpoints[i+1] || i+1 == n {
						checkEscalation(t, fmt.Sprintf("%s seed %d variant %d at %d ticks", c, seed, vi, i+1), p)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1500; trial++ {
		params := variants[trial%len(variants)]
		params.MaxHistory = 40 + rng.Intn(200)
		p, err := NewPredictor(params, t0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range randomPrices(rng, 1+rng.Intn(300)) {
			p.Observe(v)
		}
		checkEscalation(t, fmt.Sprintf("random trial %d", trial), p)
	}
}

// TestEscalationSurfaceBail pins the maxSurfaceEntries bail: a table ratio
// barely above 1 over a wide price range walks more escalation ticks than
// a surface may hold, so the table is still published and the surface is
// absent, exactly as the reference loops have it.
func TestEscalationSurfaceBail(t *testing.T) {
	p, err := NewPredictor(Params{Probability: 0.95, MaxHistory: 100, TableRatio: 1.000001, TableSpanMult: 1.5}, t0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p.Observe(10)
	}
	p.Observe(40)
	checkEscalation(t, "bail", p)
	table, surf, ok := p.TableAndSurface()
	if !ok || len(table.Points) == 0 {
		t.Fatal("no table published")
	}
	if surf != nil {
		t.Fatalf("surface of %d entries published past the %d-entry bound", len(surf.Bids), maxSurfaceEntries)
	}
}
