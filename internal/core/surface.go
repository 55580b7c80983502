package core

import (
	"fmt"
	"math"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

// AdviseSurface is the precomputed form of AdviseContext's bid-escalation
// scan for one (combo, probability): the full escalation sequence the scan
// would walk, materialized once at refresh time as two parallel uint32
// arrays. Bids holds the tick-aligned bid at each escalation step (strictly
// increasing — consecutive duplicate ticks from RoundToTick at tiny bids
// are collapsed, keeping the first, which is the entry the scan would
// return); Guar holds the guaranteed duration at that bid in grid steps.
// Lookup answers the same question as AdviseContext — the first escalation
// entry whose guarantee covers the requested duration — in O(1) for grid
// durations and O(log n) within one grid cell otherwise, without touching
// price history.
//
// Surfaces are immutable after construction. Build them only through
// (*Predictor).Surface or NewAdviseSurface; a hand-assembled literal lacks
// the internal running-max and grid indexes and will not answer lookups.
type AdviseSurface struct {
	// Probability is the durability target every guarantee is made at.
	Probability float64
	// Step is the price grid period guarantees are quantized to.
	Step time.Duration
	// Bids is the escalation sequence in price ticks, strictly increasing.
	Bids []uint32
	// Guar[i] is the guaranteed duration at Bids[i], in Steps.
	Guar []uint32

	// max[i] is the running maximum of Guar[:i+1]. Guarantees are not
	// monotone in the bid, but the scan's answer — the first entry covering
	// the request — is exactly the first index where the running max
	// crosses the requested step count, which is binary-searchable.
	max []uint32
	// gridK is the fixed duration grid in steps (hourly to one day,
	// 6-hourly to one week, daily to 90 days); gridAt[g] is the first
	// escalation index covering gridK[g], or -1 when even the ceiling bid
	// cannot guarantee it. A grid hit answers with one array read; an
	// off-grid duration binary-searches only between its two grid
	// neighbours' answers.
	gridK  []uint32
	gridAt []int32
}

// maxSurfaceEntries bounds surface construction against pathological
// parameters (a TableRatio barely above 1 could enumerate every tick up to
// the ceiling). Surface construction bails past it and the combo gets no
// surface (the service then answers its advise requests with 404);
// default parameters stay orders of magnitude below.
const maxSurfaceEntries = 1 << 16

// Surface materializes the AdviseContext escalation for the predictor's
// current history. It walks the identical bid sequence — minimum bid,
// TableRatio escalation, tick rounding, ceiling clamp at one tick above
// 1.25x the highest retained price — so Lookup on the result returns
// bit-identical quotes to the scan. ok is false when there is no price
// history yet (the scan would also refuse) or the escalation exceeds
// maxSurfaceEntries.
func (p *Predictor) Surface() (*AdviseSurface, bool) {
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
	s.finish()
	mSurfaceBuilds.Load().Inc()
	return s, true
}

// NewAdviseSurface reassembles a surface from its wire arrays (a replica
// rebuilding what the writer shipped). The arrays are retained, not copied.
// Given the arrays a writer's Surface produced, the rebuilt surface answers
// every Lookup identically.
func NewAdviseSurface(probability float64, step time.Duration, bids, guar []uint32) (*AdviseSurface, error) {
	if !(probability > 0 && probability < 1) || math.IsNaN(probability) {
		return nil, fmt.Errorf("core: surface probability %v outside (0, 1)", probability)
	}
	if step <= 0 {
		return nil, fmt.Errorf("core: non-positive surface step %v", step)
	}
	if len(bids) == 0 {
		return nil, fmt.Errorf("core: empty surface")
	}
	if len(bids) != len(guar) {
		return nil, fmt.Errorf("core: surface arrays disagree: %d bids, %d guarantees", len(bids), len(guar))
	}
	for i := 1; i < len(bids); i++ {
		if bids[i] <= bids[i-1] {
			return nil, fmt.Errorf("core: surface bids not strictly increasing at index %d", i)
		}
	}
	s := &AdviseSurface{Probability: probability, Step: step, Bids: bids, Guar: guar}
	s.finish()
	return s, nil
}

// finish builds the running-max and duration-grid indexes.
func (s *AdviseSurface) finish() {
	s.max = make([]uint32, len(s.Guar))
	var m uint32
	for i, g := range s.Guar {
		if g > m {
			m = g
		}
		s.max[i] = m
	}
	s.gridK = buildSurfaceGrid(s.Step)
	s.gridAt = make([]int32, len(s.gridK))
	for gi, k := range s.gridK {
		s.gridAt[gi] = int32(firstCovering(s.max, k))
	}
}

// buildSurfaceGrid returns the fixed duration grid in steps: hourly through
// one day, 6-hourly through one week, daily through 90 days. Grid points
// that collapse under a coarse step are deduplicated.
func buildSurfaceGrid(step time.Duration) []uint32 {
	ks := make([]uint32, 0, 131)
	add := func(h int) {
		k := StepsFor(time.Duration(h)*time.Hour, step)
		if k <= 0 {
			return
		}
		if n := len(ks); n > 0 && ks[n-1] >= uint32(k) {
			return
		}
		ks = append(ks, uint32(k))
	}
	for h := 1; h <= 24; h++ {
		add(h)
	}
	for h := 30; h <= 168; h += 6 {
		add(h)
	}
	for h := 192; h <= 2160; h += 24 {
		add(h)
	}
	return ks
}

// firstCovering returns the first index whose running-max guarantee reaches
// k steps, or -1 when none does.
func firstCovering(max []uint32, k uint32) int {
	lo, hi := 0, len(max)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if max[mid] >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(max) {
		return -1
	}
	return lo
}

// Lookup answers AdviseContext's question from the surface: the quote at
// the first escalation entry guaranteeing d, bit-identical to what the scan
// would return over the same history. ok is false when d is non-positive or
// no bid up to the ceiling can guarantee it (the scan's error cases); the
// caller renders the refusal via CannotGuarantee.
//
//drafts:nonalloc
func (s *AdviseSurface) Lookup(d time.Duration) (Quote, bool) {
	mSurfaceLookups.Load().Inc()
	k := StepsFor(d, s.Step)
	if k <= 0 || len(s.Bids) == 0 {
		return Quote{}, false
	}
	kk := uint32(k)
	// Grid snap: locate the largest grid duration not exceeding the request.
	lo, hi := 0, len(s.gridK)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.gridK[mid] <= kk {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	gf := lo - 1
	lo, hi = 0, len(s.max)
	if gf >= 0 {
		i := s.gridAt[gf]
		if i < 0 {
			// Even a shorter grid duration is unguaranteeable, so d is too.
			return Quote{}, false
		}
		if s.gridK[gf] == kk {
			// Exact grid hit: one precomputed read.
			return s.quoteAt(int(i)), true
		}
		lo = int(i)
	}
	if gc := gf + 1; gc < len(s.gridAt) {
		if i := s.gridAt[gc]; i >= 0 {
			hi = int(i) + 1
		}
	}
	// Off-grid refinement: first covering entry between the grid
	// neighbours' answers.
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.max[mid] >= kk {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(s.max) || s.max[lo] < kk {
		return Quote{}, false
	}
	return s.quoteAt(lo), true
}

// quoteAt renders escalation entry i as a quote. At any index Lookup
// returns, Guar[i] equals the running max (the max was raised there), so
// this is the scan's exact quote.
//
//drafts:nonalloc
func (s *AdviseSurface) quoteAt(i int) Quote {
	return Quote{
		Bid:         spot.FromTicks(int(s.Bids[i])),
		Duration:    time.Duration(s.Guar[i]) * s.Step,
		Probability: s.Probability,
	}
}

// Best returns the quote at the ceiling bid — the strongest guarantee the
// surface can make, and the "best" the scan path reports when refusing.
func (s *AdviseSurface) Best() Quote {
	if len(s.Bids) == 0 {
		return Quote{}
	}
	return s.quoteAt(len(s.Bids) - 1)
}

// CannotGuarantee builds the refusal for a failed Lookup, byte-identical to
// AdviseContext's error so surface-serving nodes render the same envelope
// the scan path would.
func (s *AdviseSurface) CannotGuarantee(d time.Duration) error {
	best := s.Best()
	return fmt.Errorf("core: cannot guarantee %v at p=%v (best: %v at bid %.4f)",
		d, s.Probability, best.Duration, best.Bid)
}
