package main

import (
	"fmt"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
)

const (
	// historyTicks is the 90-day window of Table 1: every combo starts
	// with exactly the history one predictor retains.
	historyTicks = core.DefaultMaxHistory
	// ticksPerCycle is what a combo gains between two refreshes at the
	// 15-minute cadence of the production service (§3.3).
	ticksPerCycle = 3
	// maxCycles bounds how many steady cycles one run can replay; the
	// feed is generated for all of them up front.
	maxCycles = 32
)

// feed is the price input of one run, generated at setup from the seed
// and replayed from memory: the first historyTicks of every series seed
// the served archive, and each cycle appends the next ticks through the
// service's PreRefresh hook. No generator runs inside a timed cycle. The
// feed keeps only the cycles' ticks, so the run's memory figures hold
// the program's copy of the archive and not the benchmark's.
type feed struct {
	seed   int64
	start  time.Time
	combos []spot.Combo
	// cycles holds every combo's ticks after its first historyTicks.
	cycles map[spot.Combo]*history.Series
}

// generateFeed draws every combo of the 452-combo catalog for 90 days
// plus maxCycles cycles and returns the feed with a fresh archive holding
// the first 90 days. The start sits on a UTC midnight, so the diurnal
// archetypes see the same hours of day on every run: one seed gives the
// same prices whatever the wall clock, while the history still ends near
// the present, as a live archive's does.
func generateFeed(seed int64, now time.Time) (*feed, *history.Store, error) {
	f := &feed{seed: seed, combos: spot.Combos(),
		start: now.UTC().Truncate(24 * time.Hour).Add(-time.Duration(historyTicks) * spot.UpdatePeriod)}
	full, err := f.full()
	if err != nil {
		return nil, nil, err
	}
	hist := history.NewStore()
	f.cycles = make(map[spot.Combo]*history.Series, len(f.combos))
	for _, c := range f.combos {
		s := full[c]
		if err := hist.Put(c, s.Slice(0, historyTicks).Clone()); err != nil {
			return nil, nil, err
		}
		f.cycles[c] = s.Slice(historyTicks, s.Len()).Clone()
	}
	return f, hist, nil
}

// full draws the feed's whole series again: the same prices every call.
func (f *feed) full() (map[spot.Combo]*history.Series, error) {
	st := history.NewStore()
	n := historyTicks + maxCycles*ticksPerCycle
	if err := (pricegen.Generator{Seed: f.seed}).Populate(st, f.combos, f.start, n); err != nil {
		return nil, fmt.Errorf("generating feed: %w", err)
	}
	out := make(map[spot.Combo]*history.Series, len(f.combos))
	for _, c := range f.combos {
		s, ok := st.Full(c)
		if !ok || s.Len() != n {
			return nil, fmt.Errorf("generating feed: %v has no full series", c)
		}
		out[c] = s
	}
	return out, nil
}

// advancing lists the combos that gain ticks in steady cycle k (1-based):
// every combo, or with rotate only the combos of one region, taking
// us-east-1, us-west-1 and us-west-2 in turn.
func (f *feed) advancing(k int, rotate bool) []spot.Combo {
	if !rotate {
		return f.combos
	}
	region := spot.Regions()[(k-1)%len(spot.Regions())]
	var out []spot.Combo
	for _, c := range f.combos {
		if c.Zone.Region() == region {
			out = append(out, c)
		}
	}
	return out
}
