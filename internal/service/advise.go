package service

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/core"
)

// /v1/advise answers from the epoch's precomputed surfaces: the combo
// resolver, one map lookup, an O(1) grid snap (or an O(log n) refinement
// for off-grid durations), and a pooled-buffer write — no predictor scan,
// no deadline, no allocation. Writer and replica answer from the same
// surfaces, so they answer identically; the predictor scan survives only
// as MarshalHandler's reference oracle, and TestAdviseSurfaceScanEquivalence
// holds the two byte-identical over randomized trials.

// quoteBuf is the pooled response-assembly buffer for the advise fast
// path. Quotes are ~150 bytes; after warm-up the pooled capacity sticks
// and a cached advise performs zero heap allocations.
type quoteBuf struct {
	b []byte
}

var quoteBufPool = sync.Pool{New: func() any { return &quoteBuf{} }}

// plainJSONSafe reports whether s encodes into a JSON string verbatim
// under encoding/json's rules: printable ASCII with nothing to escape
// (including the <, >, & that json.Encoder HTML-escapes). Anything else
// is rendered through encoding/json so the bytes stay identical to it.
//
//drafts:nonalloc
func plainJSONSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, scientific notation outside [1e-6, 1e21), and
// no "e-0X" zero-padded exponents.
//
//drafts:nonalloc
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// handleAdvise answers the user question directly: the smallest bid that
// guarantees the requested duration, escalating past the published table
// span when necessary. The response bytes — success quote, staleness
// refusal, cannot-guarantee refusal and every error alike — are identical
// to what the reference scan produces over the same tables.
//
//drafts:nonalloc
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	c, ok := s.resolveCombo(w, r)
	if !ok {
		return
	}
	d, ok := parseAdviseDuration(w, c.dur)
	if !ok {
		return
	}
	et := s.blobs.Load()
	surf, found := et.surface(c)
	if !found {
		writeNotFound(w, "predictor", c)
		return
	}
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	tr := traceOf(w)
	sp := tr.StartSpan("surface.lookup")
	quote, ok := surf.Lookup(d)
	sp.End()
	if !ok {
		writeAdviseRefusal(w, d, c, surf)
		return
	}
	wsp := tr.StartSpan("surface.write")
	writeAdviseQuote(w, c.visible, c.typ, quote)
	wsp.End()
}

// parseAdviseDuration validates the duration parameter, writing the 400
// itself.
func parseAdviseDuration(w http.ResponseWriter, durStr string) (time.Duration, bool) {
	if durStr == "" {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "duration is required (e.g. 2h30m)")
		return 0, false
	}
	d, err := time.ParseDuration(durStr)
	if err != nil || d <= 0 {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid duration %q", durStr)
		return 0, false
	}
	return d, true
}

// writeAdviseQuote renders the QuoteJSON success body from a pooled
// buffer, byte-identical to writeJSON(w, 200, QuoteJSON{...}); names that
// need JSON escaping take encoding/json itself.
//
//drafts:nonalloc
func writeAdviseQuote(w http.ResponseWriter, zone, typ string, q core.Quote) {
	if !plainJSONSafe(zone) || !plainJSONSafe(typ) {
		writeQuoteJSON(w, zone, typ, q)
		return
	}
	bb := quoteBufPool.Get().(*quoteBuf)
	b := bb.b[:0]
	b = append(b, `{"zone":"`...)
	b = append(b, zone...)
	b = append(b, `","instance_type":"`...)
	b = append(b, typ...)
	b = append(b, `","probability":`...)
	b = appendJSONFloat(b, q.Probability)
	b = append(b, `,"bid_usd_per_hour":`...)
	b = appendJSONFloat(b, q.Bid)
	b = append(b, `,"guaranteed_duration_seconds":`...)
	b = appendJSONFloat(b, q.Duration.Seconds())
	b = append(b, '}', '\n')
	h := w.Header()
	h["Content-Type"] = jsonCTHeader
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	bb.b = b
	quoteBufPool.Put(bb)
}

// writeQuoteJSON is writeAdviseQuote's rendering for names that need
// escaping.
func writeQuoteJSON(w http.ResponseWriter, zone, typ string, q core.Quote) {
	writeJSON(w, http.StatusOK, QuoteJSON{Zone: zone, InstanceType: typ, Probability: q.Probability,
		Bid: q.Bid, DurationSeconds: q.Duration.Seconds()})
}

// writeAdviseRefusal renders the cannot-guarantee refusal for a surface
// miss; it names the physical combo, as the scan does.
func writeAdviseRefusal(w http.ResponseWriter, d time.Duration, c comboReq, surf *core.AdviseSurface) {
	writeErr(w, http.StatusConflict, codeNotFound, "cannot guarantee %v on %s: %v",
		d, c.combo(), surf.CannotGuarantee(d))
}
