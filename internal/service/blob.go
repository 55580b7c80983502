package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/trace"
)

// Every /v1 read answers from the installed epoch: each bid table is
// JSON-encoded once per refresh into an immutable encodedTables value that
// the handlers read through an atomic pointer. A cached GET is then a
// substring scan of the raw query, one map lookup, two preallocated header
// writes, and a single w.Write of the stored blob — no per-request
// marshalling, no url.Values, no []byte churn. The zero-allocation
// property is enforced by TestCachedGetZeroAllocs via testing.AllocsPerRun.
// Writer and replica run this same code over the same bytes; the
// marshal-per-request handlers below survive only as the reference oracle
// MarshalHandler exposes to the equivalence tests and benchmarks.

// maxBatchCombos caps how many combos one /v1/tables request may ask for,
// bounding response size and validation work.
const maxBatchCombos = 512

// defaultProbKey is the canonical spelling of the default probability
// level, matching probKey(0.99).
const defaultProbKey = "0.99"

// Preallocated header values, assigned into the response header map
// directly so the hot path never allocates a fresh []string per request.
var (
	jsonCTHeader = []string{"application/json"}
	newline      = []byte("\n")
	openBracket  = []byte("[")
	closeBracket = []byte("]\n")
	comma        = []byte(",")
	emptyList    = []byte("[]\n")
)

// blobKey addresses one pre-encoded table by the exact strings a request
// carries, so lookups work on substrings of the raw query without
// conversions.
type blobKey struct {
	zone, typ, prob string
}

// encodedTables is one refresh epoch's immutable pre-encoded serving state.
// It is built once per refresh (or snapshot restore) and installed with an
// atomic pointer swap; handlers treat every byte as read-only.
type encodedTables struct {
	seq    uint64 // epoch sequence number, for replication ordering
	asOf   time.Time
	etag   string   // strong ETag derived from the refresh epoch, quoted
	etagH  []string // preallocated header value: []string{etag}
	tables map[blobKey][]byte
	combos []byte // pre-encoded /v1/combos response body (no trailing newline)
	bytes  int    // total pre-encoded payload bytes, views excluded

	// surfaces holds the precomputed advise surfaces (surface.go); fleet
	// indexes them per probability spelling for /v1/fleet. A table whose
	// predictor could not produce a surface has none, and /v1/advise
	// answers 404 for it on every node alike.
	surfaces map[blobKey]*surfaceEntry
	fleet    map[string][]fleetEntry

	// views holds the renamed variants of table blobs for account-mapped
	// zone names: the same body with the zone field renamed to each other
	// name some account sees the physical zone under (attachViews). A
	// mapped tenant's cached GET is then one mapping lookup plus one views
	// lookup — no per-request rewrite, no allocation. Identity names need
	// no view: they are served the table itself.
	views map[viewKey][]byte

	// combosViews holds the per-account /v1/combos listing with every
	// zone renamed to the account's visible name and the list re-sorted
	// in that namespace, so a mapped tenant's combo discovery round-trips
	// into its /v1/predictions and /v1/tables requests. Keyed by account;
	// accounts whose mapping is the identity over the served zones alias
	// the canonical body.
	combosViews map[string][]byte
	viewBytes   int // payload bytes of views and combosViews
}

// size is the epoch's total pre-encoded payload, views included.
func (et *encodedTables) size() int { return et.bytes + et.viewBytes }

// viewKey addresses one renamed table: the physical table identity plus
// the visible zone name the body answers under. The physical zone is part
// of the key because two accounts may both see "us-east-1b" while meaning
// different physical zones.
type viewKey struct {
	phys, visible, typ, prob string
}

// probKey formats a probability level the way the service addresses blobs:
// the shortest round-trip representation, which matches how clients
// naturally spell query values ("0.99", "0.95").
func probKey(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// epochETag derives the strong ETag for a refresh epoch: a hash of the
// installation time and table count. Tables only change when a refresh (or
// snapshot restore) installs a new epoch, so the epoch identifies the
// content; a restored snapshot carries its original asOf and therefore
// revalidates against the same ETag it served before the restart.
func epochETag(asOf time.Time, n int) string {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(asOf.UnixNano()))
	binary.LittleEndian.PutUint64(buf[8:], uint64(n))
	_, _ = h.Write(buf[:])
	return `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// encodeTables pre-encodes every table, the combo listing, and the
// advise surfaces for one epoch. Prebuilt surfaces may be passed in (the
// refresh path builds them before stamping asOf, so surface construction
// time doesn't age the epoch); nil surfaces are derived from preds here.
func encodeTables(tables map[tableKey]core.BidTable, preds map[tableKey]*core.Predictor, surfaces map[blobKey]*surfaceEntry, asOf time.Time) (*encodedTables, error) {
	et := &encodedTables{
		asOf:   asOf,
		etag:   epochETag(asOf, len(tables)),
		tables: make(map[blobKey][]byte, len(tables)),
	}
	et.etagH = []string{et.etag}
	seen := make(map[spot.Combo]bool)
	for k, table := range tables {
		body, err := json.Marshal(toJSON(k.combo, table))
		if err != nil {
			return nil, fmt.Errorf("service: encoding table for %s/p=%v: %w", k.combo, k.prob, err)
		}
		et.tables[blobKey{
			zone: string(k.combo.Zone),
			typ:  string(k.combo.Type),
			prob: probKey(k.prob),
		}] = body
		et.bytes += len(body)
		seen[k.combo] = true
	}
	list := make([]comboJSON, 0, len(seen))
	for c := range seen {
		list = append(list, comboJSON{Zone: string(c.Zone), InstanceType: string(c.Type)})
	}
	sortCombos(list)
	combos, err := json.Marshal(list)
	if err != nil {
		return nil, fmt.Errorf("service: encoding combo list: %w", err)
	}
	et.combos = combos
	et.bytes += len(combos)
	if surfaces == nil {
		surfaces = buildSurfaces(tables, preds)
	}
	et.attachSurfaces(surfaces)
	return et, nil
}

// sortCombos orders a combo listing by (zone, type), the order every
// /v1/combos body uses.
func sortCombos(list []comboJSON) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].Zone != list[j].Zone {
			return list[i].Zone < list[j].Zone
		}
		return list[i].InstanceType < list[j].InstanceType
	})
}

// zoneField is how every table body begins: Zone is TableJSON's first
// field, which is what lets attachViews rename it by prefix replacement
// without reparsing the JSON. The name is encoded exactly as the marshal
// path encodes it.
func zoneField(zone string) []byte {
	name, _ := json.Marshal(zone)
	return append([]byte(`{"zone":`), name...)
}

// attachViews derives the epoch's account views from this node's own
// mappings, replacing any it carried: every table whose physical zone
// some account sees under another name gets one renamed body per such
// name, and every mapped account gets its own combo listing. Views are
// derived data — the epoch checksum excludes them — so writer and replica
// each build them from their own configuration. The blowup is bounded by
// the distinct (visible, physical) pairs across all mappings.
func (et *encodedTables) attachViews(mappings map[string]obfuscate.Mapping) {
	et.views, et.combosViews, et.viewBytes = nil, nil, 0
	if len(mappings) == 0 {
		return
	}
	aliases := make(map[string]map[string]bool) // physical zone -> other visible names
	for _, m := range mappings {
		for vis, phys := range m {
			if vis == phys {
				continue
			}
			if aliases[string(phys)] == nil {
				aliases[string(phys)] = make(map[string]bool)
			}
			aliases[string(phys)][string(vis)] = true
		}
	}
	et.views = make(map[viewKey][]byte)
	for k, body := range et.tables {
		for vis := range aliases[k.zone] {
			renamed := bytes.Replace(body, zoneField(k.zone), zoneField(vis), 1)
			et.views[viewKey{phys: k.zone, visible: vis, typ: k.typ, prob: k.prob}] = renamed
			et.viewBytes += len(renamed)
		}
	}
	seen := make(map[spot.Combo]bool, len(et.tables))
	for k := range et.tables {
		seen[spot.Combo{Zone: spot.Zone(k.zone), Type: spot.InstanceType(k.typ)}] = true
	}
	et.combosViews = make(map[string][]byte, len(mappings))
	for account, m := range mappings {
		inv := m.Inverse()
		list := make([]comboJSON, 0, len(seen))
		identity := true
		for c := range seen {
			vis, ok := inv[c.Zone]
			if !ok {
				vis = c.Zone
			}
			identity = identity && vis == c.Zone
			list = append(list, comboJSON{Zone: string(vis), InstanceType: string(c.Type)})
		}
		if identity {
			et.combosViews[account] = et.combos
			continue
		}
		sortCombos(list)
		body, _ := json.Marshal(list) // plain strings: cannot fail
		et.combosViews[account] = body
		et.viewBytes += len(body)
	}
}

// publish encodes tables (with their advise surfaces and this node's
// account views) into the next epoch and installs it together with the
// authoritative maps behind it. An encoding failure installs nothing — the
// previous epoch keeps serving — and is returned for the caller to record
// as a failed refresh. Snapshot restores pass a nil trace (and nil
// surfaces, derived from preds).
func (s *Server) publish(tables map[tableKey]core.BidTable, preds map[tableKey]*core.Predictor, surfaces map[blobKey]*surfaceEntry, asOf time.Time, lastErr string, tr *trace.Trace) error {
	began := time.Now()
	sp := tr.StartSpan("blob.encode")
	et, err := encodeTables(tables, preds, surfaces, asOf)
	sp.EndErr(err)
	if err != nil {
		return err
	}
	if len(s.cfg.AccountMappings) > 0 {
		vsp := tr.StartSpan("blob.views")
		et.attachViews(s.cfg.AccountMappings)
		vsp.End()
	}
	s.mu.Lock()
	s.tables, s.preds, s.asOf, s.lastErr = tables, preds, asOf, lastErr
	s.mu.Unlock()
	et.seq = s.epochSeq.Add(1)
	s.blobs.Store(et)
	s.metrics.tables.Set(float64(len(tables)))
	s.metrics.blobBytes.Set(float64(et.size()))
	s.metrics.encodeDuration.Observe(time.Since(began).Seconds())
	if hook := s.cfg.OnEpoch; hook != nil {
		hook(&Epoch{et: et})
	}
	return nil
}

// table returns the body answering c: the table itself when the client
// addressed the physical zone, its renamed view otherwise. A
// non-canonical probability spelling ("0.990") is retried under the
// canonical one.
func (et *encodedTables) table(c comboReq) ([]byte, bool) {
	if et == nil {
		return nil, false
	}
	if b, ok := et.tableAt(c, c.prob); ok {
		return b, true
	}
	return et.tableAt(c, probKey(c.probF))
}

func (et *encodedTables) tableAt(c comboReq, prob string) ([]byte, bool) {
	if c.visible == c.phys {
		b, ok := et.tables[blobKey{zone: c.phys, typ: c.typ, prob: prob}]
		return b, ok
	}
	b, ok := et.views[viewKey{phys: c.phys, visible: c.visible, typ: c.typ, prob: prob}]
	return b, ok
}

// readParams are the query parameters of the /v1 read endpoints. An
// absent parameter and an empty one read alike, as url.Values.Get has it.
type readParams struct {
	zone, typ, prob, dur, account, combos string
}

// readQuery is the one query reader every /v1 read uses: plain queries
// are read by substring extraction, and any query rawParams declines
// goes through url.ParseQuery — the same parse r.URL.Query() performs,
// so escaped spellings resolve exactly as the reference handlers see
// them.
func readQuery(q string) readParams {
	if p, ok := rawParams(q); ok {
		return p
	}
	v, _ := url.ParseQuery(q) // malformed pairs are dropped, as r.URL.Query() drops them
	return readParams{zone: v.Get("zone"), typ: v.Get("type"), prob: v.Get("probability"),
		dur: v.Get("duration"), account: v.Get("account"), combos: v.Get("combos")}
}

// rawParams reads the parameters without allocating when the query needs
// no unescaping: the results are substrings of q. It declines (ok false)
// any query with a percent-escape, a '+' (a space), or a ';' (which
// url.ParseQuery rejects along with its pair). FuzzRawParams holds it to
// url.ParseQuery on every query it accepts.
//
//drafts:nonalloc
func rawParams(q string) (p readParams, ok bool) {
	if !fastQuery(q) {
		return p, false
	}
	p.zone, _ = rawQueryValue(q, "zone")
	p.typ, _ = rawQueryValue(q, "type")
	p.prob, _ = rawQueryValue(q, "probability")
	p.dur, _ = rawQueryValue(q, "duration")
	p.account, _ = rawQueryValue(q, "account")
	p.combos, _ = rawQueryValue(q, "combos")
	return p, true
}

// fastQuery reports whether the raw query can be read by plain substring
// extraction: a percent-escape, '+' or ';' forces url.ParseQuery.
//
//drafts:nonalloc
func fastQuery(q string) bool {
	for i := 0; i < len(q); i++ {
		if q[i] == '%' || q[i] == '+' || q[i] == ';' {
			return false
		}
	}
	return true
}

// rawQueryValue extracts the first value of key from an unescaped raw
// query without allocating: the result is a substring of q. A bare key
// (no '=') is present with an empty value, as url.ParseQuery reads it.
//
//drafts:nonalloc
func rawQueryValue(q, key string) (val string, found bool) {
	for len(q) > 0 {
		var pair string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			pair, q = q, ""
		}
		if pair == key {
			return "", true
		}
		if len(pair) > len(key) && pair[len(key)] == '=' && pair[:len(key)] == key {
			return pair[len(key)+1:], true
		}
	}
	return "", false
}

// etagMatches implements the If-None-Match comparison against the epoch's
// strong ETag. Comma-separated candidate lists are honoured by substring
// search — every stored ETag is a quoted hash, so false positives cannot
// occur — and "*" matches any current representation.
//
//drafts:nonalloc
func etagMatches(header, etag string) bool {
	return header == "*" || strings.Contains(header, etag)
}

// writeBlob serves one pre-encoded body with ETag revalidation. The blob
// must not include its trailing newline; writeBlob appends it so responses
// stay byte-identical with the json.Encoder output of the marshal path.
// The serve-stale policy applies first: a degraded epoch is marked with
// X-Drafts-Staleness, and one beyond MaxStaleness is refused — both off
// the fresh-epoch fast path, which stays allocation-free.
//
//drafts:nonalloc
func (s *Server) writeBlob(w http.ResponseWriter, r *http.Request, et *encodedTables, body []byte) {
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	h := w.Header()
	h["Etag"] = et.etagH
	h["Content-Type"] = jsonCTHeader
	if m := r.Header.Get("If-None-Match"); m != "" && etagMatches(m, et.etag) {
		s.metrics.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	_, _ = w.Write(newline)
}

// handlePredictions serves one bid table from the installed epoch: the
// combo resolver translates the request (tenant account, ?account=
// alias, zone mapping), and the answer is one map lookup and a single
// write, with no allocation — a mapped tenant's renamed view included.
//
//drafts:nonalloc
func (s *Server) handlePredictions(w http.ResponseWriter, r *http.Request) {
	c, ok := s.resolveCombo(w, r)
	if !ok {
		return
	}
	et := s.blobs.Load()
	tr := traceOf(w)
	sp := tr.StartSpan("blob.lookup")
	body, found := et.table(c)
	sp.End()
	if !found {
		writeNotFound(w, "table", c)
		return
	}
	wsp := tr.StartSpan("blob.write")
	s.writeBlob(w, r, et, body)
	wsp.End()
}

// writeNotFound is the 404 for a combo with nothing behind it — "no
// table" on the read paths, "no predictor" on advise — including the
// state before the first epoch. It stays out of line so its boxing never
// lands in the allocation-free handlers that call it.
//
//go:noinline
func writeNotFound(w http.ResponseWriter, what string, c comboReq) {
	writeErr(w, http.StatusNotFound, codeNotFound, "no %s for %s at probability %v", what, c.combo(), c.probF)
}

// handleCombos serves the combo listing from the installed epoch. An
// account-mapped tenant receives its precomputed zone-view listing
// (combosViews) so discovery round-trips into the other read endpoints;
// either way the response is one map lookup and one write.
//
//drafts:nonalloc
func (s *Server) handleCombos(w http.ResponseWriter, r *http.Request) {
	et := s.blobs.Load()
	if et == nil {
		// The empty listing, as writeJSON renders it.
		w.Header()["Content-Type"] = jsonCTHeader
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(emptyList)
		return
	}
	body := et.combos
	if tn := tenantOf(w); tn != nil && tn.Account != "" {
		if vb, ok := et.combosViews[tn.Account]; ok {
			body = vb
		}
	}
	s.writeBlob(w, r, et, body)
}

// handleTables is the batch read endpoint:
//
//	GET /v1/tables?combos=zone/type,zone/type,...&probability=P
//
// It streams the requested combos' pre-encoded tables as a JSON array in
// request order, revalidating the whole batch against the epoch ETag. The
// request is all-or-nothing: every combo is resolved before the first byte
// is written, so a miss is a clean 404 rather than a truncated array.
// Batch consumers address combos by the names /v1/combos listed for them:
// canonical names for anonymous callers, the account's visible zone names
// for a mapped tenant (served from the same precomputed view blobs as
// /v1/predictions, so the renamed bodies cost no per-request rewrite).
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	et := s.blobs.Load()
	if et == nil {
		writeErr(w, http.StatusServiceUnavailable, codeStale, "no tables computed yet")
		return
	}
	account := ""
	if tn := tenantOf(w); tn != nil {
		account = tn.Account
	}
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	p := readQuery(r.URL.RawQuery)
	if p.combos == "" {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "combos is required (comma-separated zone/type pairs)")
		return
	}
	prob, probF := p.prob, 0.99
	if prob == "" {
		prob = defaultProbKey
	} else if f, err := strconv.ParseFloat(prob, 64); err != nil || !(f > 0 && f < 1) {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid probability %q", prob)
		return
	} else {
		probF = f
	}
	// lookup resolves one zone/type part in the tenant's namespace; a
	// zone its mapping does not name has no table.
	lookup := func(zone, typ string) ([]byte, bool) {
		phys, _, known := s.physZone(account, zone)
		if !known {
			return nil, false
		}
		return et.table(comboReq{visible: zone, phys: phys, typ: typ, prob: prob, probF: probF})
	}

	// First pass: resolve every combo before writing anything.
	n := 0
	rest := p.combos
	for rest != "" {
		var part string
		if i := strings.IndexByte(rest, ','); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part, rest = rest, ""
		}
		zone, typ, ok := strings.Cut(part, "/")
		if !ok || zone == "" || typ == "" {
			writeErr(w, http.StatusBadRequest, codeInvalidArgument, "combo %q must be zone/type", part)
			return
		}
		if _, found := lookup(zone, typ); !found {
			writeErr(w, http.StatusNotFound, codeNotFound, "no table for %s/%s at probability %s", zone, typ, prob)
			return
		}
		n++
		if n > maxBatchCombos {
			writeErr(w, http.StatusBadRequest, codeInvalidArgument, "too many combos (limit %d)", maxBatchCombos)
			return
		}
	}
	s.metrics.batchCombos.Observe(float64(n))

	h := w.Header()
	h["Etag"] = et.etagH
	h["Content-Type"] = jsonCTHeader
	if m := r.Header.Get("If-None-Match"); m != "" && etagMatches(m, et.etag) {
		s.metrics.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(openBracket)
	rest = p.combos
	for i := 0; rest != ""; i++ {
		var part string
		if j := strings.IndexByte(rest, ','); j >= 0 {
			part, rest = rest[:j], rest[j+1:]
		} else {
			part, rest = rest, ""
		}
		zone, typ, _ := strings.Cut(part, "/")
		body, _ := lookup(zone, typ)
		if i > 0 {
			_, _ = w.Write(comma)
		}
		_, _ = w.Write(body)
	}
	_, _ = w.Write(closeBracket)
}

// handlePredictionsMarshal is the reference read path: it re-encodes the
// table from the installed core representation on every request. It is
// the oracle MarshalHandler exposes to the equivalence tests and
// benchmarks; no request to Handler reaches it.
func (s *Server) handlePredictionsMarshal(w http.ResponseWriter, r *http.Request) {
	c, ok := s.resolveCombo(w, r)
	if !ok {
		return
	}
	table, ok := s.table(c.combo(), c.probF)
	if !ok {
		writeNotFound(w, "table", c)
		return
	}
	s.mu.RLock()
	asOf, n := s.asOf, len(s.tables)
	s.mu.RUnlock()
	if !s.checkStaleness(w, asOf) {
		return
	}
	w.Header().Set("Etag", epochETag(asOf, n))
	// Answer under the client's own zone name.
	writeJSON(w, http.StatusOK, toJSON(spot.Combo{Zone: spot.Zone(c.visible), Type: spot.InstanceType(c.typ)}, table))
}

// handleCombosMarshal is the marshal-per-request combo listing, the
// reference oracle for handleCombos. It applies the same per-account zone
// renaming as the pre-encoded path.
func (s *Server) handleCombosMarshal(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	seen := make(map[spot.Combo]bool)
	for k := range s.tables {
		seen[k.combo] = true
	}
	asOf, n := s.asOf, len(s.tables)
	s.mu.RUnlock()
	if !s.checkStaleness(w, asOf) {
		return
	}
	var inv map[spot.Zone]spot.Zone
	if tn := tenantOf(w); tn != nil && tn.Account != "" {
		if m, found := s.cfg.AccountMappings[tn.Account]; found {
			inv = make(map[spot.Zone]spot.Zone, len(m))
			for vis, phys := range m {
				inv[phys] = vis
			}
		}
	}
	out := make([]comboJSON, 0, len(seen))
	for c := range seen {
		zone := c.Zone
		if vis, ok := inv[zone]; ok {
			zone = vis
		}
		out = append(out, comboJSON{Zone: string(zone), InstanceType: string(c.Type)})
	}
	sortCombos(out)
	if n > 0 {
		w.Header().Set("Etag", epochETag(asOf, n))
	}
	writeJSON(w, http.StatusOK, out)
}

// MarshalHandler returns the reference REST API: /v1/predictions and
// /v1/combos marshal JSON from the installed tables on every request, and
// /v1/advise runs the predictor's bid-escalation scan, exactly as the
// service behaved before the blob store and the advise surfaces existed.
// Only a writer holds the tables and predictors it reads. It exists so
// draftsbench and the Go benchmarks can measure the serving path against
// the historical baseline on the same tables, and so the equivalence
// tests can hold Handler — on writer and replica alike — to the same
// status, headers and bytes. Production traffic uses Handler.
func (s *Server) MarshalHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/combos", s.handleCombosMarshal)
	mux.HandleFunc("GET /v1/predictions", s.handlePredictionsMarshal)
	mux.HandleFunc("GET /v1/advise", s.handleAdviseScan)
	return s.wrap(mux)
}
