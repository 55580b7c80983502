package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
)

// class is a request class of the serving mix.
type class int

const (
	clsPredictions class = iota
	clsTables
	clsAdvise
	clsAdviseFallback
	clsFleet
	clsNotModified
	numClasses
)

var classNames = [numClasses]string{"predictions", "tables", "advise", "advise_fallback", "fleet", "not_modified"}

// allowed reports whether status is one a request of class c may get.
// Advise answers 409 when the duration is beyond what any bid guarantees.
func (c class) allowed(status int) bool {
	switch c {
	case clsAdvise, clsAdviseFallback:
		return status == http.StatusOK || status == http.StatusConflict
	case clsNotModified:
		return status == http.StatusNotModified
	}
	return status == http.StatusOK
}

// Shares of the serving mix. One in a hundred advise requests is spelled
// so that it misses the surface fast path (the ?account= alias or
// percent-encoded names) and runs the predictor scan.
const (
	sharePredictions = 0.60
	shareTables      = 0.10
	shareAdvise      = 0.20
	shareFleet       = 0.05
	// the remaining 5% revalidate with If-None-Match
	fallbackShare = 0.01
	batchSize     = 8
	// mixLen is how many distinct requests one run draws; the load
	// generator cycles through them.
	mixLen = 16384
	// bodySample is how many of them have their bodies checked against
	// an oracle on every response.
	bodySample = 160
)

// Combos are drawn Zipf-skewed with P(rank k) proportional to
// (zipfV+k)^-zipfS: the hottest combo takes about 4% of requests and the
// top 50 about half, so a run's cost does not hang on the table sizes of
// a handful of combos its seed happened to put first.
const (
	zipfS = 1.2
	zipfV = 10
)

// Advise durations: on the precomputed grid, between grid points, and
// beyond any guarantee. All are valid Go durations.
var (
	gridDurations    = []string{"1h", "2h", "6h", "12h", "24h"}
	offGridDurations = []string{"90m", "5h30m", "17h20m"}
	refusedDurations = []string{"1000h"}
	fleetDurations   = []string{"1h", "6h", "24h"}
	probabilities    = []string{"0.95", "0.99"}
)

// tmpl is one request of the mix with what its response must be.
type tmpl struct {
	cls    class
	raw    []byte
	status int    // exact status for sampled requests (0 = class rule only)
	expect []byte // exact body for sampled requests (nil = not checked)
}

// mixBuilder draws requests against one epoch of the writer.
type mixBuilder struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	order    []spot.Combo // catalog in a seeded order: the Zipf head differs per seed
	tenants  []benchTenant
	visible  map[string]obfuscate.Mapping // account -> physical zone -> visible zone
	etag     string
	marshal  http.Handler
	handler  http.Handler
	epoch    *service.Epoch
	accounts map[string]string // key -> account
	catalog  []spot.Combo
	scans    map[scanKey]scanQuote // the fleet oracle's cached scan answers
}

func newMixBuilder(e *env, seed int64) *mixBuilder {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	order := append([]spot.Combo(nil), e.feed.combos...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	b := &mixBuilder{
		rng:      rng,
		zipf:     rand.NewZipf(rng, zipfS, zipfV, uint64(len(order)-1)),
		order:    order,
		tenants:  tenantSpecs(),
		visible:  map[string]obfuscate.Mapping{},
		etag:     e.writer.CurrentEpoch().ETag(),
		marshal:  e.writer.MarshalHandler(),
		handler:  e.writer.Handler(),
		epoch:    e.writer.CurrentEpoch(),
		accounts: map[string]string{},
		catalog:  e.feed.combos,
		scans:    map[scanKey]scanQuote{},
	}
	for acct, m := range e.mappings {
		b.visible[acct] = m.Inverse()
	}
	for _, t := range b.tenants {
		b.accounts[t.key] = t.account
	}
	return b
}

func (b *mixBuilder) combo() spot.Combo { return b.order[b.zipf.Uint64()] }

func (b *mixBuilder) pick(xs []string) string { return xs[b.rng.Intn(len(xs))] }

// zoneFor is the zone name tenant t uses for physical zone z.
func (b *mixBuilder) zoneFor(t benchTenant, z spot.Zone) string {
	if t.account == "" {
		return string(z)
	}
	return string(b.visible[t.account][z])
}

func getRequest(target, key, extra string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: perfbench\r\nAuthorization: Bearer %s\r\n%s\r\n", target, key, extra))
}

func postRequest(target, key string, body []byte) []byte {
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nAuthorization: Bearer %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		target, key, len(body), body))
}

func predictionsTarget(zone, typ, prob string) string {
	return fmt.Sprintf("/v1/predictions?zone=%s&type=%s&probability=%s", zone, typ, prob)
}

// draw returns the next request of the mix.
func (b *mixBuilder) draw() tmpl {
	t := b.tenants[b.rng.Intn(len(b.tenants))]
	prob := b.pick(probabilities)
	c := b.combo()
	r := b.rng.Float64()
	switch {
	case r < sharePredictions:
		return tmpl{cls: clsPredictions, raw: getRequest(predictionsTarget(b.zoneFor(t, c.Zone), string(c.Type), prob), t.key, "")}
	case r < sharePredictions+shareTables:
		parts := make([]string, batchSize)
		for i := range parts {
			bc := b.combo()
			parts[i] = b.zoneFor(t, bc.Zone) + "/" + string(bc.Type)
		}
		target := fmt.Sprintf("/v1/tables?combos=%s&probability=%s", strings.Join(parts, ","), prob)
		return tmpl{cls: clsTables, raw: getRequest(target, t.key, "")}
	case r < sharePredictions+shareTables+shareAdvise:
		var dur string
		switch d := b.rng.Float64(); {
		case d < 0.6:
			dur = b.pick(gridDurations)
		case d < 0.9:
			dur = b.pick(offGridDurations)
		default:
			dur = b.pick(refusedDurations)
		}
		zone, typ := b.zoneFor(t, c.Zone), string(c.Type)
		if b.rng.Float64() >= fallbackShare {
			target := fmt.Sprintf("/v1/advise?zone=%s&type=%s&probability=%s&duration=%s", zone, typ, prob, dur)
			return tmpl{cls: clsAdvise, raw: getRequest(target, t.key, "")}
		}
		var target string
		if t.account != "" && b.rng.Intn(2) == 0 {
			target = fmt.Sprintf("/v1/advise?zone=%s&type=%s&probability=%s&duration=%s&account=%s", zone, typ, prob, dur, t.account)
		} else {
			target = fmt.Sprintf("/v1/advise?zone=%s&type=%s&probability=%s&duration=%s",
				strings.ReplaceAll(zone, "-", "%2D"), typ, prob, dur)
		}
		return tmpl{cls: clsAdviseFallback, raw: getRequest(target, t.key, "")}
	case r < sharePredictions+shareTables+shareAdvise+shareFleet:
		req := service.FleetRequest{Duration: b.pick(fleetDurations), Count: 5 + 5*b.rng.Intn(2)}
		if prob == "0.95" {
			req.Probability = 0.95
		} else {
			req.Probability = 0.99
		}
		if t.account == "" && b.rng.Intn(2) == 0 {
			req.Zones = []string{string(spot.Regions()[b.rng.Intn(len(spot.Regions()))]) + "*"}
		}
		body, _ := json.Marshal(req)
		return tmpl{cls: clsFleet, raw: postRequest("/v1/fleet", t.key, body)}
	default:
		target := predictionsTarget(b.zoneFor(t, c.Zone), string(c.Type), prob)
		return tmpl{cls: clsNotModified, raw: getRequest(target, t.key, "If-None-Match: "+b.etag+"\r\n")}
	}
}

// inproc serves raw through h in process and returns the recorded
// response.
func inproc(h http.Handler, raw []byte) (*httptest.ResponseRecorder, error) {
	req, body, err := parseRaw(raw)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, nil
}

// buildMix draws mixLen requests and computes, for a seeded sample of
// them, the exact response each must get from an oracle independent of
// the serving fast path.
func buildMix(e *env, seed int64) ([]tmpl, error) {
	b := newMixBuilder(e, seed)
	mix := make([]tmpl, mixLen)
	for i := range mix {
		mix[i] = b.draw()
	}
	checked := b.rng.Perm(len(mix))[:bodySample]
	// Every class also gets one checked request from a tenant without an
	// account view that succeeds: the traced run times those.
	for cls := class(0); cls < numClasses; cls++ {
		for i := range mix {
			if mix[i].cls != cls || !hasCanonicalKey(mix[i].raw) {
				continue
			}
			if err := b.attachOracle(&mix[i]); err != nil {
				return nil, fmt.Errorf("oracle for %q: %w", firstLine(mix[i].raw), err)
			}
			if mix[i].status == http.StatusOK || mix[i].status == http.StatusNotModified {
				break
			}
		}
	}
	for _, i := range checked {
		if err := b.attachOracle(&mix[i]); err != nil {
			return nil, fmt.Errorf("oracle for %q: %w", firstLine(mix[i].raw), err)
		}
	}
	return mix, nil
}

func firstLine(raw []byte) string {
	if i := bytes.IndexByte(raw, '\r'); i >= 0 {
		return string(raw[:i])
	}
	return string(raw)
}

// attachOracle fills in the exact status and body m must get:
//   - predictions: the MarshalHandler body, which for canonical tenants
//     must also equal the epoch's Blob bytes;
//   - tables: the bracketed, comma-joined MarshalHandler bodies of the
//     batch's combos;
//   - advise: the MarshalHandler response, which runs the predictor scan;
//   - fleet: the served page, once it equals the page fleetOracle ranks
//     from the scan's advise for every combo;
//   - revalidation: 304.
func (b *mixBuilder) attachOracle(m *tmpl) error {
	req, body, err := parseRaw(m.raw)
	if err != nil {
		return err
	}
	key := strings.TrimPrefix(req.Header.Get("Authorization"), "Bearer ")
	q := req.URL.Query()
	switch m.cls {
	case clsPredictions:
		body, err := b.marshalPredictions(key, q.Get("zone"), q.Get("type"), q.Get("probability"))
		if err != nil {
			return err
		}
		m.status, m.expect = http.StatusOK, append(body, '\n')
	case clsTables:
		var parts [][]byte
		for _, part := range strings.Split(q.Get("combos"), ",") {
			zone, typ, _ := strings.Cut(part, "/")
			body, err := b.marshalPredictions(key, zone, typ, q.Get("probability"))
			if err != nil {
				return err
			}
			parts = append(parts, body)
		}
		m.status = http.StatusOK
		m.expect = append(append([]byte("["), bytes.Join(parts, []byte(","))...), "]\n"...)
	case clsAdvise, clsAdviseFallback:
		rec, err := inproc(b.marshal, m.raw)
		if err != nil {
			return err
		}
		if !m.cls.allowed(rec.Code) {
			return fmt.Errorf("scan answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		m.status = rec.Code
		if rec.Code == http.StatusOK {
			m.expect = rec.Body.Bytes()
		}
	case clsFleet:
		var fr service.FleetRequest
		if err := json.Unmarshal(body, &fr); err != nil {
			return err
		}
		want, err := b.fleetOracle(fr)
		if err != nil {
			return err
		}
		rec, err := inproc(b.handler, m.raw)
		if err != nil {
			return err
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("fleet answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		if err := checkFleet(rec.Body.Bytes(), want); err != nil {
			return err
		}
		m.status, m.expect = http.StatusOK, rec.Body.Bytes()
	case clsNotModified:
		m.status = http.StatusNotModified
	}
	return nil
}

// marshalPredictions is the marshal-per-request oracle for one table:
// the table's JSON without the trailing newline.
func (b *mixBuilder) marshalPredictions(key, zone, typ, prob string) ([]byte, error) {
	raw := getRequest(predictionsTarget(zone, typ, prob), key, "")
	rec, err := inproc(b.marshal, raw)
	if err != nil {
		return nil, err
	}
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("marshal oracle answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	// The marshal body is the table's JSON plus json.Encoder's newline;
	// the epoch blob is the same JSON without it.
	body, ok := bytes.CutSuffix(rec.Body.Bytes(), []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("marshal oracle body for %s/%s@%s lacks its newline", zone, typ, prob)
	}
	if b.accounts[key] == "" {
		blob, ok := b.epoch.Blob(service.BlobKey{Zone: zone, Type: typ, Prob: prob})
		if !ok || !bytes.Equal(blob, body) {
			return nil, fmt.Errorf("epoch blob for %s/%s@%s differs from the marshal oracle", zone, typ, prob)
		}
	}
	return body, nil
}

// scanKey is one advise question the fleet oracle asks the scan.
type scanKey struct {
	combo     spot.Combo
	prob, dur string
}

// scanQuote is the scan's answer: ok is false when no bid carries the
// guarantee (409).
type scanQuote struct {
	ok       bool
	bid, dur float64
}

// fleetPage is the part of a fleet response the oracle fixes.
type fleetPage struct {
	total   int
	results []service.FleetQuote
	more    bool
}

// fleetMatches is the fleet request's constraint rule, written from its
// contract: no patterns match everything; otherwise v equals a pattern
// or carries the prefix of one ending in '*'.
func fleetMatches(patterns []string, v string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if prefix, ok := strings.CutSuffix(p, "*"); ok && strings.HasPrefix(v, prefix) || p == v {
			return true
		}
	}
	return false
}

// fleetOracle computes the page req must get from the predictor scan
// alone: MarshalHandler's advise for every catalog combo the request's
// constraints admit, the compliant ones ranked by (bid tick, zone, type),
// the first Count of them. Fleet pages name canonical zones for every
// tenant, so the scan is asked as a tenant without an account view.
// Answers are cached across requests; the missing ones are computed on
// every CPU.
func (b *mixBuilder) fleetOracle(req service.FleetRequest) (fleetPage, error) {
	prob := strconv.FormatFloat(req.Probability, 'g', -1, 64)
	var keys, missing []scanKey
	for _, c := range b.catalog {
		if !fleetMatches(req.Zones, string(c.Zone)) || !fleetMatches(req.Types, string(c.Type)) {
			continue
		}
		k := scanKey{combo: c, prob: prob, dur: req.Duration}
		keys = append(keys, k)
		if _, ok := b.scans[k]; !ok {
			missing = append(missing, k)
		}
	}
	quotes := make([]scanQuote, len(missing))
	errs := make([]error, len(missing))
	parallel(len(missing), runtime.GOMAXPROCS(0), func(i int) {
		quotes[i], errs[i] = b.scanAdvise(missing[i])
	})
	for i, k := range missing {
		if errs[i] != nil {
			return fleetPage{}, errs[i]
		}
		b.scans[k] = quotes[i]
	}
	var page fleetPage
	for _, k := range keys {
		if q := b.scans[k]; q.ok {
			page.results = append(page.results, service.FleetQuote{
				Zone: string(k.combo.Zone), InstanceType: string(k.combo.Type), Bid: q.bid, DurationSeconds: q.dur})
		}
	}
	sort.Slice(page.results, func(i, j int) bool {
		p, r := page.results[i], page.results[j]
		if pt, rt := spot.Ticks(p.Bid), spot.Ticks(r.Bid); pt != rt {
			return pt < rt
		}
		if p.Zone != r.Zone {
			return p.Zone < r.Zone
		}
		return p.InstanceType < r.InstanceType
	})
	page.total = len(page.results)
	if page.total > req.Count {
		page.results, page.more = page.results[:req.Count], true
	}
	return page, nil
}

// scanAdvise asks MarshalHandler's predictor scan one advise question.
func (b *mixBuilder) scanAdvise(k scanKey) (scanQuote, error) {
	target := fmt.Sprintf("/v1/advise?zone=%s&type=%s&probability=%s&duration=%s", k.combo.Zone, k.combo.Type, k.prob, k.dur)
	rec, err := inproc(b.marshal, getRequest(target, b.tenants[0].key, ""))
	if err != nil {
		return scanQuote{}, err
	}
	switch rec.Code {
	case http.StatusConflict:
		return scanQuote{}, nil
	case http.StatusOK:
		var q service.QuoteJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
			return scanQuote{}, err
		}
		return scanQuote{ok: true, bid: q.Bid, dur: q.DurationSeconds}, nil
	}
	return scanQuote{}, fmt.Errorf("scan advise for %s answered %d: %s", k.combo, rec.Code, rec.Body.Bytes())
}

// checkFleet compares a served fleet page with the oracle's: the same
// compliant count, the same combos in the same order with bit-identical
// quotes, and a cursor exactly when more pages follow.
func checkFleet(body []byte, want fleetPage) error {
	var fr service.FleetResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return err
	}
	if fr.TotalCompliant != want.total {
		return fmt.Errorf("fleet counts %d compliant combos, the scan %d", fr.TotalCompliant, want.total)
	}
	if len(fr.Results) != len(want.results) {
		return fmt.Errorf("fleet page holds %d quotes, the scan ranks %d", len(fr.Results), len(want.results))
	}
	for i, r := range fr.Results {
		w := want.results[i]
		if r.Zone != w.Zone || r.InstanceType != w.InstanceType ||
			math.Float64bits(r.Bid) != math.Float64bits(w.Bid) ||
			math.Float64bits(r.DurationSeconds) != math.Float64bits(w.DurationSeconds) {
			return fmt.Errorf("fleet quote %d is %s/%s %v/%vs, the scan ranks %s/%s %v/%vs", i,
				r.Zone, r.InstanceType, r.Bid, r.DurationSeconds, w.Zone, w.InstanceType, w.Bid, w.DurationSeconds)
		}
	}
	if (fr.NextCursor != "") != want.more {
		return fmt.Errorf("fleet next cursor %q, the scan has more pages: %v", fr.NextCursor, want.more)
	}
	return nil
}

// hasCanonicalKey reports whether raw authenticates as a tenant without
// an account view.
func hasCanonicalKey(raw []byte) bool {
	for _, t := range tenantSpecs() {
		if t.account == "" && bytes.Contains(raw, []byte("Bearer "+t.key+"\r\n")) {
			return true
		}
	}
	return false
}

// verify checks one response of the mix: the class's status always, the
// exact status and body for sampled requests.
func verifyMix(mix []tmpl) verifier {
	return func(i, status int, body []byte) error {
		m := &mix[i]
		if !m.cls.allowed(status) {
			return fmt.Errorf("%s %q: status %d", classNames[m.cls], firstLine(m.raw), status)
		}
		if m.status != 0 && status != m.status {
			return fmt.Errorf("%s %q: status %d, oracle %d", classNames[m.cls], firstLine(m.raw), status, m.status)
		}
		if m.expect != nil && !bytes.Equal(body, m.expect) {
			return fmt.Errorf("%s %q: body differs from the oracle", classNames[m.cls], firstLine(m.raw))
		}
		return nil
	}
}

// wireMix is the load generator's view of the mix.
func wireMix(mix []tmpl) []wireReq {
	out := make([]wireReq, len(mix))
	for i, m := range mix {
		out[i] = wireReq{raw: m.raw, keep: m.expect != nil}
	}
	return out
}
