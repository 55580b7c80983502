package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/drafts-go/drafts/internal/cloudsim"
	"github.com/drafts-go/drafts/internal/cluster"
	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/market"
	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/store"
	"github.com/drafts-go/drafts/internal/telemetry"
	"github.com/drafts-go/drafts/internal/tenant"
	"github.com/drafts-go/drafts/internal/trace"
)

// The production configuration draftsd runs by default: admission at 256
// in-flight units with no wait queue, a two-second advise budget, a
// two-hour staleness bound and 1% head-sampled tracing.
const (
	maxConcurrent = 256
	adviseBudget  = 2 * time.Second
	maxStaleness  = 2 * time.Hour
	traceSample   = 0.01
)

// benchTenant is one API-key tenant of the serving registry.
type benchTenant struct {
	key     string
	account string // "" = canonical zone names
}

// tenantSpecs is the registry every workload serves: four API-key
// tenants, two of them with per-account zone views. Their quotas are far
// above any offered load, so no request is ever rate limited.
func tenantSpecs() []benchTenant {
	return []benchTenant{
		{key: "perfbench-key-0"},
		{key: "perfbench-key-1"},
		{key: "perfbench-key-2", account: "acct-210987654321"},
		{key: "perfbench-key-3", account: "acct-123456789012"},
	}
}

// newTenantRegistry builds a fresh registry for tenantSpecs.
func newTenantRegistry() (*tenant.Registry, map[string]obfuscate.Mapping, error) {
	var specs []tenant.Spec
	mappings := map[string]obfuscate.Mapping{}
	for i, t := range tenantSpecs() {
		specs = append(specs, tenant.Spec{ID: fmt.Sprintf("tenant-%d", i), Key: t.key, Account: t.account})
		if t.account != "" {
			mappings[t.account] = obfuscate.ForAccount(t.account)
		}
	}
	reg, err := tenant.New(tenant.Config{RPS: 1e7}, specs)
	if err != nil {
		return nil, nil, fmt.Errorf("tenant registry: %w", err)
	}
	return reg, mappings, nil
}

// env is one workload's system under test: a writer in the production
// configuration over the generated archive, the shipper its epochs
// publish to, and one replica installing them over loopback HTTP.
type env struct {
	wl   workload
	seed int64
	rec  *recorder

	feed *feed
	hist *history.Store
	have map[spot.Combo]int // ticks installed per combo

	reg      *telemetry.Registry
	tracer   *trace.Tracer
	mappings map[string]obfuscate.Mapping
	dir      string
	durable  *store.Store
	shipper  *cluster.Shipper
	writer   *service.Server
	replica  *service.Server

	shipSrv    *http.Server
	shipDone   chan struct{}
	recvCancel context.CancelFunc
	recvDone   chan struct{}
	shipClient *http.Client

	// Per-cycle state the PreRefresh hook fills in.
	cycle      int
	cycleID    uint64
	cycleSpan  int
	appendDur  time.Duration
	walDur     time.Duration
	ticksAdded int
	hookErr    error
	published  atomic.Int64 // wall time (ns) of the writer's latest OnEpoch
	// The replica's latest install, stamped by its OnEpoch hook.
	installedAt  atomic.Int64
	installedSeq atomic.Uint64
}

// newEnv generates the feed and builds the whole environment. dataDir is
// where a durable workload keeps its store.
func newEnv(wl workload, seed int64, rec *recorder, dataDir string) (*env, error) {
	f, hist, err := generateFeed(seed, time.Now())
	if err != nil {
		return nil, err
	}
	e := &env{wl: wl, seed: seed, rec: rec, feed: f, hist: hist,
		have: make(map[spot.Combo]int, len(f.combos)), cycleSpan: -1}
	for _, c := range f.combos {
		e.have[c] = historyTicks
	}
	if err := e.build(dataDir); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// build wires the registry, tracer, tenants, store, shipper, writer and
// replica exactly as draftsd's writer role does.
func (e *env) build(dataDir string) error {
	e.reg = telemetry.NewRegistry()
	core.RegisterMetrics(e.reg)
	qbets.RegisterMetrics(e.reg)
	market.RegisterMetrics(e.reg)
	cloudsim.RegisterMetrics(e.reg)
	store.RegisterMetrics(e.reg)
	cluster.RegisterMetrics(e.reg)
	telemetry.RegisterRuntime(e.reg)

	var err error
	e.tracer, err = trace.New(trace.Config{SampleRate: traceSample, Seed: e.seed, Now: time.Now})
	if err != nil {
		return err
	}
	tenants, mappings, err := newTenantRegistry()
	if err != nil {
		return err
	}
	e.mappings = mappings

	if e.wl.durable {
		e.dir, err = os.MkdirTemp(dataDir, "state-")
		if err != nil {
			return err
		}
		e.durable, err = store.Open(e.dir, store.Options{Fsync: store.FsyncInterval})
		if err != nil {
			return fmt.Errorf("opening store: %w", err)
		}
	}

	shipCfg := cluster.ShipperConfig{MaxWait: 2 * time.Second}
	if e.durable != nil {
		shipCfg.WAL = e.durable
	}
	e.shipper = cluster.NewShipper(shipCfg)
	cfg := service.Config{
		Source:          e.hist,
		Metrics:         e.reg,
		MaxConcurrent:   maxConcurrent,
		AdviseBudget:    adviseBudget,
		MaxStaleness:    maxStaleness,
		Tracer:          e.tracer,
		Tenants:         tenants,
		AccountMappings: mappings,
		PreRefresh:      e.preRefresh,
		OnEpoch: func(ep *service.Epoch) {
			e.published.Store(time.Now().UnixNano())
			e.shipper.Publish(ep)
		},
	}
	if e.durable != nil {
		cfg.Durable = e.durable
	}
	if e.writer, err = service.New(cfg); err != nil {
		return err
	}
	e.replica, err = service.NewReplica(service.Config{OnEpoch: func(ep *service.Epoch) {
		e.installedAt.Store(time.Now().UnixNano())
		e.installedSeq.Store(ep.Seq())
	}})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/cluster/ship", e.shipper.ShipHandler())
	e.shipSrv = &http.Server{Handler: mux}
	e.shipDone = make(chan struct{})
	go func() {
		defer close(e.shipDone)
		_ = e.shipSrv.Serve(ln) // returns ErrServerClosed on close
	}()
	e.shipClient = &http.Client{Transport: &http.Transport{}}
	recv, err := cluster.NewReceiver(cluster.ReceiverConfig{
		Writer:       "http://" + ln.Addr().String(),
		Server:       e.replica,
		Now:          time.Now,
		HTTPClient:   e.shipClient,
		PollInterval: 20 * time.Millisecond,
		LongPoll:     2 * time.Second,
		Seed:         e.seed,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.recvCancel = cancel
	e.recvDone = make(chan struct{})
	go func() {
		defer close(e.recvDone)
		recv.Run(ctx)
	}()
	return nil
}

// preRefresh is the writer's PreRefresh hook: it appends the cycle's
// ticks from the in-memory feed to the archive and, on a durable
// workload, journals them through the WAL and syncs, as draftsd's
// extendHistories does.
func (e *env) preRefresh() error {
	e.appendDur, e.walDur, e.ticksAdded = 0, 0, 0
	if e.cycle == 0 {
		return nil
	}
	combos := e.feed.advancing(e.cycle, e.wl.rotate)
	began := time.Now()
	for _, c := range combos {
		s := e.feed.cycles[c]
		for i := 0; i < ticksPerCycle; i++ {
			e.hist.Append(c, s.Start, s.Prices[e.have[c]-historyTicks+i])
		}
	}
	appended := time.Now()
	e.appendDur = appended.Sub(began)
	e.rec.add("history.append", e.cycleID, e.cycleSpan, began, appended)
	if e.durable != nil {
		for _, c := range combos {
			s := e.feed.cycles[c]
			for i := 0; i < ticksPerCycle; i++ {
				at := e.have[c] - historyTicks + i
				if err := e.durable.AppendTick(c, s.TimeAt(at), s.Prices[at]); err != nil {
					e.hookErr = fmt.Errorf("journaling tick for %s: %w", c, err)
					return e.hookErr
				}
			}
		}
		if err := e.durable.Sync(); err != nil {
			e.hookErr = fmt.Errorf("syncing tick journal: %w", err)
			return e.hookErr
		}
		synced := time.Now()
		e.walDur = synced.Sub(appended)
		e.rec.add("store.wal_append", e.cycleID, e.cycleSpan, appended, synced)
	}
	for _, c := range combos {
		e.have[c] += ticksPerCycle
	}
	e.ticksAdded = len(combos) * ticksPerCycle
	return nil
}

// scrape reads every instrument of the writer's registry.
func (e *env) scrape() instruments {
	var buf bytes.Buffer
	_ = e.reg.WritePrometheus(&buf)
	return parseInstruments(buf.Bytes())
}

// waitReplica blocks until the replica has installed the writer's
// current epoch and returns when its install hook ran.
func (e *env) waitReplica(timeout time.Duration) (time.Time, error) {
	want := e.writer.CurrentEpoch()
	if want == nil {
		return time.Time{}, errors.New("writer has no epoch")
	}
	deadline := time.Now().Add(timeout)
	for e.installedSeq.Load() != want.Seq() {
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("replica did not install epoch %d within %v", want.Seq(), timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Unix(0, e.installedAt.Load()), nil
}

// stopReplication stops the receiver and the ship server and waits for
// both; the writer keeps serving.
func (e *env) stopReplication() {
	if e.recvCancel != nil {
		e.recvCancel()
		<-e.recvDone
		e.recvCancel = nil
	}
	if e.shipSrv != nil {
		_ = e.shipSrv.Close()
		<-e.shipDone
		e.shipSrv = nil
	}
	if e.shipClient != nil {
		e.shipClient.CloseIdleConnections()
	}
}

// close releases everything the environment holds, removing the durable
// store's directory.
func (e *env) close() {
	e.stopReplication()
	if e.durable != nil {
		_ = e.durable.Close()
		e.durable = nil
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
		e.dir = ""
	}
}
