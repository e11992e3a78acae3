package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"telecast/internal/model"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

const (
	wlChurn     = "churn"
	wlChurnWire = "churn-wire"
	wlHandoff   = "handoff-recovery"

	// stallBar is the latency past which an operation counts as stalled;
	// snapshots and recoveries count past recoveryStallBar, ten times a
	// normal recovery of handoff-recovery's 1k-viewer shards (~90 ms), so
	// that only the κ stall reaches it.
	stallBar         = 250 * time.Millisecond
	recoveryStallBar = time.Second
	// window is the operation count of one ops_per_s window; its rate is
	// window over the wall time from its first call's start to its last
	// call's end. At 2–5 ms a window is short enough that most windows miss
	// the host's interruptions: with 256-operation windows the median rate
	// read 19k–29k ops/s on churn as the shared host's load changed, where
	// per-call latencies held.
	window = 32
	// meetEvery is how many operations the clients run between meetings.
	meetEvery = 256
	// sweepPasses is how often the churn workloads' closing recovery sweep
	// visits each region.
	sweepPasses = 3
	// churnWarm is the warm horizon of the churn inputs: four catalog days,
	// eight mean mobility sessions, so the measured operations start at a
	// nightly trough of a settled audience.
	churnWarm = 4 * catalogDay
	// overrun caps an episode's wall time at this multiple of its share of
	// --seconds, should the program become far slower than its pace: five
	// capped episodes still end within 180 s.
	overrun = 15
)

var workloads = []string{wlChurn, wlChurnWire, wlHandoff}

// config sizes one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	// audience sizes a client's inputs: the catalog arrivals per day on
	// the churn workloads, the live audience the set-up places on
	// handoff-recovery. roundOps is the operations per client between two
	// recoveries, 0 for a closing recovery sweep instead.
	audience, roundOps int
	// setups is the number of episodes; each sets up afresh and measures
	// its share of seconds.
	setups int
	// pace is the operations per client and second of --seconds: an
	// episode measures a fixed count of operations per client, so every
	// run of a seed measures the same trajectory whatever the κ stall
	// costs. It is set so that a run takes about --seconds on a 2-vCPU
	// host.
	pace float64
}

func newConfig(wl string, seed int64, seconds float64, quick bool) (config, error) {
	cfg := config{workload: wl, seed: seed, seconds: seconds, setups: 5}
	switch wl {
	case wlChurn:
		cfg.audience, cfg.pace = catalogAudience/numClients, 5000
	case wlChurnWire:
		cfg.audience, cfg.pace = catalogAudience/numClients, 3000
	case wlHandoff:
		// 4k live viewers per client, 1k per shard, the shard size of
		// session.BenchmarkRecovery's smaller case.
		cfg.audience, cfg.roundOps, cfg.pace = 4000, 1024, 2000
	default:
		return cfg, fmt.Errorf("unknown workload %q (want one of %v)", wl, workloads)
	}
	if quick {
		cfg.setups = 1
		if wl == wlHandoff {
			cfg.audience, cfg.roundOps = cfg.audience/20, cfg.roundOps/8
		}
	}
	return cfg, nil
}

// opsFor is the operation count per client that measures d at the
// workload's pace, in whole rounds where the workload has rounds.
func (c config) opsFor(d time.Duration) int {
	n := max(1, int(c.pace*d.Seconds()))
	if c.roundOps > 0 {
		n = max(1, (n+c.roundOps/2)/c.roundOps) * c.roundOps
	}
	return n
}

// nodes sizes the latency substrate: ample free nodes in every region so
// placement and migration never exhaust it.
func (c config) nodes() int { return 8*numClients*c.audience + 1024 }

// entry is the benchmark's ledger record of one live viewer.
type entry struct {
	region   trace.Region
	rejected bool
}

// clientRec is everything one client observed during one phase.
type clientRec struct {
	lat       map[workload.EventKind][]time.Duration
	windows   []float64
	recov     []time.Duration
	snaps     []time.Duration
	t         tally
	attempted int
	failed    int
	errs      []error
	ledger    map[model.ViewerID]entry

	// stalls and stallTime count every stalled call: operations, snapshots
	// and recoveries, measured or not. stallAt lists the stalled
	// operations' positions in the client's sequence.
	stalls    int
	stallTime time.Duration
	stallAt   []int
	captured  viewerStats
	cdnMbps   float64
	kappa     int

	warm                          int
	replayed, degraded, evacuated int
	mismatched, layerDrift        int
	exports, restores             []time.Duration
	stateBytesPerViewer           []float64
	ops                           int
}

func newClientRec() *clientRec {
	return &clientRec{lat: make(map[workload.EventKind][]time.Duration), ledger: make(map[model.ViewerID]entry)}
}

func (r *clientRec) fail(err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err)
	}
}

// noteStall counts a call that took d if it stalled; at is the operation's
// position, 0 for a snapshot or recovery.
func (r *clientRec) noteStall(d time.Duration, at int) {
	bar := stallBar
	if at == 0 {
		bar = recoveryStallBar
	}
	if d <= bar {
		return
	}
	r.stalls++
	r.stallTime += d
	if at > 0 {
		r.stallAt = append(r.stallAt, at)
	}
}

// apply folds one outcome into the ledger and the tallies.
func (r *clientRec) apply(o op, res result, s *stream) {
	r.attempted++
	if res.err != nil {
		r.fail(fmt.Errorf("%s %s: %w", kindName(o.kind), o.id, res.err))
		return
	}
	switch o.kind {
	case workload.EventJoin:
		r.ledger[o.id] = entry{region: o.region, rejected: res.rejected}
		if res.rejected {
			r.t.joinsRejected++
		} else {
			r.t.joinsAccepted++
		}
	case workload.EventLeave:
		delete(r.ledger, o.id)
		r.t.leaves++
	case workload.EventViewChange:
		e := r.ledger[o.id]
		e.rejected = res.rejected
		r.ledger[o.id] = e
		r.t.viewChanges++
		if res.rejected {
			r.t.viewChangesRej++
		}
	case workload.EventMigrate:
		switch {
		case res.noop:
		case res.rejected:
			// Bounced: restored on its source, where the stream must
			// keep believing it is.
			r.t.migrationsRe++
			s.where[o.id] = r.ledger[o.id].region
		default:
			e := r.ledger[o.id]
			e.region = o.region
			r.ledger[o.id] = e
			r.t.migrationsLanded++
		}
	}
}

// phase runs one target: warm-up, the closed loop, and the checks.
type phase struct {
	cfg     config
	tgt     target
	streams [numClients]*stream
	recs    [numClients]*clientRec
	rung    uint64
	mu      sync.Mutex // guards checks
	checks  []error
	// quiet skips the per-round captures and checks and the churn
	// workloads' recovery sweep; the memory passes set it.
	quiet bool
	rv    *rendezvous
	// serial keeps the clients' snapshots and recoveries apart, so each
	// runs alone whether the host gives the run one vCPU or two.
	serial sync.Mutex
}

func newPhase(cfg config, tgt target, rung uint64) *phase {
	ph := &phase{cfg: cfg, tgt: tgt, rung: rung}
	for c := range ph.streams {
		ph.streams[c] = newStream(cfg.workload, cfg.seed, c, cfg.audience)
		ph.recs[c] = newClientRec()
	}
	return ph
}

// parallel runs f once per client, concurrently, and waits.
func parallel(f func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// warm places the warm audience (see stream.warmAudience), one client after
// the other: set-up then takes the same time however many vCPUs the host
// gives the run at that moment.
func (ph *phase) warm(ctx context.Context) {
	for c := range ph.streams {
		s, rec := ph.streams[c], ph.recs[c]
		ops := s.warmAudience(ph.cfg.audience, churnWarm)
		for i, res := range ph.tgt.warm(ctx, c, ops) {
			rec.apply(ops[i], res, s)
		}
		rec.warm = len(rec.ledger)
	}
}

// measure runs both clients' closed loops, n operations each, and stops
// them early if the episode overruns overrun×d.
func (ph *phase) measure(ctx context.Context, n int, d time.Duration) {
	ph.rv = newRendezvous(time.Now().Add(overrun * d))
	parallel(func(c int) { ph.client(ctx, c, n) })
}

// client is one closed-loop client on its own regions, running n
// operations. With rounds (handoff-recovery) every roundOps operations are
// framed by a snapshot of one region at the start and its kill and recovery
// at the end. Without (the churn workloads) the operations run uninterrupted
// and a recovery sweep follows: every region of the client, sweepPasses
// times, snapshot, kill and recover with an empty journal.
//
// The clients meet every meetEvery operations and after each round's
// operations, and snapshots and recoveries run one at a time. So no
// operation runs beside the other client's snapshot, recovery or sweep, and
// a stalled call, which holds one of the host's two vCPUs, holds the other
// client at the next meeting instead of slowing its operations for seconds.
func (ph *phase) client(ctx context.Context, c, n int) {
	s, rec := ph.streams[c], ph.recs[c]
	rounds := ph.cfg.roundOps > 0
	for round := 0; !ph.rv.meet(rec.ops >= n); round++ {
		reg := clientRegion(c, round%regionsPerClient)
		if rounds {
			ph.snapshot(c, reg)
		}
		var w0 time.Time
		for k := 0; rec.ops < n && (!rounds || k < ph.cfg.roundOps); k++ {
			if k%meetEvery == 0 && ph.rv.meet(false) {
				break
			}
			o := s.next()
			rec.ops++
			id := ph.rung<<56 | uint64(c)<<48 | uint64(rec.ops)
			t0 := time.Now()
			res := ph.tgt.exec(ctx, c, o, id)
			t1 := time.Now()
			rec.apply(o, res, s)
			d := t1.Sub(t0)
			rec.lat[o.kind] = append(rec.lat[o.kind], d)
			rec.noteStall(d, rec.ops)
			switch k % window {
			case 0:
				w0 = t0
			case window - 1:
				rec.windows = append(rec.windows, window/t1.Sub(w0).Seconds())
			}
		}
		ph.rv.meet(false)
		if rounds {
			ph.cycle(ctx, c, reg)
		}
	}
	if !rounds && !ph.quiet {
		for i := 0; i < sweepPasses*regionsPerClient; i++ {
			reg := clientRegion(c, i%regionsPerClient)
			ph.snapshot(c, reg)
			ph.cycle(ctx, c, reg)
		}
	}
}

// rendezvous is where the clients meet. The last to arrive decides for all
// whether to stop: once a client is done or the episode is past its
// deadline. The clients run equal counts in equal rounds and stop together,
// so they meet equally often.
type rendezvous struct {
	deadline time.Time
	mu       sync.Mutex
	cond     *sync.Cond
	waiting  int
	gen      int
	done     bool
	stop     bool
}

func newRendezvous(deadline time.Time) *rendezvous {
	r := &rendezvous{deadline: deadline}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *rendezvous) late() bool { return time.Now().After(r.deadline) }

// meet waits for every client and reports whether to stop.
func (r *rendezvous) meet(done bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done = r.done || done
	if r.waiting++; r.waiting == numClients {
		r.waiting, r.stop = 0, r.done || r.late()
		r.gen++
		r.cond.Broadcast()
		return r.stop
	}
	for gen := r.gen; gen == r.gen; {
		r.cond.Wait()
	}
	return r.stop
}

// snapshot arms a region's recovery point.
func (ph *phase) snapshot(c int, reg trace.Region) {
	ph.serial.Lock()
	defer ph.serial.Unlock()
	rec := ph.recs[c]
	rec.attempted++
	t0 := time.Now()
	err := ph.tgt.snapshot(reg)
	d := time.Since(t0)
	rec.noteStall(d, 0)
	if err != nil {
		rec.fail(fmt.Errorf("snapshot region %d: %w", reg, err))
	} else if ph.tgt.controller() != nil {
		rec.snaps = append(rec.snaps, d)
	}
}

// idsIn lists the client's ledger viewers in region r.
func (r *clientRec) idsIn(reg trace.Region) ([]model.ViewerID, map[model.ViewerID]bool) {
	var ids []model.ViewerID
	rejected := make(map[model.ViewerID]bool)
	for id, e := range r.ledger {
		if e.region == reg {
			ids = append(ids, id)
			if e.rejected {
				rejected[id] = true
			}
		}
	}
	return ids, rejected
}

// capture reads every listed viewer's served state through
// SubscriptionPoints; a viewer it cannot read is an error.
func (p *plant) capture(ids []model.ViewerID) (capture, []error) {
	c := make(capture, len(ids))
	var errs []error
	for _, id := range ids {
		sp, err := p.ctrl.SubscriptionPoints(id)
		if err != nil {
			errs = append(errs, fmt.Errorf("viewer %s not routed: %w", id, err))
			continue
		}
		pts := make([]point, len(sp))
		for i, x := range sp {
			pts[i] = point{stream: x.Stream, layer: x.Layer, parent: x.Parent}
		}
		c[id] = pts
	}
	return c, errs
}

// cycle ends a round: capture and check the region, kill it, recover it,
// and check that the recovery kept every viewer.
func (ph *phase) cycle(ctx context.Context, c int, reg trace.Region) {
	ph.serial.Lock()
	defer ph.serial.Unlock()
	rec := ph.recs[c]
	p := ph.tgt.controller()
	var ids []model.ViewerID
	var before capture
	checked := p != nil && !ph.quiet
	if checked {
		var rejected map[model.ViewerID]bool
		ids, rejected = rec.idsIn(reg)
		var errs []error
		before, errs = p.capture(ids)
		st, cerrs := checkCapture(p.env, before, rejected)
		errs = append(errs, cerrs...)
		rec.addCapture(st)
		lsc := p.ctrl.LSCs()[reg]
		errs = append(errs, checkCDN(fmt.Sprintf("region %d", reg), st.cdnMbps, lsc.CDNImplied())...)
		errs = append(errs, checkLedger(fmt.Sprintf("region %d", reg), len(ids), lsc.QuickSnapshot().Viewers)...)
		ph.noteChecks(errs)
	}
	rec.attempted++
	if err := ph.tgt.kill(reg); err != nil {
		rec.fail(fmt.Errorf("kill region %d: %w", reg, err))
		return
	}
	rc, err := ph.tgt.recover(ctx, reg)
	rec.noteStall(rc.took, 0)
	if err != nil {
		rec.fail(fmt.Errorf("recover region %d: %w", reg, err))
		return
	}
	if rc.report.Degraded {
		rec.degraded++
	}
	if rc.overlayRestore {
		rec.exports = append(rec.exports, rc.exportTook)
		rec.restores = append(rec.restores, rc.took)
		if rc.viewers > 0 {
			rec.stateBytesPerViewer = append(rec.stateBytesPerViewer, float64(rc.stateBytes)/float64(rc.viewers))
		}
		return
	}
	rep := rc.report
	rec.recov = append(rec.recov, rc.took)
	rec.replayed += rep.Replayed
	rec.evacuated += rep.Evacuated
	rec.t.evacuated += uint64(rep.Evacuated)
	rec.t.evacuationsLanded += uint64(rep.EvacuationsLanded)
	if !checked {
		return
	}
	// Every viewer of the region must still be routed. Where the report
	// calls the recovery exact, the served state is compared with the
	// capture before the kill; differences are counted, not gated (see
	// README, "Named faults").
	after, errs := p.capture(ids)
	if !rep.Degraded && rep.ReplayDiverged == 0 && rep.Evacuated == 0 {
		for _, id := range ids {
			a, ok := after[id]
			if !ok {
				continue
			}
			switch streams, layers := sameServed(before[id], a); {
			case !streams:
				rec.mismatched++
			case !layers:
				rec.layerDrift++
			}
		}
	}
	ph.noteChecks(errs)
}

func (r *clientRec) addCapture(st viewerStats) {
	r.captured.admitted += st.admitted
	r.captured.streams += st.streams
	r.kappa += st.kappaViolations
	r.cdnMbps += st.cdnTotal()
}

func (ph *phase) noteChecks(errs []error) {
	if len(errs) == 0 {
		return
	}
	ph.mu.Lock()
	ph.checks = append(ph.checks, errs...)
	ph.mu.Unlock()
}

// final runs the whole-system checks once both clients stopped: every
// viewer's served state, the CDN recount, the ledger, the event stream and,
// over the wire, the server's totals.
func (ph *phase) final(ctx context.Context) {
	p := ph.tgt.controller()
	if p == nil {
		return
	}
	var errs []error
	recount, ledger := 0.0, 0
	var t tally
	for c, rec := range ph.recs {
		ledger += len(rec.ledger)
		t.add(rec.t)
		for l := 0; l < regionsPerClient; l++ {
			ids, rejected := rec.idsIn(clientRegion(c, l))
			cp, cerrs := p.capture(ids)
			st, verrs := checkCapture(p.env, cp, rejected)
			errs = append(errs, cerrs...)
			errs = append(errs, verrs...)
			recount += st.cdnTotal()
		}
	}
	errs = append(errs, checkCDNTotal(recount, p.ctrl.CDN().Snapshot().OutTotalMbps)...)
	errs = append(errs, checkLedger("all regions", ledger, p.ctrl.SampleStats().Overlay.Viewers)...)
	if p.cl != nil {
		m, err := p.cl.Metrics(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("metricz: %w", err))
		} else {
			errs = append(errs, checkServerTotals(t, m.Totals)...)
		}
	}
	seen, dropped := p.finishEvents()
	errs = append(errs, checkEvents(t.expectedEvents(p.ctrl.AdaptationDrops()), seen, dropped)...)
	ph.noteChecks(errs)
}

func (ph *phase) sum(f func(r *clientRec) int) int {
	n := 0
	for _, rec := range ph.recs {
		n += f(rec)
	}
	return n
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// outcome is a run's contract result.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	// problems are the first failures and check violations, for stderr.
	problems []error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) absorb(ph *phase) {
	for _, rec := range ph.recs {
		o.attempted += rec.attempted
		o.failed += rec.failed
		o.problems = append(o.problems, rec.errs...)
	}
	if len(ph.checks) > 0 {
		o.correct = false
		o.problems = append(o.problems, ph.checks...)
	}
}

// runE2E is the untraced run: episodes of set-up and measurement on the
// workload's top rung, every check on. Each episode sets up from scratch and
// measures its share of seconds; the metrics pool the episodes.
func runE2E(ctx context.Context, cfg config) (outcome, error) {
	out := outcome{correct: true, metrics: make(map[string]metric)}
	var setups []float64
	var phases []*phase
	per := time.Duration(cfg.seconds / float64(cfg.setups) * float64(time.Second))
	n := cfg.opsFor(per)
	var baseline runtime.MemStats
	for i := 0; i < cfg.setups; i++ {
		// Every set-up starts from a collected heap; on the last the
		// heap is read again once the empty controller stands, outside
		// the set-up's time.
		runtime.GC()
		t0 := time.Now()
		tgt, err := topRung(cfg, nil)
		if err != nil {
			return out, err
		}
		ph := newPhase(cfg, tgt, 0)
		built := time.Since(t0)
		if i == cfg.setups-1 {
			runtime.GC()
			runtime.ReadMemStats(&baseline)
		}
		t1 := time.Now()
		ph.warm(ctx)
		setups = append(setups, (built + time.Since(t1)).Seconds())
		ph.measure(ctx, n, per)
		ph.final(ctx)
		out.absorb(ph)
		ph.summary()
		phases = append(phases, ph)
		if i < cfg.setups-1 {
			tgt.close()
		}
	}
	last := phases[len(phases)-1]

	put := func(name, unit string, v float64) { out.metrics[name] = metric{Value: v, Unit: unit} }
	recs := pooled(phases)
	put("setup_s", "s", median(setups))
	put("ops_per_s", "ops/s", opsPerSec(phases))
	for _, k := range []workload.EventKind{workload.EventJoin, workload.EventLeave, workload.EventViewChange, workload.EventMigrate} {
		l := durations(recs, func(r *clientRec) []time.Duration { return r.lat[k] })
		put(kindName(k)+"_p50_us", "us", us(quantile(l, 0.5)))
		put(kindName(k)+"_p90_us", "us", us(quantile(l, 0.90)))
	}
	put("recovery_ms", "ms", ms(quantile(durations(recs, func(r *clientRec) []time.Duration { return r.recov }), 0.5)))
	put("snapshot_ms", "ms", ms(quantile(durations(recs, func(r *clientRec) []time.Duration { return r.snaps }), 0.5)))
	admitted, streams, cdn := 0, 0, 0.0
	for _, rec := range recs {
		admitted += rec.captured.admitted
		streams += rec.captured.streams
		cdn += rec.cdnMbps
	}
	put("cdn_mbps_per_viewer", "Mbps", cdn/float64(max(1, admitted)))
	put("streams_per_viewer", "count", float64(streams)/float64(max(1, admitted)))

	// Live heap per viewer of the last episode: the heap at its end, less
	// the heap with its empty controller, after dropping the episode's own
	// benchmark state (ledger, samples, streams).
	viewers := last.sum(func(r *clientRec) int { return len(r.ledger) })
	last.streams = [numClients]*stream{}
	last.recs = [numClients]*clientRec{}
	recs = nil
	var with runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(phases)
	last.tgt.close()
	put("heap_bytes_per_viewer", "B", float64(int64(with.HeapAlloc)-int64(baseline.HeapAlloc))/float64(max(1, viewers)))
	return out, nil
}

// pooled lists every client record of the phases.
func pooled(phases []*phase) []*clientRec {
	var recs []*clientRec
	for _, ph := range phases {
		recs = append(recs, ph.recs[:]...)
	}
	return recs
}

// opsPerSec takes each client's median window rate over the phases and adds
// the clients. A window's rate is its operations over its wall time, the
// closed loop's own work between calls included; the median keeps a stall
// to the windows it falls in.
func opsPerSec(phases []*phase) float64 {
	total := 0.0
	for c := 0; c < numClients; c++ {
		var w []float64
		for _, ph := range phases {
			w = append(w, ph.recs[c].windows...)
		}
		total += median(w)
	}
	return total
}

// durations pools one kind of sample over client records, sorted.
func durations(recs []*clientRec, f func(r *clientRec) []time.Duration) []time.Duration {
	var all []time.Duration
	for _, rec := range recs {
		all = append(all, f(rec)...)
	}
	sortDurations(all)
	return all
}

// topRung builds the rung a workload's end-to-end run measures: the
// in-process ControlPlane for churn and handoff-recovery, client.Do over
// loopback HTTP with telemetry armed for churn-wire.
func topRung(cfg config, spans *spanLog) (target, error) {
	wire := cfg.workload == wlChurnWire
	p, err := newPlant(plantConfig{nodes: cfg.nodes(), seed: cfg.seed, telemetry: wire, wire: wire, spans: spans})
	if err != nil {
		return nil, err
	}
	if wire {
		return &wireRung{plant: p, spans: spans}, nil
	}
	return &planeRung{plant: p, spans: spans}, nil
}

// summary prints what the run met besides its metrics to stderr: per client
// the warm audience, the operations by kind, recoveries, stalls and the
// named-fault counts.
func (ph *phase) summary() {
	for c, r := range ph.recs {
		fmt.Fprintf(os.Stderr, "perfbench: client %d: warm=%d ops=%d (join %d leave %d view %d migrate %d) stalls=%d at=%v stall_s=%.2f recoveries=%d degraded=%d replayed=%d mismatched=%d layer_drift=%d kappa_violations=%d failed=%d\n",
			c, r.warm, r.ops, len(r.lat[workload.EventJoin]), len(r.lat[workload.EventLeave]), len(r.lat[workload.EventViewChange]), len(r.lat[workload.EventMigrate]),
			r.stalls, r.stallAt, r.stallTime.Seconds(), len(r.recov), r.degraded, r.replayed, r.mismatched, r.layerDrift, r.kappa, r.failed)
	}
}
