package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/httpapi"
	"telecast/internal/httpapi/client"
	"telecast/internal/layering"
	"telecast/internal/model"
	"telecast/internal/overlay"
	"telecast/internal/session"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// The rungs of the ladder. Every rung executes the same operation sequence
// through a different entry point: the overlay managers alone, the session
// controller, the ControlPlane.Exec seam, and client.Do over HTTP. The
// end-to-end runs use the top rung of their workload.

// result classifies one executed operation.
type result struct {
	ok       bool // succeeded (a same-region migration is ok and noop)
	noop     bool
	rejected bool // typed admission rejection, or a bounced migration
	err      error
}

func classify(err error) result {
	switch {
	case err == nil:
		return result{ok: true}
	case errors.Is(err, session.ErrRejected):
		return result{rejected: true}
	default:
		return result{err: err}
	}
}

// recovery reports one snapshot-kill-recover cycle of a region.
type recovery struct {
	took           time.Duration
	report         session.RecoveryReport
	exportTook     time.Duration
	stateBytes     int
	viewers        int
	overlayRestore bool
}

type target interface {
	exec(ctx context.Context, c int, o op, id uint64) result
	// warm executes client c's set-up operations, batched where the rung
	// allows.
	warm(ctx context.Context, c int, ops []op) []result
	snapshot(r trace.Region) error
	kill(r trace.Region) error
	recover(ctx context.Context, r trace.Region) (recovery, error)
	// controller is the plant behind the rung, nil on the overlay rung.
	controller() *plant
	close()
}

func unboundedCDN() cdn.Config {
	cfg := cdn.DefaultConfig()
	cfg.OutboundCapacityMbps = 0
	return cfg
}

func newProducers() *model.Session {
	p, err := model.NewSession(model.NewRingSite("A", 8, 2.0, 10), model.NewRingSite("B", 8, 2.0, 10))
	if err != nil {
		panic(err)
	}
	return p
}

// substrate builds the hashed latency substrate; its build time is trace.build_s.
func substrate(nodes int, seed int64) (*trace.LatencyMatrix, time.Duration, error) {
	t0 := time.Now()
	lat, err := trace.GenerateHashedLatencyMatrix(trace.DefaultLatencyConfig(nodes, seed))
	return lat, time.Since(t0), err
}

// plant is a controller with everything the checks need around it: the
// monitor behind SubscriptionPoints, an event subscriber, and for the wire
// rung an in-process HTTP server on loopback with its client.
type plant struct {
	producers *model.Session
	lat       *trace.LatencyMatrix
	ctrl      *session.Controller
	env       checkEnv
	buildLat  time.Duration

	sub  *session.Subscription
	seen events
	done chan struct{}

	srv    *httpapi.Server
	hs     *http.Server
	served chan struct{}
	conns  sync.WaitGroup
	cl     *client.Client
	tr     *http.Transport
	bytes  atomic.Int64
	local  workload.ControlPlane
}

type plantConfig struct {
	nodes     int
	seed      int64
	telemetry bool
	wire      bool
	spans     *spanLog
}

func newPlant(pc plantConfig) (*plant, error) {
	p := &plant{producers: newProducers(), seen: make(events), done: make(chan struct{})}
	var err error
	if p.lat, p.buildLat, err = substrate(pc.nodes, pc.seed); err != nil {
		return nil, err
	}
	cfg := session.DefaultConfig(p.producers, p.lat)
	hier, err := layering.NewHierarchy(cfg.CDN.Delta, cfg.Buff, cfg.DMax, cfg.Kappa)
	if err != nil {
		return nil, err
	}
	p.env = checkEnv{producers: p.producers, inboundMbps: inboundMbps, maxLayer: hier.MaxLayer(), kappa: cfg.Kappa}
	p.ctrl, err = session.NewController(p.producers, p.lat,
		session.WithCDN(unboundedCDN()),
		session.WithTelemetry(pc.telemetry))
	if err != nil {
		return nil, err
	}
	mon, err := session.NewMonitor(p.producers, trace.DefaultTEEVEConfig(pc.seed), time.Minute)
	if err != nil {
		return nil, err
	}
	p.ctrl.AttachMonitor(mon)
	p.sub = p.ctrl.Subscribe()
	go func() {
		defer close(p.done)
		for ev := range p.sub.Events() {
			p.seen[ev.Kind]++
		}
	}()
	p.local = workload.NewLocalPlane(p.ctrl, p.producers, 0)
	if pc.wire {
		if err := p.serve(pc.spans); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

// serve starts the HTTP surface on loopback. The handler is wrapped so the
// traced run records a server-side span per request.
func (p *plant) serve(spans *spanLog) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	p.srv = httpapi.NewServer(p.ctrl, p.producers, 0)
	h := p.srv.Handler()
	if spans != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			if id, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64); err == nil {
				spans.add(id, "httpapi.server", "httpapi.request", t0, time.Now())
			}
		})
	}
	p.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second,
		// close waits for every connection to be closed, so a torn-down
		// plant leaves nothing that holds the controller.
		ConnState: func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				p.conns.Add(1)
			case http.StateClosed, http.StateHijacked:
				p.conns.Done()
			}
		}}
	p.served = make(chan struct{})
	go func() {
		defer close(p.served)
		_ = p.hs.Serve(ln)
	}()
	// Two clients, two keep-alive connections.
	p.tr = &http.Transport{MaxIdleConnsPerHost: numClients, MaxConnsPerHost: numClients}
	p.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: &countingTransport{base: p.tr, bytes: &p.bytes}, Timeout: time.Minute}))
	return nil
}

// countingTransport counts request and response body bytes, and forwards
// the traced operation id to the server.
type countingTransport struct {
	base  *http.Transport
	bytes *atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := opFrom(r.Context()); ok {
		r.Header.Set(opHeader, strconv.FormatUint(id, 10))
	}
	if r.ContentLength > 0 {
		t.bytes.Add(r.ContentLength)
	}
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, bytes: t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	bytes *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.bytes.Add(int64(n))
	return n, err
}

// finishEvents stops the subscriber after every published event was
// delivered and returns its tallies and drop count.
func (p *plant) finishEvents() (events, uint64) {
	p.sub.Flush()
	p.sub.Close()
	<-p.done
	return p.seen, p.sub.Dropped()
}

func (p *plant) close() {
	if p.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		p.srv.Drain()
		_ = p.hs.Shutdown(ctx)
		cancel()
		<-p.served
		p.tr.CloseIdleConnections()
		p.conns.Wait()
		p.hs = nil
	}
	p.sub.Close()
	p.ctrl.Close()
	<-p.done
}

func (p *plant) snapshot(r trace.Region) error { return p.ctrl.SnapshotRegion(r) }
func (p *plant) kill(r trace.Region) error     { return p.ctrl.KillRegion(r) }

func (p *plant) recover(ctx context.Context, r trace.Region) (recovery, error) {
	t0 := time.Now()
	rep, err := p.ctrl.RecoverRegion(ctx, r)
	return recovery{took: time.Since(t0), report: rep}, err
}

// warmBatches executes set-up operations in 256-operation Exec batches.
func warmBatches(ctx context.Context, plane workload.ControlPlane, ops []op) []result {
	out := make([]result, 0, len(ops))
	for start := 0; start < len(ops); start += 256 {
		chunk := ops[start:min(start+256, len(ops))]
		reqs := make([]workload.Request, len(chunk))
		for i, o := range chunk {
			reqs[i] = o.request()
		}
		outs, err := plane.Exec(ctx, reqs)
		for i := range chunk {
			if err != nil {
				out = append(out, result{err: err})
				continue
			}
			out = append(out, outcomeResult(chunk[i].kind, outs[i]))
		}
	}
	return out
}

func outcomeResult(kind workload.EventKind, o workload.Outcome) result {
	r := classify(o.Err)
	if kind == workload.EventMigrate && r.ok && !o.Landed {
		r.noop = true
	}
	return r
}

// sessionRung calls the controller directly. Its spans are named
// "session.<op>", or "telemetry.session.<op>" with telemetry armed.
type sessionRung struct {
	*plant
	spans *spanLog
	name  string
}

func (s *sessionRung) controller() *plant { return s.plant }

func (s *sessionRung) warm(ctx context.Context, _ int, ops []op) []result {
	return warmBatches(ctx, s.local, ops)
}

func (s *sessionRung) exec(ctx context.Context, c int, o op, id uint64) result {
	t0 := time.Now()
	var r result
	switch o.kind {
	case workload.EventJoin:
		_, err := s.ctrl.Admit(ctx, session.JoinRequest{ID: o.id, InboundMbps: inboundMbps, OutboundMbps: o.obw,
			View: model.NewUniformView(s.producers, o.angle), Region: session.InRegion(o.region)})
		r = classify(err)
	case workload.EventLeave:
		r = classify(s.ctrl.Leave(ctx, o.id))
	case workload.EventViewChange:
		_, err := s.ctrl.ChangeView(ctx, o.id, model.NewUniformView(s.producers, o.angle))
		r = classify(err)
	case workload.EventMigrate:
		out, err := s.ctrl.Migrate(ctx, o.id, session.MigrateRequest{To: o.region, Reason: "bench"})
		r = classify(err)
		r.noop = r.ok && out.Result == nil
	}
	s.spans.add(id, s.name+"."+kindName(o.kind), "", t0, time.Now())
	return r
}

// planeRung calls ControlPlane.Exec on the in-process plane.
type planeRung struct {
	*plant
	spans *spanLog
}

func (s *planeRung) controller() *plant { return s.plant }

func (s *planeRung) warm(ctx context.Context, _ int, ops []op) []result {
	return warmBatches(ctx, s.local, ops)
}

func (s *planeRung) exec(ctx context.Context, c int, o op, id uint64) result {
	t0 := time.Now()
	outs, err := s.local.Exec(ctx, []workload.Request{o.request()})
	s.spans.add(id, "workload.exec", "", t0, time.Now())
	if err != nil {
		return result{err: err}
	}
	return outcomeResult(o.kind, outs[0])
}

// wireRung sends one request per operation with client.Do.
type wireRung struct {
	*plant
	spans *spanLog
}

func (s *wireRung) controller() *plant { return s.plant }

func (s *wireRung) warm(ctx context.Context, _ int, ops []op) []result {
	return warmBatches(ctx, s.cl, ops)
}

func (s *wireRung) exec(ctx context.Context, c int, o op, id uint64) result {
	if s.spans != nil {
		ctx = withOp(ctx, id)
	}
	t0 := time.Now()
	out, err := s.cl.Do(ctx, o.request())
	s.spans.add(id, "httpapi.request", "", t0, time.Now())
	if err != nil {
		return classify(err)
	}
	return outcomeResult(o.kind, out)
}

func kindName(k workload.EventKind) string {
	switch k {
	case workload.EventJoin:
		return "join"
	case workload.EventLeave:
		return "leave"
	case workload.EventViewChange:
		return "view_change"
	case workload.EventMigrate:
		return "migrate"
	}
	return "other"
}

// overlayRung drives one overlay.Manager per region directly, built with
// NewManager and a PropFunc over the same substrate. It stands in for the
// session layer's registry and node placement with the least bookkeeping
// that keeps the PropFunc total.
type overlayRung struct {
	producers *model.Session
	lat       *trace.LatencyMatrix
	cdn       *cdn.CDN
	params    overlay.Params
	shards    [numRegions]*regionShard
	spans     *spanLog
	buildLat  time.Duration
}

type regionShard struct {
	mgr  *overlay.Manager
	node map[model.ViewerID]int
	free []int
}

func (s *regionShard) prop(lat *trace.LatencyMatrix) overlay.PropFunc {
	return func(a, b model.ViewerID) time.Duration {
		return lat.Delay(s.node[a], s.node[b])
	}
}

func newOverlayRung(nodes int, seed int64, spans *spanLog) (*overlayRung, error) {
	o := &overlayRung{producers: newProducers(), cdn: cdn.New(unboundedCDN()), spans: spans}
	var err error
	if o.lat, o.buildLat, err = substrate(nodes, seed); err != nil {
		return nil, err
	}
	cfg := session.DefaultConfig(o.producers, o.lat)
	hier, err := layering.NewHierarchy(cfg.CDN.Delta, cfg.Buff, cfg.DMax, cfg.Kappa)
	if err != nil {
		return nil, err
	}
	o.params = overlay.Params{Hierarchy: hier, Proc: cfg.Proc, CutoffDF: cfg.CutoffDF}
	for r := range o.shards {
		o.shards[r] = &regionShard{node: make(map[model.ViewerID]int)}
	}
	// Node 0 hosts the GSC and nodes 1..regions the LSCs, as in the session.
	for i := o.lat.Nodes() - 1; i > numRegions; i-- {
		r := o.lat.RegionOf(i)
		o.shards[r].free = append(o.shards[r].free, i)
	}
	for _, s := range o.shards {
		if s.mgr, err = overlay.NewManager(o.producers, o.cdn, s.prop(o.lat), o.params); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (o *overlayRung) controller() *plant { return nil }
func (o *overlayRung) close()             {}

func (o *overlayRung) place(s *regionShard, id model.ViewerID) error {
	if len(s.free) == 0 {
		return session.ErrMatrixExhausted
	}
	s.node[id] = s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return nil
}

func (o *overlayRung) unplace(s *regionShard, id model.ViewerID) {
	s.free = append(s.free, s.node[id])
	delete(s.node, id)
}

// home finds the region holding a viewer; a client's viewers live only in
// the client's regions.
func (o *overlayRung) home(c int, id model.ViewerID) *regionShard {
	for l := 0; l < regionsPerClient; l++ {
		if s := o.shards[clientRegion(c, l)]; s.node[id] != 0 {
			return s
		}
	}
	return nil
}

func (o *overlayRung) warm(ctx context.Context, c int, ops []op) []result {
	out := make([]result, len(ops))
	for i, op := range ops {
		out[i] = o.run(c, op, 0, false)
	}
	return out
}

func (o *overlayRung) exec(ctx context.Context, c int, op op, id uint64) result {
	return o.run(c, op, id, true)
}

func admitted(res *overlay.JoinResult, err error) result {
	switch {
	case err != nil:
		return result{err: err}
	case !res.Admitted:
		return result{rejected: true}
	}
	return result{ok: true}
}

func (o *overlayRung) run(c int, op op, id uint64, traced bool) result {
	t0 := time.Now()
	var r result
	switch op.kind {
	case workload.EventJoin:
		s := o.shards[op.region]
		if err := o.place(s, op.id); err != nil {
			return result{err: err}
		}
		r = admitted(s.mgr.Join(overlay.ViewerInfo{ID: op.id, InboundMbps: inboundMbps, OutboundMbps: op.obw},
			model.NewUniformView(o.producers, op.angle)))
	case workload.EventLeave:
		s := o.home(c, op.id)
		if s == nil {
			return result{err: fmt.Errorf("overlay leave %s: %w", op.id, session.ErrUnknownViewer)}
		}
		if err := s.mgr.Leave(op.id); err != nil {
			return result{err: err}
		}
		o.unplace(s, op.id)
		r = result{ok: true}
	case workload.EventViewChange:
		s := o.home(c, op.id)
		if s == nil {
			return result{err: fmt.Errorf("overlay view change %s: %w", op.id, session.ErrUnknownViewer)}
		}
		r = admitted(s.mgr.ChangeView(op.id, model.NewUniformView(o.producers, op.angle)))
	case workload.EventMigrate:
		r = o.migrate(c, op, id, traced)
	}
	if traced {
		o.spans.add(id, "overlay."+kindName(op.kind), "", t0, time.Now())
	}
	return r
}

// migrate is the overlay half of the handoff: Extract on the source,
// AdmitMigrant on the destination, restore on the source when refused.
func (o *overlayRung) migrate(c int, op op, id uint64, traced bool) result {
	src, dst := o.home(c, op.id), o.shards[op.region]
	if src == nil {
		return result{err: fmt.Errorf("overlay migrate %s: %w", op.id, session.ErrUnknownViewer)}
	}
	if src == dst {
		return result{ok: true, noop: true}
	}
	t0 := time.Now()
	st, err := src.mgr.Extract(op.id)
	t1 := time.Now()
	if err != nil {
		return result{err: err}
	}
	if err := o.place(dst, op.id); err != nil {
		return result{err: err}
	}
	res, err := dst.mgr.AdmitMigrant(st, false)
	t2 := time.Now()
	if traced {
		o.spans.add(id, "overlay.extract", "overlay.migrate", t0, t1)
		o.spans.add(id, "overlay.admit_migrant", "overlay.migrate", t1, t2)
	}
	if err != nil {
		return result{err: err}
	}
	if !res.Admitted {
		o.unplace(dst, op.id)
		if _, err := src.mgr.AdmitMigrant(st, true); err != nil {
			return result{err: err}
		}
		return result{rejected: true}
	}
	o.unplace(src, op.id)
	return result{ok: true}
}

func (o *overlayRung) snapshot(trace.Region) error { return nil }
func (o *overlayRung) kill(trace.Region) error     { return nil }

// recover is the overlay's share of a shard recovery: ExportState, the JSON
// image, and RestoreManager into a fresh manager after the old one's CDN
// egress is released.
func (o *overlayRung) recover(ctx context.Context, r trace.Region) (recovery, error) {
	s := o.shards[r]
	t0 := time.Now()
	st := s.mgr.ExportState()
	export := time.Since(t0)
	data, err := st.Encode()
	if err != nil {
		return recovery{}, err
	}
	img, err := overlay.DecodeShardState(data)
	if err != nil {
		return recovery{}, err
	}
	for id, mbps := range s.mgr.CDNImplied() {
		if err := o.cdn.Release(id, mbps); err != nil {
			return recovery{}, err
		}
	}
	rc := recovery{exportTook: export, stateBytes: len(data), viewers: len(s.node), overlayRestore: true}
	t1 := time.Now()
	mgr, err := overlay.RestoreManager(o.producers, o.cdn, s.prop(o.lat), o.params, img)
	rc.took = time.Since(t1)
	if err != nil {
		// The session's degraded path: re-admit every viewer of the image.
		rc.report.Degraded = true
		if mgr, err = overlay.NewManager(o.producers, o.cdn, s.prop(o.lat), o.params); err != nil {
			return rc, err
		}
		for i := range img.Viewers {
			vs := &img.Viewers[i]
			info := overlay.ViewerInfo{ID: vs.ID, InboundMbps: vs.InboundMbps, OutboundMbps: vs.OutboundMbps}
			if _, err := mgr.Join(info, vs.ModelView()); err != nil {
				return rc, err
			}
		}
	}
	s.mgr = mgr
	return rc, nil
}
