package main

import (
	"context"
	"runtime"
	"strings"
	"time"

	"telecast/internal/trace"
)

// The traced run: the workload's operations replayed up the ladder of
// rungs, each on fresh state from the same seed, with spans around every
// call. Self times come from nesting where spans nest (client.Do around the
// server handler, the overlay migration around Extract and AdmitMigrant) and
// from differences between rungs where they do not.

// rung builds one step of the ladder.
type rung struct {
	name  string
	build func() (target, error)
}

func ladder(cfg config, spans *spanLog) []rung {
	plantRung := func(telemetry, wire bool, wrap func(p *plant) target) func() (target, error) {
		return func() (target, error) {
			p, err := newPlant(plantConfig{nodes: cfg.nodes(), seed: cfg.seed, telemetry: telemetry, wire: wire, spans: spans})
			if err != nil {
				return nil, err
			}
			return wrap(p), nil
		}
	}
	return []rung{
		{"overlay", func() (target, error) { return newOverlayRung(cfg.nodes(), cfg.seed, spans) }},
		{"session", plantRung(false, false, func(p *plant) target { return &sessionRung{plant: p, spans: spans, name: "session"} })},
		{"telemetry", plantRung(true, false, func(p *plant) target { return &sessionRung{plant: p, spans: spans, name: "telemetry.session"} })},
		{"workload", plantRung(false, false, func(p *plant) target { return &planeRung{plant: p, spans: spans} })},
		// The wire rung runs as churn-wire does: telemetry armed.
		{"httpapi", plantRung(true, true, func(p *plant) target { return &wireRung{plant: p, spans: spans} })},
	}
}

// rungStats is what a rung leaves behind besides its spans.
type rungStats struct {
	ph        *phase
	buildLat  time.Duration
	ops       int
	cdnEgress float64
	cdnPeak   float64
	p2pShare  float64
	drops     uint64
	wireBytes int64
}

func runTraced(ctx context.Context, cfg config, spanPath string) (outcome, error) {
	out := outcome{correct: true, metrics: make(map[string]metric)}
	spans := newSpanLog()
	per := time.Duration(max(1, cfg.seconds/5) * float64(time.Second))
	n := cfg.opsFor(per)
	stats := make(map[string]*rungStats)
	for i, r := range ladder(cfg, spans) {
		tgt, err := r.build()
		if err != nil {
			return out, err
		}
		ph := newPhase(cfg, tgt, uint64(i+1))
		ph.warm(ctx)
		st := &rungStats{ph: ph}
		p := tgt.controller()
		if p != nil {
			st.buildLat = p.buildLat
			p.bytes.Store(0)
		} else {
			st.buildLat = tgt.(*overlayRung).buildLat
		}
		ph.measure(ctx, n, per)
		st.ops = ph.sum(func(r *clientRec) int { return r.ops })
		if p != nil {
			u := p.ctrl.CDN().Snapshot()
			st.cdnEgress, st.cdnPeak = u.OutTotalMbps, u.PeakOutMbps
			ov := p.ctrl.SampleStats().Overlay
			if ov.LiveStreams > 0 {
				st.p2pShare = float64(ov.ViaP2P) / float64(ov.LiveStreams)
			}
			st.drops = p.ctrl.AdaptationDrops()
			st.wireBytes = p.bytes.Load()
		}
		ph.final(ctx)
		out.absorb(ph)
		tgt.close()
		stats[r.name] = st
	}
	layerMetrics(spans, stats, out.metrics)
	if err := runtimeMetrics(ctx, cfg, n, per, &out); err != nil {
		return out, err
	}
	if spanPath != "" {
		if err := spans.write(spanPath); err != nil {
			return out, err
		}
	}
	return out, nil
}

// p50 of a span name's durations, or of every span under a name prefix.
func spanP(spans *spanLog, name string, q float64) time.Duration {
	return quantile(spans.durations(name), q)
}

func prefixP50(spans *spanLog, prefix string) time.Duration {
	var names []string
	seen := make(map[string]bool)
	for _, s := range spans.spans {
		if strings.HasPrefix(s.name, prefix) && s.parent == "" && !seen[s.name] {
			seen[s.name] = true
			names = append(names, s.name)
		}
	}
	var all []time.Duration
	for _, n := range names {
		all = append(all, spans.durations(n)...)
	}
	sortDurations(all)
	return quantile(all, 0.5)
}

func layerMetrics(spans *spanLog, stats map[string]*rungStats, m map[string]metric) {
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	ov, ss := stats["overlay"], stats["session"]
	for _, k := range []string{"join", "leave", "view_change"} {
		put("overlay."+k+"_us.p50", "us", us(spanP(spans, "overlay."+k, 0.5)))
		put("overlay."+k+"_us.p99", "us", us(spanP(spans, "overlay."+k, 0.99)))
	}
	put("overlay.extract_us.p50", "us", us(spanP(spans, "overlay.extract", 0.5)))
	put("overlay.admit_migrant_us.p50", "us", us(spanP(spans, "overlay.admit_migrant", 0.5)))
	put("overlay.export_ms", "ms", ms(quantile(durations(ov.ph.recs[:], func(r *clientRec) []time.Duration { return r.exports }), 0.5)))
	put("overlay.restore_ms", "ms", ms(quantile(durations(ov.ph.recs[:], func(r *clientRec) []time.Duration { return r.restores }), 0.5)))
	var perViewer []float64
	for _, rec := range ov.ph.recs {
		perViewer = append(perViewer, rec.stateBytesPerViewer...)
	}
	put("overlay.state_bytes_per_viewer", "B", median(perViewer))
	put("overlay.p2p_share", "ratio", ss.p2pShare)
	put("overlay.adaptation_drops", "count", float64(ss.drops))
	put("overlay.stalled_ops", "count", float64(ov.ph.sum(func(r *clientRec) int { return r.stalls })))
	stall := time.Duration(0)
	for _, rec := range ov.ph.recs {
		stall += rec.stallTime
	}
	put("overlay.stall_s", "s", stall.Seconds())
	put("overlay.kappa_violations", "count", float64(ss.ph.sum(func(r *clientRec) int { return r.kappa })))
	put("overlay.degraded_restores", "count", float64(ov.ph.sum(func(r *clientRec) int { return r.degraded })))

	put("cdn.egress_mbps", "Mbps", ss.cdnEgress)
	put("cdn.peak_mbps", "Mbps", ss.cdnPeak)

	for _, k := range []string{"join", "leave", "view_change", "migrate"} {
		sp := spanP(spans, "session."+k, 0.5)
		put("session."+k+"_us.p50", "us", us(sp))
		put("session."+k+"_us.p99", "us", us(spanP(spans, "session."+k, 0.99)))
		put("session.self_us."+k, "us", us(sp-spanP(spans, "overlay."+k, 0.5)))
	}
	put("session.replayed_entries", "count", float64(ss.ph.sum(func(r *clientRec) int { return r.replayed })))
	put("session.degraded_recoveries", "count", float64(ss.ph.sum(func(r *clientRec) int { return r.degraded })))
	put("session.evacuated", "count", float64(ss.ph.sum(func(r *clientRec) int { return r.evacuated })))
	put("session.recovery_layer_drift", "count", float64(ss.ph.sum(func(r *clientRec) int { return r.layerDrift })))
	put("session.recovery_mismatched", "count", float64(ss.ph.sum(func(r *clientRec) int { return r.mismatched })))

	exec := spanP(spans, "workload.exec", 0.5)
	put("workload.exec_us.p50", "us", us(exec))
	put("workload.exec_us.p99", "us", us(spanP(spans, "workload.exec", 0.99)))
	put("workload.self_us", "us", us(exec-prefixP50(spans, "session.")))

	put("httpapi.request_us.p50", "us", us(spanP(spans, "httpapi.request", 0.5)))
	put("httpapi.request_us.p99", "us", us(spanP(spans, "httpapi.request", 0.99)))
	put("httpapi.server_us.p50", "us", us(spanP(spans, "httpapi.server", 0.5)))
	put("httpapi.self_us", "us", us(quantile(spans.selfTimes("httpapi.request"), 0.5)))
	wire := stats["httpapi"]
	put("httpapi.bytes_per_op", "B", float64(wire.wireBytes)/float64(max(1, wire.ops)))

	put("telemetry.self_us", "us", us(prefixP50(spans, "telemetry.session.")-prefixP50(spans, "session.")))

	var builds []float64
	for _, st := range stats {
		builds = append(builds, st.buildLat.Seconds())
	}
	put("trace.build_s", "s", median(builds))
}

// runtimeMetrics runs the rung the workload's end-to-end run uses once more,
// untraced and without the per-round checks (the final checks still run),
// and the same loop on nopRung: the same n operations per client from the
// same seed with no program behind them. The allocation figures are the
// first pass's per operation less the second's, so the loop's own work
// (drawing inputs, the ledger, latency samples) is not counted; GC pauses
// and cycles are the first pass's.
func runtimeMetrics(ctx context.Context, cfg config, n int, per time.Duration, out *outcome) error {
	top, err := topRung(cfg, nil)
	if err != nil {
		return err
	}
	ph, prog := memPass(ctx, cfg, top, n, per)
	ph.final(ctx)
	out.absorb(ph)
	top.close()
	loopPh, loop := memPass(ctx, cfg, nopRung{}, n, per)
	perOp := func(ph *phase, m [2]runtime.MemStats, f func(m *runtime.MemStats) uint64) float64 {
		return float64(f(&m[1])-f(&m[0])) / float64(max(1, ph.sum(func(r *clientRec) int { return r.ops })))
	}
	bytes := func(m *runtime.MemStats) uint64 { return m.TotalAlloc }
	mallocs := func(m *runtime.MemStats) uint64 { return m.Mallocs }
	put := func(name, unit string, v float64) { out.metrics[name] = metric{Value: v, Unit: unit} }
	put("runtime.alloc_bytes_per_op", "B", perOp(ph, prog, bytes)-perOp(loopPh, loop, bytes))
	put("runtime.allocs_per_op", "count", perOp(ph, prog, mallocs)-perOp(loopPh, loop, mallocs))
	put("runtime.gc_pause_ms", "ms", float64(prog[1].PauseTotalNs-prog[0].PauseTotalNs)/1e6)
	put("runtime.gc_cycles", "count", float64(prog[1].NumGC-prog[0].NumGC))
	return nil
}

// memPass warms tgt and measures n operations per client on it between two
// memory readings, the first after a forced GC.
func memPass(ctx context.Context, cfg config, tgt target, n int, per time.Duration) (*phase, [2]runtime.MemStats) {
	var m [2]runtime.MemStats
	ph := newPhase(cfg, tgt, 0)
	ph.quiet = true
	ph.warm(ctx)
	runtime.GC()
	runtime.ReadMemStats(&m[0])
	ph.measure(ctx, n, per)
	runtime.ReadMemStats(&m[1])
	return ph, m
}

// nopRung accepts every operation and does nothing: the benchmark's loop
// with no program behind it.
type nopRung struct{}

func (nopRung) exec(context.Context, int, op, uint64) result { return result{ok: true} }
func (nopRung) warm(_ context.Context, _ int, ops []op) []result {
	res := make([]result, len(ops))
	for i := range res {
		res[i].ok = true
	}
	return res
}
func (nopRung) snapshot(trace.Region) error { return nil }
func (nopRung) kill(trace.Region) error     { return nil }
func (nopRung) recover(context.Context, trace.Region) (recovery, error) {
	return recovery{overlayRestore: true}, nil
}
func (nopRung) controller() *plant { return nil }
func (nopRung) close()             {}
