package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// The benchmark's inputs. Every operation comes from the seed: catalog
// scenarios (Diurnal, Mobility) are pulled lazily with the same seeded rng
// discipline workload.Collect uses, so a run never runs out of input and the
// same seed always yields the same operation sequence per client.

const (
	numRegions       = 8
	numClients       = 2
	regionsPerClient = numRegions / numClients
	inboundMbps      = 12
)

var viewAngles = []float64{0, math.Pi / 2, math.Pi}

// op is one control-plane operation of a client's sequence.
type op struct {
	kind workload.EventKind
	id   model.ViewerID
	// region is the placement of a join and the destination of a migration.
	region trace.Region
	obw    float64
	angle  float64
}

func (o op) request() workload.Request {
	rq := workload.Request{Kind: o.kind, ID: o.id, ViewAngle: o.angle}
	switch o.kind {
	case workload.EventJoin:
		rq.InboundMbps, rq.OutboundMbps = inboundMbps, o.obw
		rq.Region = session.InRegion(o.region)
	case workload.EventMigrate:
		rq.Region = session.InRegion(o.region)
		rq.Cause = "bench"
	}
	return rq
}

// clientRegion maps a client's local region index (0..3) to the global one:
// client c owns regions 4c..4c+3, so no shard ever sees two clients.
func clientRegion(c, local int) trace.Region {
	return trace.Region(c*regionsPerClient + local)
}

// stream is one client's operation source. It tracks where each of its live
// viewers sits so region-less catalog joins get a placement and migrations to
// the viewer's current region (catalog no-ops) are skipped.
type stream struct {
	client int
	sc     workload.Scenario
	rng    *rand.Rand
	last   time.Duration
	joins  int
	where  map[model.ViewerID]trace.Region
	// pending holds an event pulled past the warm horizon.
	pending *workload.Event
	// handoff marks the handoff mix: operations are drawn by the benchmark
	// over the live audience, and sc only supplies fresh joiners.
	handoff bool
	live    []model.ViewerID
	pos     map[model.ViewerID]int
}

// The churn inputs are the catalog's "diurnal" and "mobility" entries with
// the knobs experiments.RunScenario passes them (telecast-sim's scenario
// runs): the §VII audience of 1000 arrivals per 30 s catalog day, view
// angles {0, π/2, π}, outbound capacity uniform on 0–12 Mbps. Every rate is
// the catalog's: a swing of 0.6 starting at the nightly trough, sessions of
// a third (diurnal) and half (mobility) of a day, 0.02 view changes and 0.1
// migrations per viewer-second. Two changes make the stream fit the
// benchmark: the horizon is lifted and the diurnal cycle repeats with a
// one-day period, as the catalog's soak entry chains its days, so the input
// never runs out; and each client takes half of each entry's arrivals and
// walks its mobility viewers over its own four regions.
const (
	catalogAudience = 1000
	catalogDay      = 30 * time.Second
	endless         = 1e7 * time.Second
)

func churnScenario(audience int) workload.Scenario {
	rate := float64(audience) / catalogDay.Seconds()
	d, err := workload.Diurnal(workload.DiurnalConfig{
		Duration:       endless,
		Period:         catalogDay,
		BaseRate:       rate,
		Swing:          0.6,
		Phase:          -math.Pi / 2,
		MeanSession:    catalogDay / 3,
		ViewChangeRate: 0.02,
		OutboundLo:     0, OutboundHi: 12,
		ViewAngles: viewAngles,
	})
	if err != nil {
		panic(err)
	}
	m, err := workload.Mobility(workload.MobilityConfig{
		Duration:       endless,
		ArrivalRate:    rate,
		Regions:        regionsPerClient,
		MigrateRate:    0.1,
		MeanSession:    catalogDay / 2,
		ViewChangeRate: 0.02,
		OutboundLo:     0, OutboundHi: 12,
		ViewAngles: viewAngles,
	})
	if err != nil {
		panic(err)
	}
	return workload.Merge(d, m)
}

// joinerScenario supplies the handoff workload's audience: joins only.
func joinerScenario() workload.Scenario {
	d, err := workload.Diurnal(workload.DiurnalConfig{
		Duration:   endless,
		BaseRate:   100,
		OutboundLo: 0, OutboundHi: 12,
		ViewAngles: viewAngles,
	})
	if err != nil {
		panic(err)
	}
	return d
}

func newStream(wl string, seed int64, client int, audience int) *stream {
	s := &stream{
		client: client,
		rng:    rand.New(rand.NewSource(seed*1000 + int64(client))),
		where:  make(map[model.ViewerID]trace.Region),
	}
	if wl == wlHandoff {
		s.handoff = true
		s.sc = joinerScenario()
		s.pos = make(map[model.ViewerID]int)
	} else {
		s.sc = churnScenario(audience)
	}
	return s
}

// pull returns the next catalog event, enforcing Collect's time order.
func (s *stream) pull() workload.Event {
	if ev := s.pending; ev != nil {
		s.pending = nil
		return *ev
	}
	ev, ok := s.sc.Next(s.rng)
	if !ok {
		panic("perfbench: catalog scenario ended")
	}
	if ev.At < s.last {
		panic(fmt.Sprintf("perfbench: scenario out of order at %v", ev.At))
	}
	s.last = ev.At
	return ev
}

func (s *stream) id(v model.ViewerID) model.ViewerID {
	return model.ViewerID(fmt.Sprintf("c%d%s", s.client, v))
}

// joinOp turns a catalog join into a placed join.
func (s *stream) joinOp(ev workload.Event) op {
	local := s.joins % regionsPerClient
	if r, ok := ev.Region.Region(); ok {
		local = int(r)
	}
	s.joins++
	o := op{kind: workload.EventJoin, id: s.id(ev.Viewer), region: clientRegion(s.client, local), obw: ev.OutboundMbps, angle: ev.ViewAngle}
	s.where[o.id] = o.region
	if s.handoff {
		s.pos[o.id] = len(s.live)
		s.live = append(s.live, o.id)
	}
	return o
}

// warmAudience returns the joins that place the warm audience. For the
// handoff mix that is the next n joiners. For the churn mix it is the
// audience the catalog schedule has live at the warm horizon, each viewer
// joined straight into the view and region it holds there, so set-up is
// admission only; the measured operations continue the schedule from the
// horizon.
func (s *stream) warmAudience(n int, horizon time.Duration) []op {
	var ops []op
	if s.handoff {
		for i := 0; i < n; i++ {
			ops = append(ops, s.joinOp(s.pull()))
		}
		return ops
	}
	at := make(map[model.ViewerID]int)
	for {
		ev := s.pull()
		if ev.At >= horizon {
			s.pending = &ev
			break
		}
		id := s.id(ev.Viewer)
		switch ev.Kind {
		case workload.EventJoin:
			at[id] = len(ops)
			ops = append(ops, s.joinOp(ev))
		case workload.EventLeave:
			ops[at[id]].kind = 0
			delete(at, id)
			delete(s.where, id)
		case workload.EventViewChange:
			ops[at[id]].angle = ev.ViewAngle
		case workload.EventMigrate:
			r, _ := ev.Region.Region()
			ops[at[id]].region = clientRegion(s.client, int(r))
			s.where[id] = ops[at[id]].region
		}
	}
	live := ops[:0]
	for _, o := range ops {
		if o.kind != 0 {
			live = append(live, o)
		}
	}
	return live
}

// next returns the client's next measured operation.
func (s *stream) next() op {
	if s.handoff {
		return s.nextHandoff()
	}
	for {
		ev := s.pull()
		id := s.id(ev.Viewer)
		switch ev.Kind {
		case workload.EventJoin:
			return s.joinOp(ev)
		case workload.EventLeave:
			delete(s.where, id)
			return op{kind: workload.EventLeave, id: id}
		case workload.EventViewChange:
			return op{kind: workload.EventViewChange, id: id, angle: ev.ViewAngle}
		case workload.EventMigrate:
			r, _ := ev.Region.Region()
			to := clientRegion(s.client, int(r))
			if s.where[id] == to {
				continue
			}
			s.where[id] = to
			return op{kind: workload.EventMigrate, id: id, region: to}
		}
	}
}

// nextHandoff draws the handoff mix over the live audience: 70% migrations
// to another of the client's regions, 10% view changes, 10% departures and
// 10% fresh joins. These shares are the benchmark's own, not a catalog's:
// migrations dominate because the handoff path is what this workload is
// for (the churn mix runs about one in five), and equal joins and departures
// keep the audience level so every round sees the same shard sizes.
func (s *stream) nextHandoff() op {
	switch p := s.rng.Intn(10); {
	case p == 0:
		return s.joinOp(s.pull())
	case p == 1:
		i := s.rng.Intn(len(s.live))
		id := s.live[i]
		last := s.live[len(s.live)-1]
		s.live[i], s.pos[last] = last, i
		s.live = s.live[:len(s.live)-1]
		delete(s.pos, id)
		delete(s.where, id)
		return op{kind: workload.EventLeave, id: id}
	case p == 2:
		id := s.live[s.rng.Intn(len(s.live))]
		return op{kind: workload.EventViewChange, id: id, angle: viewAngles[s.rng.Intn(len(viewAngles))]}
	default:
		id := s.live[s.rng.Intn(len(s.live))]
		from := int(s.where[id]) - s.client*regionsPerClient
		to := clientRegion(s.client, (from+1+s.rng.Intn(regionsPerClient-1))%regionsPerClient)
		s.where[id] = to
		return op{kind: workload.EventMigrate, id: id, region: to}
	}
}
