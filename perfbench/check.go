package main

import (
	"fmt"
	"math"
	"sort"

	"telecast/internal/httpapi"
	"telecast/internal/model"
	"telecast/internal/session"
)

// The correctness checker. Outputs differ from run to run (placement depends
// on map order), so nothing is compared against a recorded copy: every check
// is a property of the captured state or an equality with an independent
// recount. The functions are pure so tests can feed them violating inputs.

// point is one served subscription of a viewer, as SubscriptionPoints reports it.
type point struct {
	stream model.StreamID
	layer  int
	parent model.ViewerID // "" is the CDN
}

// capture is the served state of one region's viewers at one instant.
type capture map[model.ViewerID][]point

// checkEnv holds what the checks compare against.
type checkEnv struct {
	producers   *model.Session
	inboundMbps float64
	maxLayer    int
	kappa       int
}

// viewerStats are the counts a capture yields besides violations.
type viewerStats struct {
	admitted, streams, kappaViolations int
	// cdnMbps is the recount of CDN-served subscriptions times bitrate,
	// per stream.
	cdnMbps map[model.StreamID]float64
}

func (v viewerStats) cdnTotal() float64 {
	t := 0.0
	for _, m := range v.cdnMbps {
		t += m
	}
	return t
}

// checkCapture checks every viewer of a capture: it covers every producer
// site, stays within its inbound capacity and the layer bound, and every
// peer parent is a captured viewer that holds the same stream. rejected
// lists viewers the ledger holds as typed admission rejections, which serve
// nothing. κ-spread violations are counted, never reported as errors: they
// are a known fault of the subscription pass.
func checkCapture(env checkEnv, c capture, rejected map[model.ViewerID]bool) (viewerStats, []error) {
	st := viewerStats{cdnMbps: make(map[model.StreamID]float64)}
	var errs []error
	ids := make([]model.ViewerID, 0, len(c))
	for id := range c {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pts := c[id]
		if rejected[id] {
			if len(pts) != 0 {
				errs = append(errs, fmt.Errorf("viewer %s: rejected but serves %d streams", id, len(pts)))
			}
			continue
		}
		st.admitted++
		st.streams += len(pts)
		sites := make(map[model.SiteID]bool)
		inbound := 0.0
		lo, hi := math.MaxInt, math.MinInt
		for _, p := range pts {
			s, ok := env.producers.Stream(p.stream)
			if !ok {
				errs = append(errs, fmt.Errorf("viewer %s: unknown stream %v", id, p.stream))
				continue
			}
			sites[p.stream.Site] = true
			inbound += s.BitrateMbps
			lo, hi = min(lo, p.layer), max(hi, p.layer)
			if p.layer < 0 || p.layer > env.maxLayer {
				errs = append(errs, fmt.Errorf("viewer %s: stream %v at layer %d outside [0,%d]", id, p.stream, p.layer, env.maxLayer))
			}
			if p.parent == "" {
				st.cdnMbps[p.stream] += s.BitrateMbps
				continue
			}
			if !holds(c[p.parent], p.stream) || rejected[p.parent] {
				errs = append(errs, fmt.Errorf("viewer %s: stream %v parent %s is not a live viewer holding it", id, p.stream, p.parent))
			}
		}
		for _, site := range env.producers.Sites {
			if !sites[site.ID] {
				errs = append(errs, fmt.Errorf("viewer %s: no stream from site %s", id, site.ID))
			}
		}
		if inbound > env.inboundMbps+1e-9 {
			errs = append(errs, fmt.Errorf("viewer %s: %.3f Mbps inbound exceeds capacity %.3f", id, inbound, env.inboundMbps))
		}
		if len(pts) > 0 && hi-lo > env.kappa {
			st.kappaViolations++
		}
	}
	return st, errs
}

func holds(pts []point, s model.StreamID) bool {
	for _, p := range pts {
		if p.stream == s {
			return true
		}
	}
	return false
}

// checkCDN compares the recount of CDN-served subscriptions with what the
// program reports, stream by stream.
func checkCDN(what string, recount, reported map[model.StreamID]float64) []error {
	var errs []error
	for id, want := range reported {
		if math.Abs(recount[id]-want) > 1e-6 {
			errs = append(errs, fmt.Errorf("%s: stream %v CDN egress %.6f Mbps, recount %.6f", what, id, want, recount[id]))
		}
	}
	for id, got := range recount {
		if _, ok := reported[id]; !ok && got > 1e-6 {
			errs = append(errs, fmt.Errorf("%s: stream %v recount %.6f Mbps, not reported", what, id, got))
		}
	}
	return errs
}

// checkCDNTotal compares the whole-system recount with the CDN's egress.
func checkCDNTotal(recount, egress float64) []error {
	if math.Abs(recount-egress) > 1e-6*max(1, egress) {
		return []error{fmt.Errorf("CDN egress %.6f Mbps, recount %.6f", egress, recount)}
	}
	return nil
}

// checkLedger compares the benchmark's viewer ledger with the program's count.
func checkLedger(what string, ledger, counted int) []error {
	if ledger != counted {
		return []error{fmt.Errorf("%s: ledger holds %d viewers, program counts %d", what, ledger, counted)}
	}
	return nil
}

// tally counts operation outcomes the way the event stream reports them.
type tally struct {
	joinsAccepted, joinsRejected   uint64
	leaves                         uint64
	viewChanges, viewChangesRej    uint64
	migrationsLanded, migrationsRe uint64
	evacuated, evacuationsLanded   uint64
}

func (t *tally) add(o tally) {
	t.joinsAccepted += o.joinsAccepted
	t.joinsRejected += o.joinsRejected
	t.leaves += o.leaves
	t.viewChanges += o.viewChanges
	t.viewChangesRej += o.viewChangesRej
	t.migrationsLanded += o.migrationsLanded
	t.migrationsRe += o.migrationsRe
	t.evacuated += o.evacuated
	t.evacuationsLanded += o.evacuationsLanded
}

// events is the subscriber's count per session event kind.
type events map[session.EventKind]uint64

// expectedEvents derives the event counts the outcomes imply.
// EventJoinRejected also counts view-change refusals and bounced migrations.
func (t tally) expectedEvents(drops uint64) events {
	evBounced := t.evacuated - t.evacuationsLanded
	return events{
		session.EventJoinAccepted:      t.joinsAccepted,
		session.EventJoinRejected:      t.joinsRejected + t.viewChangesRej + t.migrationsRe + evBounced,
		session.EventDeparted:          t.leaves,
		session.EventViewChanged:       t.viewChanges - t.viewChangesRej,
		session.EventMigratedOut:       t.migrationsLanded + t.migrationsRe + t.evacuated,
		session.EventMigratedIn:        t.migrationsLanded + t.evacuationsLanded,
		session.EventMigrationRestored: t.migrationsRe + evBounced,
		session.EventStreamDropped:     drops,
	}
}

// checkEvents compares the subscriber's tallies with the expected ones and
// demands that no event was dropped.
func checkEvents(want, got events, dropped uint64) []error {
	var errs []error
	if dropped != 0 {
		errs = append(errs, fmt.Errorf("event subscriber dropped %d events", dropped))
	}
	kinds := make([]session.EventKind, 0, len(want))
	for k := range want {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		if got[k] != want[k] {
			errs = append(errs, fmt.Errorf("event %v: subscriber saw %d, outcomes imply %d", k, got[k], want[k]))
		}
	}
	return errs
}

// sameServed compares a viewer's served state before a kill and after the
// recovery. streams reports whether the streams and their parents match;
// layers whether the delay layers match as well.
func sameServed(before, after []point) (streams, layers bool) {
	if len(before) != len(after) {
		return false, false
	}
	m := make(map[model.StreamID]point, len(before))
	for _, p := range before {
		m[p.stream] = p
	}
	layers = true
	for _, p := range after {
		q, ok := m[p.stream]
		if !ok || q.parent != p.parent {
			return false, false
		}
		layers = layers && q.layer == p.layer
	}
	return true, layers
}

// checkServerTotals compares the client's outcome tallies with the totals
// the server reports on /metricz.
func checkServerTotals(t tally, m httpapi.Totals) []error {
	var errs []error
	for _, c := range []struct {
		what      string
		got, want uint64
	}{
		{"joins accepted", m.JoinsAccepted, t.joinsAccepted},
		{"joins rejected", m.JoinsRejected, t.joinsRejected},
		{"leaves", m.Leaves, t.leaves},
		{"view changes", m.ViewChanges, t.viewChanges},
		{"view changes rejected", m.ViewChangesRejected, t.viewChangesRej},
		{"migrations landed", m.MigrationsLanded, t.migrationsLanded},
		{"migrations bounced", m.MigrationsBounced, t.migrationsRe},
	} {
		if c.got != c.want {
			errs = append(errs, fmt.Errorf("server %s: %d, client tallied %d", c.what, c.got, c.want))
		}
	}
	return errs
}
