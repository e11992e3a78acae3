package main

import (
	"strings"
	"testing"

	"telecast/internal/httpapi"
	"telecast/internal/model"
	"telecast/internal/session"
)

// The checker must fail on each kind of violation it exists to catch. Each
// case starts from a valid capture and breaks one property.

func sid(site string, i int) model.StreamID {
	return model.StreamID{Site: model.SiteID(site), Index: i}
}

func testEnv() checkEnv {
	return checkEnv{producers: newProducers(), inboundMbps: inboundMbps, maxLayer: 30, kappa: 2}
}

// validCapture: v1 is served by the CDN, v2 takes both streams from v1.
func validCapture() capture {
	return capture{
		"v1": {{stream: sid("A", 1), layer: 0}, {stream: sid("B", 1), layer: 0}},
		"v2": {{stream: sid("A", 1), layer: 1, parent: "v1"}, {stream: sid("B", 1), layer: 1, parent: "v1"}},
	}
}

func wantErr(t *testing.T, errs []error, substr string) {
	t.Helper()
	for _, err := range errs {
		if strings.Contains(err.Error(), substr) {
			return
		}
	}
	t.Fatalf("no error containing %q in %v", substr, errs)
}

func TestCheckCaptureAcceptsValidState(t *testing.T) {
	st, errs := checkCapture(testEnv(), validCapture(), nil)
	if len(errs) != 0 {
		t.Fatalf("valid capture flagged: %v", errs)
	}
	if st.admitted != 2 || st.streams != 4 || st.cdnTotal() != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCheckCaptureMissingSite(t *testing.T) {
	c := validCapture()
	c["v2"] = c["v2"][:1]
	_, errs := checkCapture(testEnv(), c, nil)
	wantErr(t, errs, "no stream from site B")
}

func TestCheckCaptureInboundOverCapacity(t *testing.T) {
	c := validCapture()
	for i := 2; i <= 6; i++ {
		c["v1"] = append(c["v1"], point{stream: sid("A", i)})
	}
	_, errs := checkCapture(testEnv(), c, nil)
	wantErr(t, errs, "exceeds capacity")
}

func TestCheckCaptureDanglingParent(t *testing.T) {
	c := validCapture()
	c["v2"][0].parent = "gone"
	_, errs := checkCapture(testEnv(), c, nil)
	wantErr(t, errs, "parent gone is not a live viewer")

	// A parent that is live but does not hold the stream dangles too.
	c = validCapture()
	c["v1"] = c["v1"][1:]
	c["v1"] = append(c["v1"], point{stream: sid("A", 2)})
	_, errs = checkCapture(testEnv(), c, nil)
	wantErr(t, errs, "parent v1 is not a live viewer holding it")
}

func TestCheckCaptureLayerBound(t *testing.T) {
	c := validCapture()
	c["v1"][0].layer = 31
	_, errs := checkCapture(testEnv(), c, nil)
	wantErr(t, errs, "outside [0,30]")
}

func TestCheckCaptureCountsKappaSpreadWithoutFailing(t *testing.T) {
	c := validCapture()
	c["v1"][1].layer = 3
	st, errs := checkCapture(testEnv(), c, nil)
	if len(errs) != 0 || st.kappaViolations != 1 {
		t.Fatalf("kappa spread: errs=%v violations=%d", errs, st.kappaViolations)
	}
}

func TestCheckCDNRecountMismatch(t *testing.T) {
	st, _ := checkCapture(testEnv(), validCapture(), nil)
	if errs := checkCDN("r0", st.cdnMbps, map[model.StreamID]float64{sid("A", 1): 2, sid("B", 1): 2}); len(errs) != 0 {
		t.Fatalf("matching recount flagged: %v", errs)
	}
	wantErr(t, checkCDN("r0", st.cdnMbps, map[model.StreamID]float64{sid("A", 1): 4, sid("B", 1): 2}), "CDN egress 4.000000 Mbps, recount 2.000000")
	wantErr(t, checkCDN("r0", st.cdnMbps, map[model.StreamID]float64{sid("A", 1): 2}), "not reported")
	wantErr(t, checkCDNTotal(st.cdnTotal(), 6), "recount 4.000000")
}

func TestCheckLedgerMismatch(t *testing.T) {
	if errs := checkLedger("all", 5, 5); len(errs) != 0 {
		t.Fatal(errs)
	}
	wantErr(t, checkLedger("all", 5, 6), "ledger holds 5 viewers, program counts 6")
}

func TestCheckEventCountMismatch(t *testing.T) {
	tl := tally{joinsAccepted: 3, joinsRejected: 1, leaves: 2, viewChanges: 2, viewChangesRej: 1, migrationsLanded: 4, migrationsRe: 1}
	want := tl.expectedEvents(7)
	got := events{
		session.EventJoinAccepted:      3,
		session.EventJoinRejected:      3, // the join, the view change, the bounced migration
		session.EventDeparted:          2,
		session.EventViewChanged:       1,
		session.EventMigratedOut:       5,
		session.EventMigratedIn:        4,
		session.EventMigrationRestored: 1,
		session.EventStreamDropped:     7,
	}
	if errs := checkEvents(want, got, 0); len(errs) != 0 {
		t.Fatalf("matching events flagged: %v", errs)
	}
	got[session.EventDeparted] = 1
	wantErr(t, checkEvents(want, got, 0), "subscriber saw 1, outcomes imply 2")
	got[session.EventDeparted] = 2
	wantErr(t, checkEvents(want, got, 3), "dropped 3 events")
}

func TestCheckServerTotalsMismatch(t *testing.T) {
	tl := tally{joinsAccepted: 3, leaves: 2}
	if errs := checkServerTotals(tl, httpapi.Totals{JoinsAccepted: 3, Leaves: 2}); len(errs) != 0 {
		t.Fatal(errs)
	}
	wantErr(t, checkServerTotals(tl, httpapi.Totals{JoinsAccepted: 3, Leaves: 1}), "server leaves: 1, client tallied 2")
}

func TestSameServed(t *testing.T) {
	a := validCapture()["v2"]
	b := validCapture()["v2"]
	if s, l := sameServed(a, b); !s || !l {
		t.Fatal("identical state differs")
	}
	b[0].layer = 2
	if s, l := sameServed(a, b); !s || l {
		t.Fatal("layer drift not told apart")
	}
	b[0].parent = ""
	if s, _ := sameServed(a, b); s {
		t.Fatal("parent change not seen")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
