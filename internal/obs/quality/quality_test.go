package quality

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

func TestFamilySlug(t *testing.T) {
	cases := map[string]string{
		"field correlations": "correlation",
		"association rules":  "assoc_rules",
		"mean baseline":      "mean_baseline",
		"threshold baseline": "threshold_baseline",
		"AND-ensemble":       "and_ensemble",
		"OR-ensemble":        "or_ensemble",
		"":                   "other",
		"--":                 "other",
		"  spaced  out  ":    "spaced_out",
	}
	for name, want := range cases {
		if got := FamilySlug(name); got != want {
			t.Errorf("FamilySlug(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestScorerConfirmAndExpire pins the outcome semantics: a change landing
// in [alert day, deadline] confirms; a watermark advancing past the
// deadline expires; per-family tallies follow the alert's attribution.
func TestScorerConfirmAndExpire(t *testing.T) {
	s := New(7)
	s.BeginEpoch(1, 100, []PendingAlert{
		{Page: "A", Property: "p", Families: []string{"correlation"}},
		{Page: "B", Property: "q", Families: []string{"assoc_rules", "correlation"}},
		{Page: "C", Property: "r", Families: []string{"mean_baseline"}},
	})

	// A change for (A, p) inside the horizon: confirmed.
	s.Observe("A", "p", 103)
	// An unrelated event advancing the watermark but not past any deadline.
	s.Observe("X", "y", 105)
	r := s.Snapshot()
	if r.Overall.Confirmed != 1 || r.Overall.Expired != 0 || r.Overall.Pending != 2 {
		t.Fatalf("after confirm: %+v", r.Overall)
	}

	// Watermark jumps past every deadline (100+7=107): B and C expire.
	s.Observe("X", "y", 120)
	r = s.Snapshot()
	if r.Overall.Confirmed != 1 || r.Overall.Expired != 2 || r.Overall.Pending != 0 {
		t.Fatalf("after sweep: %+v", r.Overall)
	}
	if got := r.Overall.Precision; got != 1.0/3 {
		t.Fatalf("precision = %v, want 1/3", got)
	}

	fams := map[string]ScopeReport{}
	for _, f := range r.Families {
		fams[f.Family] = f.ScopeReport
	}
	if f := fams["correlation"]; f.Confirmed != 1 || f.Expired != 1 {
		t.Fatalf("correlation family %+v, want 1 confirmed 1 expired", f)
	}
	if f := fams["assoc_rules"]; f.Confirmed != 0 || f.Expired != 1 {
		t.Fatalf("assoc_rules family %+v", f)
	}
	if f := fams["mean_baseline"]; f.Confirmed != 0 || f.Expired != 1 {
		t.Fatalf("mean_baseline family %+v", f)
	}

	// Recent ring is newest-first and covers all three outcomes.
	if len(r.Recent) != 3 {
		t.Fatalf("recent ring has %d entries, want 3", len(r.Recent))
	}
	if r.Recent[len(r.Recent)-1].Page != "A" || r.Recent[len(r.Recent)-1].Outcome != "confirmed" {
		t.Fatalf("oldest recent entry %+v, want the (A, p) confirmation", r.Recent[len(r.Recent)-1])
	}
}

// TestScorerLateChangeExpires: a change for a pending field arriving past
// its deadline scores expired, not confirmed — the alert was not borne
// out "shortly after", which is the claim being measured.
func TestScorerLateChangeExpires(t *testing.T) {
	s := New(7)
	s.BeginEpoch(1, 100, []PendingAlert{{Page: "A", Property: "p"}})
	s.Observe("A", "p", 108) // deadline is 107
	r := s.Snapshot()
	if r.Overall.Confirmed != 0 || r.Overall.Expired != 1 {
		t.Fatalf("late change: %+v, want expired", r.Overall)
	}
}

// TestScorerReassertedAlertKeepsDeadline: an alert re-asserted by a later
// epoch keeps its original alert day and deadline — the first assertion
// is the prediction being scored.
func TestScorerReassertedAlertKeepsDeadline(t *testing.T) {
	s := New(7)
	s.BeginEpoch(1, 100, []PendingAlert{{Page: "A", Property: "p"}})
	s.BeginEpoch(2, 106, []PendingAlert{{Page: "A", Property: "p"}})
	// Day 110 is within epoch 2's would-be deadline (113) but past epoch
	// 1's (107): the original prediction failed.
	s.Observe("A", "p", 110)
	r := s.Snapshot()
	if r.Overall.Expired != 1 || r.Overall.Confirmed != 0 {
		t.Fatalf("re-asserted alert: %+v, want the original deadline to govern", r.Overall)
	}
	if r.TrackedTotal != 1 {
		t.Fatalf("tracked %d, want 1 (re-assertion is not a new prediction)", r.TrackedTotal)
	}
}

// TestScorerPendingCap: registrations beyond the cap are counted and
// dropped, never grow the map.
func TestScorerPendingCap(t *testing.T) {
	s := New(7)
	s.maxPending = 3
	alerts := make([]PendingAlert, 5)
	for i := range alerts {
		alerts[i] = PendingAlert{Page: fmt.Sprintf("P%d", i), Property: "x"}
	}
	s.BeginEpoch(1, 100, alerts)
	r := s.Snapshot()
	if r.Overall.Pending != 3 || r.Dropped != 2 || r.TrackedTotal != 3 {
		t.Fatalf("cap: pending %d dropped %d tracked %d", r.Overall.Pending, r.Dropped, r.TrackedTotal)
	}
}

// TestScorerStateRoundTrip is the persistence contract: Restore(Marshal)
// followed by Marshal reproduces the exact bytes, and the restored scorer
// behaves identically.
func TestScorerStateRoundTrip(t *testing.T) {
	s := New(7)
	s.BeginEpoch(1, 100, []PendingAlert{
		{Page: "A", Property: "p", Families: []string{"correlation"}},
		{Page: "B", Property: "q", Families: []string{"assoc_rules"}},
		{Page: "C", Property: "r"},
	})
	s.Observe("A", "p", 103) // one confirmed outcome in the ring
	state := s.MarshalBinary()

	restored := New(30) // different configured horizon: config, not state
	if err := restored.Restore(state); err != nil {
		t.Fatal(err)
	}
	if again := restored.MarshalBinary(); !bytes.Equal(state, again) {
		t.Fatalf("restore → marshal not bit-identical:\n%x\n%x", state, again)
	}
	if restored.horizon != 30 {
		t.Fatalf("horizon %d overwritten by Restore; it is configuration", restored.horizon)
	}

	// The restored pending alerts keep their recorded deadlines: (B, q)
	// expires at the old deadline 107, not 100+30.
	restored.Observe("X", "y", 110)
	r := restored.Snapshot()
	if r.Overall.Expired != 2 || r.Overall.Pending != 0 {
		t.Fatalf("restored deadlines not honored: %+v", r.Overall)
	}
}

// TestScorerRestoreRejectsMalformed: truncations and corruptions error
// out and leave the scorer untouched.
func TestScorerRestoreRejectsMalformed(t *testing.T) {
	s := New(7)
	s.BeginEpoch(3, 50, []PendingAlert{{Page: "keep", Property: "me"}})
	good := s.MarshalBinary()

	cases := [][]byte{
		nil,
		[]byte("WQSX"),
		[]byte("WQS1\xff"),       // bad version
		good[:len(good)-1],       // truncated tail
		append(good, 0xff, 0xff), // trailing bytes
	}
	// A absurd count in place of the family count must error, not allocate.
	corrupt := append([]byte(nil), good[:len("WQS1")+2]...)
	corrupt = append(corrupt, 0xff, 0xff, 0xff, 0xff, 0x0f)
	cases = append(cases, corrupt)

	for i, data := range cases {
		if err := s.Restore(data); err == nil {
			t.Errorf("case %d: malformed state accepted", i)
		}
	}
	if !bytes.Equal(s.MarshalBinary(), good) {
		t.Fatal("failed Restore mutated the scorer")
	}
}

// TestScorerSweepDeterministic: the order expired outcomes land in the
// recent ring does not depend on map iteration — two scorers fed the same
// sequence marshal identically.
func TestScorerSweepDeterministic(t *testing.T) {
	build := func() *Scorer {
		s := New(5)
		var alerts []PendingAlert
		for i := 0; i < 20; i++ {
			alerts = append(alerts, PendingAlert{Page: fmt.Sprintf("P%02d", 19-i), Property: "x"})
		}
		s.BeginEpoch(1, 10, alerts)
		s.Observe("Z", "z", 40) // sweeps all 20 at once
		return s
	}
	a, b := build().MarshalBinary(), build().MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("sweep order is nondeterministic")
	}
}

// TestScorerRecentEvictsOldest scores more outcomes than the recent ring
// keeps: the report lists the newest recentCap, newest first, and a
// wrapped ring still round-trips through MarshalBinary/Restore.
func TestScorerRecentEvictsOldest(t *testing.T) {
	const n = recentCap + 8
	s := New(5)
	alerts := make([]PendingAlert, n)
	for i := range alerts {
		alerts[i] = PendingAlert{Page: fmt.Sprintf("P%02d", i), Property: "x"}
	}
	s.BeginEpoch(1, 10, alerts)
	s.Observe("Z", "z", 40) // expires all n, in sorted key order
	r := s.Snapshot()
	if r.Overall.Expired != n || len(r.Recent) != recentCap {
		t.Fatalf("expired %d, recent %d; want %d, %d", r.Overall.Expired, len(r.Recent), n, recentCap)
	}
	for i, o := range r.Recent {
		if want := fmt.Sprintf("P%02d", n-1-i); o.Page != want {
			t.Fatalf("recent[%d].page = %q, want %q (newest first)", i, o.Page, want)
		}
	}

	state := s.MarshalBinary()
	restored := New(5)
	if err := restored.Restore(state); err != nil {
		t.Fatal(err)
	}
	if again := restored.MarshalBinary(); !bytes.Equal(state, again) {
		t.Fatal("wrapped recent ring: restore → marshal not bit-identical")
	}
	if got := restored.Snapshot().Recent; !reflect.DeepEqual(got, r.Recent) {
		t.Fatalf("restored recent ring %v, want %v", got, r.Recent)
	}
}
