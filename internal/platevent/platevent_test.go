package platevent

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/vtime"
)

// TestEventsStableOrder pins the application-order contract: sorted by
// instant, insertion order within one instant.
func TestEventsStableOrder(t *testing.T) {
	s := New().
		RestoreAt(vtime.Time(50*vtime.Microsecond), 1).
		FaultAt(vtime.Time(10*vtime.Microsecond), 0).
		PowerCapAt(vtime.Time(50*vtime.Microsecond), 2.5).
		SetSpeedAt(vtime.Time(10*vtime.Microsecond), 2, 1.5)
	ev := s.Events()
	want := []Event{
		{At: vtime.Time(10 * vtime.Microsecond), Kind: Fault, PE: 0},
		{At: vtime.Time(10 * vtime.Microsecond), Kind: SetSpeed, PE: 2, Speed: 1.5},
		{At: vtime.Time(50 * vtime.Microsecond), Kind: Restore, PE: 1},
		{At: vtime.Time(50 * vtime.Microsecond), Kind: PowerCap, PE: -1, CapW: 2.5},
	}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("events out of contract order:\nwant %+v\ngot  %+v", want, ev)
	}
	// Appending after a sort re-sorts lazily.
	s.FaultAt(vtime.Time(5*vtime.Microsecond), 1)
	if got := s.Events()[0]; got.Kind != Fault || got.PE != 1 {
		t.Fatalf("late append not resorted: head is %+v", got)
	}
}

// TestEventsInOrderShared: a schedule built in order is returned
// without a copy, equal instants keep insertion order, and an append to
// the result cannot reach the schedule.
func TestEventsInOrderShared(t *testing.T) {
	s := New().
		FaultAt(10, 0).
		SetSpeedAt(10, 2, 1.5).
		PowerCapAt(10, 2.5).
		RestoreAt(40, 0).
		FaultAt(40, 1)
	want := []Event{
		{At: 10, Kind: Fault, PE: 0},
		{At: 10, Kind: SetSpeed, PE: 2, Speed: 1.5},
		{At: 10, Kind: PowerCap, PE: -1, CapW: 2.5},
		{At: 40, Kind: Restore, PE: 0},
		{At: 40, Kind: Fault, PE: 1},
	}
	ev := s.Events()
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("in-order events:\nwant %+v\ngot  %+v", want, ev)
	}
	if avg := testing.AllocsPerRun(100, func() { s.Events() }); avg != 0 {
		t.Fatalf("Events() of an in-order schedule allocates %.1f objects", avg)
	}
	s.RestoreAt(50, 1) // lands in ev's spare capacity, if it had any
	_ = append(ev, Event{At: 1, Kind: Fault, PE: 3})
	want = append(want, Event{At: 50, Kind: Restore, PE: 1})
	if got := s.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("append to the result reached the schedule:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestEventsOutOfOrderMatchesStableSort: a schedule built out of order
// returns the stable sort of its insertion order, and leaves the
// receiver as built.
func TestEventsOutOfOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := New()
	for i := 0; i < 500; i++ {
		at := vtime.Time(r.Intn(40)) // many events share an instant
		switch r.Intn(4) {
		case 0:
			s.FaultAt(at, i)
		case 1:
			s.RestoreAt(at, i)
		case 2:
			s.SetSpeedAt(at, i, 1+float64(r.Intn(3)))
		default:
			s.PowerCapAt(at, float64(i))
		}
	}
	built := append([]Event(nil), s.events...)
	want := append([]Event(nil), built...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
	if got := s.Events(); !reflect.DeepEqual(got, want) {
		t.Fatal("out-of-order Events() differs from the stable sort of insertion order")
	}
	if !reflect.DeepEqual(s.events, built) {
		t.Fatal("Events() reordered the receiver")
	}
}

func TestValidate(t *testing.T) {
	ok := New().FaultAt(0, 0).RestoreAt(10, 3).SetSpeedAt(5, 1, 0.5).PowerCapAt(7, 0)
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	var nilSched *Schedule
	if err := nilSched.Validate(4); err != nil {
		t.Fatalf("nil schedule rejected: %v", err)
	}
	bad := []*Schedule{
		New().FaultAt(0, 4),              // PE out of range
		New().RestoreAt(0, -1),           // negative PE
		New().SetSpeedAt(0, 0, 0),        // non-positive speed
		New().SetSpeedAt(0, 9, 1.0),      // DVFS target out of range
		New().FaultAt(vtime.Time(-1), 0), // negative instant
	}
	for i, s := range bad {
		if err := s.Validate(4); err == nil {
			t.Errorf("invalid schedule %d accepted", i)
		}
	}
}

// TestJSONRoundTrip pins the cmd/emulate -events document format.
func TestJSONRoundTrip(t *testing.T) {
	s := New().
		FaultAt(50_000, 2).
		RestoreAt(90_000, 2).
		SetSpeedAt(10_000, 0, 1.8).
		PowerCapAt(20_000, 1.5).
		PowerCapAt(30_000, 0) // lift
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Events(), back.Events()) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", s.Events(), back.Events())
	}
	if _, err := ParseJSON([]byte(`[{"at_ns": 1, "kind": "melt", "pe": 0}]`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ParseJSON([]byte(`{"not": "an array"}`)); err == nil {
		t.Fatal("non-array document accepted")
	}
	// The documented "dvfs" alias parses as SetSpeed.
	alias, err := ParseJSON([]byte(`[{"at_ns": 5, "kind": "dvfs", "pe": 1, "speed": 2.0}]`))
	if err != nil {
		t.Fatal(err)
	}
	if ev := alias.Events(); len(ev) != 1 || ev[0].Kind != SetSpeed || ev[0].Speed != 2.0 {
		t.Fatalf("dvfs alias mis-parsed: %+v", alias.Events())
	}
}

// TestChurnDeterministic: same (seed, config) -> identical schedule;
// different seeds diverge.
func TestChurnDeterministic(t *testing.T) {
	cc := ChurnConfig{
		NumPEs:    6,
		Horizon:   2 * vtime.Millisecond,
		Events:    64,
		Speeds:    []float64{0.5, 1.0, 2.0},
		PowerCaps: []float64{1.5, 3.0, 0},
	}
	a := Churn(7, cc)
	b := Churn(7, cc)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different schedules")
	}
	c := Churn(8, cc)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical schedules")
	}
	if a.Len() == 0 {
		t.Fatal("churn generated no events")
	}
	if err := a.Validate(cc.NumPEs); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
}

// TestChurnNeverKillsAllPEs: replaying any generated schedule's
// fault/restore stream must always leave at least one PE healthy —
// the generator's no-total-blackout guarantee.
func TestChurnNeverKillsAllPEs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		for seed := int64(0); seed < 20; seed++ {
			cc := ChurnConfig{
				NumPEs: n, Horizon: vtime.Millisecond, Events: 200,
				FaultFraction: 1.0,
			}
			down := make([]bool, n)
			nDown := 0
			for _, e := range Churn(seed, cc).Events() {
				switch e.Kind {
				case Fault:
					if !down[e.PE] {
						down[e.PE] = true
						nDown++
					}
				case Restore:
					if down[e.PE] {
						down[e.PE] = false
						nDown--
					}
				}
				if nDown >= n {
					t.Fatalf("n=%d seed=%d: schedule faults every PE at once", n, seed)
				}
			}
		}
	}
}
