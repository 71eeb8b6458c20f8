// Package platevent models dynamic-platform events: PE faults and
// hotplug restores, DVFS speed steps, and platform-wide power caps, as
// a deterministic event stream ordered on the emulation's virtual
// clock. The paper's heterogeneous targets (the Odroid's big.LITTLE
// pool, Case Study 4's power study) are exactly the platforms where
// cores fault, thermally throttle and DVFS-step in production; a
// Schedule makes those regimes first-class emulation inputs instead of
// frozen assumptions.
//
// A Schedule is built once (by hand, from JSON, or by the seeded Churn
// generator), validated against a configuration's PE count, and handed
// to the emulation core through core.Options.Events. The core applies
// due events at the top of its discrete-event loop — before injection
// and completion monitoring — so an event at instant T is visible to
// every scheduling decision at or after T, and a fault at T wins over
// a completion due at the same T (the in-flight task is requeued, not
// collected). Ordering within one instant is the Schedule's insertion
// order, which the stable sort preserves; everything downstream is
// therefore byte-deterministic for a given Schedule.
//
// Schedules are read-only after being handed to an emulator: the core
// keeps a cursor into the sorted event slice, and several emulators
// (sweep cells, differential pairs) may share one Schedule.
package platevent

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/vtime"
)

// Kind discriminates platform events.
type Kind uint8

const (
	// Fault removes a PE: it leaves the schedulable pool atomically and
	// its in-flight task plus any reservation-queue entries are
	// requeued as ready at the fault instant. Faulting a faulted PE is
	// a no-op.
	Fault Kind = iota
	// Restore returns a faulted PE to the pool, idle. Restoring a
	// healthy PE is a no-op.
	Restore
	// SetSpeed is a DVFS step: the PE's speed factor becomes Speed.
	// The PE's cost-class signature changes with it, so class
	// membership becomes time-varying (see the core's re-interning).
	SetSpeed
	// PowerCap sets the active per-PE power budget in watts; power-aware
	// policies must not place work on PEs drawing more than the cap.
	// CapW <= 0 lifts the cap.
	PowerCap
)

// String names the kind as the JSON encoding spells it.
func (k Kind) String() string {
	switch k {
	case Fault:
		return "fault"
	case Restore:
		return "restore"
	case SetSpeed:
		return "set-speed"
	case PowerCap:
		return "power-cap"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one platform event on the virtual clock.
type Event struct {
	// At is the virtual instant the event takes effect.
	At vtime.Time
	// Kind discriminates the remaining fields.
	Kind Kind
	// PE is the target PE index (position in Config.PEs) for Fault,
	// Restore and SetSpeed; ignored (and normalised to -1) for
	// PowerCap.
	PE int
	// Speed is SetSpeed's new speed factor (> 0).
	Speed float64
	// CapW is PowerCap's per-PE power budget in watts; <= 0 lifts the
	// cap.
	CapW float64
}

// Schedule is an ordered platform-event stream. The zero value is an
// empty schedule; build with the *At appenders, which may be chained.
// Building is single-threaded; a built schedule is read-only and may
// then be shared by any number of emulators (sweep cells, differential
// pairs) concurrently.
type Schedule struct {
	events []Event
	// unsorted is set once an event was appended before its
	// predecessor's instant; until then events is already in
	// application order.
	unsorted bool
}

// New returns an empty schedule.
func New() *Schedule { return &Schedule{} }

// FaultAt appends a PE fault.
func (s *Schedule) FaultAt(at vtime.Time, pe int) *Schedule {
	return s.add(Event{At: at, Kind: Fault, PE: pe})
}

// RestoreAt appends a PE restore.
func (s *Schedule) RestoreAt(at vtime.Time, pe int) *Schedule {
	return s.add(Event{At: at, Kind: Restore, PE: pe})
}

// SetSpeedAt appends a DVFS step setting the PE's speed factor.
func (s *Schedule) SetSpeedAt(at vtime.Time, pe int, speed float64) *Schedule {
	return s.add(Event{At: at, Kind: SetSpeed, PE: pe, Speed: speed})
}

// PowerCapAt appends a platform-wide power cap (watts <= 0 lifts it).
func (s *Schedule) PowerCapAt(at vtime.Time, watts float64) *Schedule {
	return s.add(Event{At: at, Kind: PowerCap, PE: -1, CapW: watts})
}

func (s *Schedule) add(e Event) *Schedule {
	if n := len(s.events); n > 0 && e.At < s.events[n-1].At {
		s.unsorted = true
	}
	s.events = append(s.events, e)
	return s
}

// Len reports the event count.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// Events returns the stream sorted by instant, stable in insertion
// order within one instant — the exact application order the core
// uses. The result is read-only and shared: a schedule built in order
// (as Churn builds one) returns its own events, capped so an append to
// the result cannot write into them; any other schedule returns a
// sorted copy. Neither touches the receiver, so a built Schedule can
// be consumed by concurrent emulator constructions.
func (s *Schedule) Events() []Event {
	if s == nil || len(s.events) == 0 {
		return nil
	}
	if !s.unsorted {
		n := len(s.events)
		return s.events[:n:n]
	}
	out := make([]Event, len(s.events))
	copy(out, s.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks every event against a configuration's PE count:
// in-range PE targets, non-negative instants, positive DVFS speeds,
// known kinds. Cross-event interactions (double faults, restores of
// healthy PEs) are legal and resolve idempotently at runtime, so a
// generated or fuzzed schedule needs no global consistency.
func (s *Schedule) Validate(numPEs int) error {
	if s == nil {
		return nil
	}
	for i, e := range s.events {
		if e.At < 0 {
			return fmt.Errorf("platevent: event %d (%s) has negative instant %v", i, e.Kind, e.At)
		}
		switch e.Kind {
		case Fault, Restore:
			if e.PE < 0 || e.PE >= numPEs {
				return fmt.Errorf("platevent: event %d (%s) targets PE %d of %d", i, e.Kind, e.PE, numPEs)
			}
		case SetSpeed:
			if e.PE < 0 || e.PE >= numPEs {
				return fmt.Errorf("platevent: event %d (%s) targets PE %d of %d", i, e.Kind, e.PE, numPEs)
			}
			if !(e.Speed > 0) {
				return fmt.Errorf("platevent: event %d sets non-positive speed %v on PE %d", i, e.Speed, e.PE)
			}
		case PowerCap:
			// Any CapW is legal; <= 0 lifts the cap.
		default:
			return fmt.Errorf("platevent: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// eventJSON is the on-disk form consumed by cmd/emulate's -events
// flag: a JSON array of events with nanosecond instants.
type eventJSON struct {
	AtNS  int64   `json:"at_ns"`
	Kind  string  `json:"kind"`
	PE    int     `json:"pe,omitempty"`
	Speed float64 `json:"speed,omitempty"`
	Watts float64 `json:"watts,omitempty"`
}

// MarshalJSON encodes the schedule in application order.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	out := make([]eventJSON, 0, s.Len())
	for _, e := range s.Events() {
		out = append(out, eventJSON{
			AtNS: int64(e.At), Kind: e.Kind.String(),
			PE: e.PE, Speed: e.Speed, Watts: e.CapW,
		})
	}
	return json.Marshal(out)
}

// ParseJSON decodes the document format MarshalJSON produces:
//
//	[{"at_ns": 50000, "kind": "fault", "pe": 2},
//	 {"at_ns": 90000, "kind": "restore", "pe": 2},
//	 {"at_ns": 10000, "kind": "set-speed", "pe": 0, "speed": 1.8},
//	 {"at_ns": 20000, "kind": "power-cap", "watts": 1.5}]
func ParseJSON(data []byte) (*Schedule, error) {
	var raw []eventJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("platevent: decoding schedule: %w", err)
	}
	s := New()
	for i, e := range raw {
		at := vtime.Time(e.AtNS)
		switch e.Kind {
		case "fault":
			s.FaultAt(at, e.PE)
		case "restore":
			s.RestoreAt(at, e.PE)
		case "set-speed", "dvfs":
			s.SetSpeedAt(at, e.PE, e.Speed)
		case "power-cap":
			s.PowerCapAt(at, e.Watts)
		default:
			return nil, fmt.Errorf("platevent: event %d has unknown kind %q", i, e.Kind)
		}
	}
	return s, nil
}

// ChurnConfig parameterises the seeded Churn generator.
type ChurnConfig struct {
	// NumPEs is the target configuration's PE count (required).
	NumPEs int
	// Horizon bounds event instants to [0, Horizon).
	Horizon vtime.Duration
	// Events is how many events to draw.
	Events int
	// Speeds is the DVFS step ladder SetSpeed draws from; empty
	// disables DVFS events.
	Speeds []float64
	// PowerCaps is the cap ladder PowerCap draws from (a draw of 0
	// lifts the cap); empty disables power-cap events.
	PowerCaps []float64
	// FaultFraction of events are fault/restore churn (default 0.5
	// when faults are possible). The remainder splits evenly between
	// DVFS and power caps, falling back to whichever ladders exist.
	FaultFraction float64
}

// Churn draws a seeded random event schedule: fault/restore pairs
// (never faulting every PE at once — at least one PE stays up, so
// generated schedules cannot deadlock a workload with no restore),
// DVFS steps from the speed ladder, and power-cap toggles. The same
// (seed, config) always produces the identical schedule.
func Churn(seed int64, cc ChurnConfig) *Schedule {
	s := New()
	if cc.NumPEs <= 0 || cc.Events <= 0 || cc.Horizon <= 0 {
		return s
	}
	ff := cc.FaultFraction
	if ff <= 0 {
		ff = 0.5
	}
	if ff > 1 {
		ff = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// Draw the instants up front and sort them so the up/down state
	// tracked below evolves in application (time) order — otherwise a
	// fault drawn late but timestamped early could blackout the
	// platform when the stream is replayed sorted.
	ats := make([]vtime.Time, cc.Events)
	for i := range ats {
		ats[i] = vtime.Time(rng.Int63n(int64(cc.Horizon)))
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	down := make([]bool, cc.NumPEs)
	nDown := 0
	for i := 0; i < cc.Events; i++ {
		at := ats[i]
		r := rng.Float64()
		switch {
		case r < ff:
			// Fault/restore churn: restore a down PE half the time once
			// any are down, otherwise fault one more — but never the
			// last healthy PE.
			if nDown > 0 && (rng.Intn(2) == 0 || nDown >= cc.NumPEs-1) {
				pe := pickState(rng, down, true)
				s.RestoreAt(at, pe)
				down[pe] = false
				nDown--
			} else if nDown < cc.NumPEs-1 {
				pe := pickState(rng, down, false)
				s.FaultAt(at, pe)
				down[pe] = true
				nDown++
			}
		case len(cc.Speeds) > 0 && (r < ff+(1-ff)/2 || len(cc.PowerCaps) == 0):
			s.SetSpeedAt(at, rng.Intn(cc.NumPEs), cc.Speeds[rng.Intn(len(cc.Speeds))])
		case len(cc.PowerCaps) > 0:
			s.PowerCapAt(at, cc.PowerCaps[rng.Intn(len(cc.PowerCaps))])
		}
	}
	return s
}

// pickState draws a uniformly random PE whose down-state matches want.
func pickState(rng *rand.Rand, down []bool, want bool) int {
	n := 0
	for _, d := range down {
		if d == want {
			n++
		}
	}
	k := rng.Intn(n)
	for i, d := range down {
		if d == want {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1 // unreachable: caller guarantees n > 0
}
