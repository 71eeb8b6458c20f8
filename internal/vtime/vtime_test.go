package vtime

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestDurationUnits(t *testing.T) {
	if Microsecond != 1000 {
		t.Fatalf("Microsecond = %d, want 1000", int64(Microsecond))
	}
	if Millisecond != 1000*1000 {
		t.Fatalf("Millisecond = %d", int64(Millisecond))
	}
	if Second != 1000*1000*1000 {
		t.Fatalf("Second = %d", int64(Second))
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50 * Nanosecond)
	if t1 != 150 {
		t.Fatalf("Add: got %d, want 150", int64(t1))
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub: got %d, want 50", int64(d))
	}
	if !t0.Before(t1) || t0.After(t1) {
		t.Fatalf("ordering predicates inconsistent")
	}
	if t1.Before(t0) || !t1.After(t0) {
		t.Fatalf("ordering predicates inconsistent (reverse)")
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if got := d.Std(); got != 1500*time.Microsecond {
		t.Fatalf("Std: got %v", got)
	}
	if got := FromStd(2 * time.Millisecond); got != 2*Millisecond {
		t.Fatalf("FromStd: got %v", got)
	}
	if got := d.Milliseconds(); got != 1.5 {
		t.Fatalf("Milliseconds: got %v, want 1.5", got)
	}
	if got := d.Microseconds(); got != 1500 {
		t.Fatalf("Microseconds: got %v, want 1500", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds: got %v, want 2", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{2500 * Nanosecond, "2.5us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-2 * Second, "-2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock not at 0")
	}
	if err := c.Advance(10); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if err := c.AdvanceTo(25); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	if c.Now() != 25 {
		t.Fatalf("Now = %d, want 25", int64(c.Now()))
	}
	if err := c.AdvanceTo(24); !errors.Is(err, ErrBackwards) {
		t.Fatalf("backwards AdvanceTo: err = %v, want ErrBackwards", err)
	}
	if err := c.Advance(-1); !errors.Is(err, ErrBackwards) {
		t.Fatalf("negative Advance: err = %v, want ErrBackwards", err)
	}
	// AdvanceTo the same instant is allowed.
	if err := c.AdvanceTo(25); err != nil {
		t.Fatalf("AdvanceTo(now): %v", err)
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset did not zero the clock")
	}
}

// Property: for any sequence of non-negative advances, the clock never
// decreases and equals the prefix sum.
func TestClockPrefixSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		var c Clock
		var sum int64
		for _, s := range steps {
			if err := c.Advance(Duration(s)); err != nil {
				return false
			}
			sum += int64(s)
			if int64(c.Now()) != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterDeterministic(t *testing.T) {
	a := NewJitter(7, 0.05)
	b := NewJitter(7, 0.05)
	for i := 0; i < 100; i++ {
		d := Duration(1000 + i)
		if x, y := a.Scale(d), b.Scale(d); x != y {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, x, y)
		}
	}
}

func TestJitterDisabled(t *testing.T) {
	j := NewJitter(1, 0)
	if got := j.Scale(12345); got != 12345 {
		t.Fatalf("sigma=0 must be identity, got %d", int64(got))
	}
	var nilJ *Jitter
	if got := nilJ.Scale(99); got != 99 {
		t.Fatalf("nil jitter must be identity, got %d", int64(got))
	}
	j2 := NewJitter(1, 0.5)
	if got := j2.Scale(0); got != 0 {
		t.Fatalf("zero duration must stay zero, got %d", int64(got))
	}
}

func TestJitterPositiveAndCentered(t *testing.T) {
	j := NewJitter(42, 0.05)
	const n = 20000
	base := Duration(1_000_000)
	var sum float64
	for i := 0; i < n; i++ {
		d := j.Scale(base)
		if d <= 0 {
			t.Fatalf("non-positive jittered duration %d", int64(d))
		}
		sum += float64(d) / float64(base)
	}
	mean := sum / n
	// Log-normal with sigma=0.05 has mean exp(sigma^2/2) ~ 1.00125.
	if mean < 0.99 || mean > 1.01 {
		t.Fatalf("jitter mean %v drifted from 1", mean)
	}
}

func TestJitterSpreadGrowsWithSigma(t *testing.T) {
	spread := func(sigma float64) float64 {
		j := NewJitter(1, sigma)
		base := Duration(1_000_000)
		lo, hi := base, base
		for i := 0; i < 5000; i++ {
			d := j.Scale(base)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		return float64(hi-lo) / float64(base)
	}
	if s1, s2 := spread(0.01), spread(0.10); s2 <= s1 {
		t.Fatalf("spread did not grow with sigma: %v vs %v", s1, s2)
	}
}
