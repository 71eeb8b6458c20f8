package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vtime"
)

// onlineGoldenSHA256 is the SHA-256 of every value onlineGoldenDigest
// pins. Any change to what Wait, Response, the counts or String()
// report moves it, so a host-only change to the sink must leave it
// alone.
const onlineGoldenSHA256 = "051e357d0596d9967703765b9004a24da4d8cbe85a41775099af4791a35f846f"

// goldenHasher accumulates pinned values as their exact bit patterns.
type goldenHasher struct{ h hash.Hash }

func (g goldenHasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	g.h.Write(b[:])
}

func (g goldenHasher) f64(v float64) { g.u64(math.Float64bits(v)) }

// dist pins Count, Mean and every DefaultQuantiles estimate.
func (g goldenHasher) dist(d *Dist) {
	g.u64(uint64(d.Count()))
	g.f64(d.Mean())
	for _, p := range DefaultQuantiles {
		g.f64(d.Quantile(p))
	}
}

// goldenWait draws record i's wait time. The stream is cut into
// phases so the P² markers see every regime they branch on: random
// exponential waits, a run of duplicates (zeros among them), a
// monotone ramp, and a bimodal heavy tail.
func goldenWait(rng *rand.Rand, i int) int64 {
	switch {
	case i < 200_000:
		return int64(rng.ExpFloat64() * 1000)
	case i < 300_000:
		if i%3 == 0 {
			return 0
		}
		return 777
	case i < 400_000:
		return int64(i - 300_000)
	default:
		if rng.Intn(10) == 0 {
			return 50_000 + int64(rng.ExpFloat64()*20_000)
		}
		return int64(rng.NormFloat64()*100) + 2_000
	}
}

// onlineGoldenDigest feeds one Online one million seeded task records
// (and an application record every fourth task) behind a warm-up trim,
// and a bare Dist one million seeded observations with NaNs mixed in.
// It hashes both at the start-up checkpoints below five samples, every
// 2^17 records, and at the end.
func onlineGoldenDigest() string {
	const n = 1_000_000
	g := goldenHasher{sha256.New()}
	rng := rand.New(rand.NewSource(37))

	// Records 0..7 are ready before the warm-up instant and trimmed.
	o := NewOnline(vtime.Time(8 * 1000))
	pinOnline := func() {
		g.u64(uint64(o.TasksSeen))
		g.u64(uint64(o.AppsSeen))
		g.dist(&o.Wait)
		g.dist(&o.Response)
		g.h.Write([]byte(o.String()))
	}
	for i := 0; i < n; i++ {
		ready := vtime.Time(int64(i) * 1000)
		start := ready + vtime.Time(goldenWait(rng, i))
		end := start + vtime.Time(1+rng.Int63n(5000))
		o.RecordTask(TaskRecord{PEID: rng.Intn(12), Ready: ready, Start: start, End: end})
		if i%4 == 0 {
			arrival := ready - vtime.Time(rng.Int63n(4000))
			o.RecordApp(AppRecord{Arrival: arrival, Done: end + vtime.Time(rng.Int63n(3000))})
		}
		if i < 40 || i%(1<<17) == 0 {
			pinOnline()
		}
	}
	pinOnline()

	d := newDist(DefaultQuantiles)
	for i := 0; i < n; i++ {
		var x float64
		switch {
		case i%97 == 3:
			x = math.NaN()
		case i < 300_000:
			x = rng.NormFloat64()*5 + 10
		case i < 400_000:
			x = 3.25
		case i < 500_000:
			x = -float64(i)
		default:
			x = rng.ExpFloat64() * 1e6
		}
		d.Add(x)
		if i < 12 || i%(1<<17) == 0 {
			g.dist(&d)
		}
	}
	g.dist(&d)
	return hex.EncodeToString(g.h.Sum(nil))
}

// TestOnlineGolden pins everything the ledger, the saturation CSV and
// the daemon read from an Online — counts, means, tracked quantiles
// and String() — bit for bit over a long seeded stream.
func TestOnlineGolden(t *testing.T) {
	if got := onlineGoldenDigest(); got != onlineGoldenSHA256 {
		t.Fatalf("Online golden digest = %s, want %s", got, onlineGoldenSHA256)
	}
}
