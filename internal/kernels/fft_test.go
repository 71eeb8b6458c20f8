package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randComplex(rng *rand.Rand, n int) []complex64 {
	x := make([]complex64, n)
	for i := range x {
		x[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return x
}

func maxErr(a, b []complex64) float64 {
	var worst float64
	for i := range a {
		d := cmplx.Abs(complex128(a[i]) - complex128(b[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := FFTInPlace(make([]complex64, 3)); err == nil {
		t.Fatalf("FFT accepted length 3")
	}
	if err := IFFTInPlace(make([]complex64, 0)); err == nil {
		t.Fatalf("IFFT accepted length 0")
	}
}

func TestFFTKnownValues(t *testing.T) {
	// Impulse transforms to all-ones.
	x := make([]complex64, 8)
	x[0] = 1
	if err := FFTInPlace(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(complex128(v)-1) > 1e-5 {
			t.Fatalf("FFT(impulse)[%d] = %v, want 1", i, v)
		}
	}
	// Constant transforms to a scaled impulse.
	y := make([]complex64, 8)
	for i := range y {
		y[i] = 1
	}
	if err := FFTInPlace(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(complex128(y[0])-8) > 1e-5 {
		t.Fatalf("FFT(ones)[0] = %v, want 8", y[0])
	}
	for i := 1; i < 8; i++ {
		if cmplx.Abs(complex128(y[i])) > 1e-5 {
			t.Fatalf("FFT(ones)[%d] = %v, want 0", i, y[i])
		}
	}
	// A pure tone lands in exactly one bin.
	n := 16
	tone := make([]complex64, n)
	k := 3
	for i := range tone {
		ang := 2 * math.Pi * float64(k) * float64(i) / float64(n)
		tone[i] = complex(float32(math.Cos(ang)), float32(math.Sin(ang)))
	}
	if err := FFTInPlace(tone); err != nil {
		t.Fatal(err)
	}
	for i := range tone {
		want := 0.0
		if i == k {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(complex128(tone[i]))-want) > 1e-3 {
			t.Fatalf("tone bin %d = %v, want magnitude %v", i, tone[i], want)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		src := randComplex(rng, n)
		want := make([]complex64, n)
		if err := DFTNaive(want, src); err != nil {
			t.Fatal(err)
		}
		got := append([]complex64(nil), src...)
		if err := FFTInPlace(got); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(got, want); e > 1e-2 {
			t.Fatalf("n=%d: FFT vs naive DFT max error %v", n, e)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 16, 128, 1024} {
		orig := randComplex(rng, n)
		x := append([]complex64(nil), orig...)
		if err := FFTInPlace(x); err != nil {
			t.Fatal(err)
		}
		if err := IFFTInPlace(x); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(x, orig); e > 1e-3 {
			t.Fatalf("n=%d: IFFT(FFT(x)) error %v", n, e)
		}
	}
}

// Property: the FFT round trip is the identity (within float32
// tolerance) and Parseval's energy relation holds.
func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, szExp uint8) bool {
		n := 1 << (szExp%8 + 1) // 2..256
		r := rand.New(rand.NewSource(seed))
		_ = rng
		orig := randComplex(r, n)
		x := append([]complex64(nil), orig...)
		if FFTInPlace(x) != nil {
			return false
		}
		var eTime, eFreq float64
		for i := range orig {
			eTime += float64(real(orig[i]))*float64(real(orig[i])) + float64(imag(orig[i]))*float64(imag(orig[i]))
			eFreq += float64(real(x[i]))*float64(real(x[i])) + float64(imag(x[i]))*float64(imag(x[i]))
		}
		if eTime > 0 && math.Abs(eFreq/float64(n)-eTime)/eTime > 1e-3 {
			return false
		}
		if IFFTInPlace(x) != nil {
			return false
		}
		return maxErr(x, orig) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIDFTInvertsDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 32
	src := randComplex(rng, n)
	freq := make([]complex64, n)
	back := make([]complex64, n)
	if err := DFTNaive(freq, src); err != nil {
		t.Fatal(err)
	}
	if err := IDFTNaive(back, freq); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(back, src); e > 1e-3 {
		t.Fatalf("IDFT(DFT(x)) error %v", e)
	}
}

func TestDFTShapeErrors(t *testing.T) {
	if err := DFTNaive(make([]complex64, 3), make([]complex64, 4)); err == nil {
		t.Fatal("DFTNaive accepted mismatched lengths")
	}
	if err := IDFTNaive(make([]complex64, 3), make([]complex64, 4)); err == nil {
		t.Fatal("IDFTNaive accepted mismatched lengths")
	}
}

func TestFFTShift(t *testing.T) {
	x := []complex64{0, 1, 2, 3}
	FFTShift(x)
	want := []complex64{2, 3, 0, 1}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("FFTShift = %v, want %v", x, want)
		}
	}
	// Applying the shift twice on even lengths is the identity.
	y := []complex64{5, 6, 7, 8, 9, 10, 11, 12}
	orig := append([]complex64(nil), y...)
	FFTShift(y)
	FFTShift(y)
	for i := range orig {
		if y[i] != orig[i] {
			t.Fatalf("double FFTShift not identity: %v", y)
		}
	}
	// Odd length: rotation by (n+1)/2.
	z := []complex64{1, 2, 3}
	FFTShift(z)
	wantOdd := []complex64{3, 1, 2}
	for i := range wantOdd {
		if z[i] != wantOdd[i] {
			t.Fatalf("odd FFTShift = %v, want %v", z, wantOdd)
		}
	}
	// Degenerate sizes must not panic.
	FFTShift(nil)
	FFTShift([]complex64{42})
}

func TestLFMChirpProperties(t *testing.T) {
	n := 256
	chirp := make([]complex64, n)
	LFMChirp(chirp, 0.5)
	for i, c := range chirp {
		mag := math.Hypot(float64(real(c)), float64(imag(c)))
		if math.Abs(mag-1) > 1e-5 {
			t.Fatalf("chirp sample %d magnitude %v, want 1", i, mag)
		}
	}
	// Autocorrelation peaks at zero lag: matched filtering the chirp
	// against itself must find lag 0 decisively.
	lag, _ := MatchFilter(chirp, chirp)
	if lag != 0 {
		t.Fatalf("chirp autocorrelation peak at lag %d, want 0", lag)
	}
	LFMChirp(nil, 0.5) // must not panic
}

func TestConjVecMul(t *testing.T) {
	a := []complex64{complex(1, 2), complex(3, -4)}
	b := []complex64{complex(5, 6), complex(-7, 8)}
	dst := make([]complex64, 2)
	if err := VecMul(dst, a, b); err != nil {
		t.Fatal(err)
	}
	// (1+2i)(5+6i) = 5+6i+10i-12 = -7+16i
	if dst[0] != complex(-7, 16) {
		t.Fatalf("VecMul[0] = %v", dst[0])
	}
	if err := VecMulConj(dst, a, b); err != nil {
		t.Fatal(err)
	}
	// (1+2i)(5-6i) = 5-6i+10i+12 = 17+4i
	if dst[0] != complex(17, 4) {
		t.Fatalf("VecMulConj[0] = %v", dst[0])
	}
	x := []complex64{complex(1, 2)}
	ConjInPlace(x)
	if x[0] != complex(1, -2) {
		t.Fatalf("ConjInPlace = %v", x[0])
	}
	if err := VecMul(dst, a, b[:1]); err == nil {
		t.Fatal("VecMul accepted mismatched lengths")
	}
	if err := VecMulConj(dst[:1], a, b); err == nil {
		t.Fatal("VecMulConj accepted mismatched lengths")
	}
}

// Property: VecMulConj(x, x) is real non-negative (|x|^2).
func TestVecMulConjSelfProperty(t *testing.T) {
	f := func(re, im float32) bool {
		a := []complex64{complex(re, im)}
		dst := make([]complex64, 1)
		if VecMulConj(dst, a, a) != nil {
			return false
		}
		return real(dst[0]) >= 0 && imag(dst[0]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbsIndex(t *testing.T) {
	idx, mag := MaxAbsIndex(nil)
	if idx != -1 || mag != 0 {
		t.Fatalf("empty MaxAbsIndex = %d,%v", idx, mag)
	}
	x := []complex64{1, complex(0, -5), 3}
	idx, mag = MaxAbsIndex(x)
	if idx != 1 || math.Abs(mag-5) > 1e-6 {
		t.Fatalf("MaxAbsIndex = %d,%v, want 1,5", idx, mag)
	}
	// First maximum wins ties.
	y := []complex64{2, complex(0, 2)}
	if idx, _ := MaxAbsIndex(y); idx != 0 {
		t.Fatalf("tie break index %d, want 0", idx)
	}
}

func TestTranspose(t *testing.T) {
	// 2x3 matrix.
	src := []complex64{1, 2, 3, 4, 5, 6}
	dst := make([]complex64, 6)
	if err := Transpose(dst, src, 2, 3); err != nil {
		t.Fatal(err)
	}
	want := []complex64{1, 4, 2, 5, 3, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Transpose = %v, want %v", dst, want)
		}
	}
	if err := Transpose(dst, src, 3, 3); err == nil {
		t.Fatal("Transpose accepted bad shape")
	}
	// Double transpose is the identity.
	back := make([]complex64, 6)
	if err := Transpose(back, dst, 3, 2); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("transpose involution broken: %v", back)
		}
	}
}

func TestDelay(t *testing.T) {
	x := []complex64{1, 2, 3, 4}
	d := Delay(x, 2)
	want := []complex64{0, 0, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Delay = %v, want %v", d, want)
		}
	}
}

// refFFT and refFFT64 are fftInPlace and fft64InPlace as they stood
// before the twiddle tables — one math.Cos/math.Sin pair per butterfly
// — transcribed verbatim. They are the reference the table-driven loops
// must match bit for bit; do not "tidy" them.
func refFFT(x []complex64, inverse bool) {
	n := len(x)
	if n == 1 {
		return
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				angle := step * float64(k)
				wr, wi := math.Cos(angle), math.Sin(angle)
				a := x[start+k]
				b := x[start+k+half]
				br := float64(real(b))*wr - float64(imag(b))*wi
				bi := float64(real(b))*wi + float64(imag(b))*wr
				x[start+k] = complex(float32(float64(real(a))+br), float32(float64(imag(a))+bi))
				x[start+k+half] = complex(float32(float64(real(a))-br), float32(float64(imag(a))-bi))
			}
		}
	}
	if inverse {
		inv := float32(1.0 / float64(n))
		for i := range x {
			x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
		}
	}
}

func refFFT64(x []complex128, inverse bool) {
	n := len(x)
	if n == 1 {
		return
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				angle := step * float64(k)
				w := complex(math.Cos(angle), math.Sin(angle))
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

type bitInput struct {
	name string
	x    []complex128
}

// bitInputs returns the differential's inputs of length n: dense
// random-normal data, and sparse signed-zero data salted with one
// special value each — sparse so that a single Inf or NaN does not turn
// every output into NaN and hide the rest, signed zeros because the
// k = 0 twiddle's sine is −0 forward and +0 inverse and only a zero
// operand shows which one was used. tiny and huge are the precision
// under test's smallest subnormal and a value whose sums overflow.
func bitInputs(rng *rand.Rand, n int, tiny, huge float64) []bitInput {
	zero := func() float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	normal := make([]complex128, n)
	for i := range normal {
		normal[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	in := []bitInput{{"normal", normal}}
	for _, salt := range []struct {
		name    string
		special float64
	}{
		{"zeros", 0}, {"+inf", math.Inf(1)}, {"-inf", math.Inf(-1)}, {"nan", math.NaN()},
		{"subnormal", tiny}, {"-subnormal", -tiny}, {"near-max", huge},
	} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(zero(), zero())
		}
		if salt.name != "zeros" {
			for j := 0; j < 1+n/16; j++ {
				i := rng.Intn(n)
				switch rng.Intn(3) {
				case 0:
					x[i] = complex(salt.special, imag(x[i]))
				case 1:
					x[i] = complex(real(x[i]), salt.special)
				default:
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}
		}
		in = append(in, bitInput{salt.name, x})
	}
	return in
}

// bits32 and bits64 are a complex value's exact bit patterns, so that
// −0 ≠ +0 and a NaN equals only the same NaN.
func bits32(v complex64) [2]uint32 {
	return [2]uint32{math.Float32bits(real(v)), math.Float32bits(imag(v))}
}

func bits64(v complex128) [2]uint64 {
	return [2]uint64{math.Float64bits(real(v)), math.Float64bits(imag(v))}
}

// fftBitSizes is 2…2^14 plus one size past the retention bound, whose
// table is built per call.
func fftBitSizes() []int {
	var sizes []int
	for lg := 1; lg <= 14; lg++ {
		sizes = append(sizes, 1<<lg)
	}
	return append(sizes, 1<<(maxTwiddleLog2+1))
}

func TestFFTBitIdenticalToDirectTrig(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range fftBitSizes() {
		inputs := bitInputs(rng, n, math.SmallestNonzeroFloat32, 0.75*math.MaxFloat32)
		if n > 1<<maxTwiddleLog2 {
			inputs = inputs[:1] // the dense input alone: direct trig is slow here
		}
		for _, in := range inputs {
			for _, inverse := range []bool{false, true} {
				got := make([]complex64, n)
				for i, v := range in.x {
					got[i] = complex64(v)
				}
				want := append([]complex64(nil), got...)
				refFFT(want, inverse)
				if err := fftInPlace(got, inverse); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if bits32(got[i]) != bits32(want[i]) {
						t.Fatalf("n=%d %s inverse=%v: x[%d] = %v %#x, direct trig gives %v %#x",
							n, in.name, inverse, i, got[i], bits32(got[i]), want[i], bits32(want[i]))
					}
				}
			}
		}
	}
}

func TestFFT64BitIdenticalToDirectTrig(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range fftBitSizes() {
		inputs := bitInputs(rng, n, math.SmallestNonzeroFloat64, 0.75*math.MaxFloat64)
		if n > 1<<maxTwiddleLog2 {
			inputs = inputs[:1]
		}
		for _, in := range inputs {
			for _, inverse := range []bool{false, true} {
				got := append([]complex128(nil), in.x...)
				want := append([]complex128(nil), in.x...)
				refFFT64(want, inverse)
				if err := fft64InPlace(got, inverse); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if bits64(got[i]) != bits64(want[i]) {
						t.Fatalf("n=%d %s inverse=%v: x[%d] = %v %#x, direct trig gives %v %#x",
							n, in.name, inverse, i, got[i], bits64(got[i]), want[i], bits64(want[i]))
					}
				}
			}
		}
	}
}

// TestTwiddleTableEntries checks the table against the angle every
// stage computed before it existed: entry k·(n/size) is the cos/sin of
// (−2π/size)·k, and negating its sine gives the inverse's (+2π/size)·k.
func TestTwiddleTableEntries(t *testing.T) {
	for lg := 1; lg <= maxTwiddleLog2+1; lg++ {
		n := 1 << lg
		tw := twiddles(n)
		if len(tw) != n/2 {
			t.Fatalf("n=%d: table has %d entries, want %d", n, len(tw), n/2)
		}
		for _, sign := range []float64{-1, 1} {
			for size := 2; size <= n; size <<= 1 {
				step := sign * 2 * math.Pi / float64(size)
				for k := 0; k < size/2; k++ {
					angle := step * float64(k)
					w := tw[k*(n/size)]
					wr, wi := real(w), imag(w)
					if sign > 0 {
						wi = -wi
					}
					if math.Float64bits(wr) != math.Float64bits(math.Cos(angle)) ||
						math.Float64bits(wi) != math.Float64bits(math.Sin(angle)) {
						t.Fatalf("n=%d size=%d k=%d sign=%v: table (%v, %v), direct (%v, %v)",
							n, size, k, sign, wr, wi, math.Cos(angle), math.Sin(angle))
					}
				}
			}
		}
	}
}

// TestTwiddleFirstUseConcurrent races the first use of one size from 32
// goroutines (make race runs this package). The slot is cleared first so
// the build really happens here, whatever ran before and under -count.
func TestTwiddleFirstUseConcurrent(t *testing.T) {
	const lg = 15
	twiddleTables[lg].once, twiddleTables[lg].w = sync.Once{}, nil
	rng := rand.New(rand.NewSource(32))
	in := randComplex(rng, 1<<lg)
	want := append([]complex64(nil), in...)
	refFFT(want, false)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := append([]complex64(nil), in...)
			<-start
			if err := FFTInPlace(x); err != nil {
				t.Error(err)
				return
			}
			for i := range x {
				if x[i] != want[i] {
					t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestFFTSteadyStateAllocs: after the first call of a size the
// transforms allocate nothing — no table rebuild, no per-call slice.
func TestFFTSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{128, 256, 1024} {
		x, x64 := randComplex(rng, n), randComplex128(rng, n)
		for _, inverse := range []bool{false, true} {
			run := func() {
				_ = fftInPlace(x, inverse)
				_ = fft64InPlace(x64, inverse)
			}
			run()
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("n=%d inverse=%v: %v allocs per FFT+FFT64 pair, want 0", n, inverse, allocs)
			}
		}
	}
}

func BenchmarkFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{128, 256, 1024, 4096} {
		src := randComplex(rng, n)
		x := make([]complex64, n)
		for _, dir := range []struct {
			name    string
			inverse bool
		}{{"fwd", false}, {"inv", true}} {
			b.Run(fmt.Sprintf("%d/%s", n, dir.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(x, src)
					_ = fftInPlace(x, dir.inverse)
				}
			})
		}
	}
}

func BenchmarkFFT64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randComplex128(rng, 1024)
	x := make([]complex128, len(src))
	b.Run("1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(x, src)
			_ = FFT64InPlace(x)
		}
	})
}

func BenchmarkDFTNaive256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randComplex(rng, 256)
	dst := make([]complex64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DFTNaive(dst, src)
	}
}
