package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// This file holds the spectral kernels: radix-2 FFT/IFFT, the naive
// DFT/IDFT the compilation toolchain detects and replaces (Case Study
// 4), and FFT-shift. Data is interleaved complex64, the wire format
// the applications exchange through instance memory; arithmetic runs
// in float64 internally for accuracy.

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// maxTwiddleLog2 bounds the retained twiddle tables: at n = 2^16 a
// table is 512 KiB, never more than the buffer being transformed.
// Larger transforms build theirs per call.
const maxTwiddleLog2 = 16

// twiddleTables[log2 n] is the process-wide forward twiddle table of
// size n, built on first use and never written again, so concurrent
// sweep workers and daemon cells read it without a lock.
var twiddleTables [maxTwiddleLog2 + 1]struct {
	once sync.Once
	w    []complex128
}

// twiddles returns w[k] = cos(step·k) + i·sin(step·k), step = −2π/n,
// for k < n/2. A radix-2 stage of width size reads w[k·(n/size)], and
// that is bit-for-bit the cos/sin of its own angle (−2π/size)·k: the
// two steps differ by the exact power of two n/size and so do the two
// indices, so both products are one real number rounded once. The
// inverse transform negates the imaginary part; math.Sin is odd and
// math.Cos even bit-for-bit.
func twiddles(n int) []complex128 {
	lg := bits.TrailingZeros(uint(n))
	if lg > maxTwiddleLog2 {
		return buildTwiddles(n)
	}
	t := &twiddleTables[lg]
	t.once.Do(func() { t.w = buildTwiddles(n) })
	return t.w
}

func buildTwiddles(n int) []complex128 {
	w := make([]complex128, n/2)
	step := -2 * math.Pi / float64(n)
	for k := range w {
		angle := step * float64(k)
		w[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	return w
}

// FFTInPlace computes the in-place radix-2 decimation-in-time FFT of
// x. len(x) must be a power of two.
func FFTInPlace(x []complex64) error { return fftInPlace(x, false) }

// IFFTInPlace computes the inverse FFT, normalised by 1/n, so that
// IFFT(FFT(x)) == x up to rounding.
func IFFTInPlace(x []complex64) error { return fftInPlace(x, true) }

func fftInPlace(x []complex64, inverse bool) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("kernels: FFT length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := twiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				wr, wi := real(tw[k*stride]), imag(tw[k*stride])
				if inverse {
					wi = -wi
				}
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
	return nil
}

// DFTNaive computes dst[k] = sum_j src[j]*exp(-2*pi*i*j*k/n) with the
// O(n^2) textbook double loop. It is the reference the FFT is tested
// against, and the "naive for loop-based DFT" that Case Study 4's
// toolchain recognises and replaces with the FFT.
func DFTNaive(dst, src []complex64) error {
	n := len(src)
	if len(dst) != n {
		return fmt.Errorf("kernels: DFT dst length %d != src length %d", len(dst), n)
	}
	for k := 0; k < n; k++ {
		var sr, si float64
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			wr, wi := math.Cos(angle), math.Sin(angle)
			xr, xi := float64(real(src[j])), float64(imag(src[j]))
			sr += xr*wr - xi*wi
			si += xr*wi + xi*wr
		}
		dst[k] = complex(float32(sr), float32(si))
	}
	return nil
}

// IDFTNaive is the O(n^2) inverse transform with 1/n normalisation.
func IDFTNaive(dst, src []complex64) error {
	n := len(src)
	if len(dst) != n {
		return fmt.Errorf("kernels: IDFT dst length %d != src length %d", len(dst), n)
	}
	for k := 0; k < n; k++ {
		var sr, si float64
		for j := 0; j < n; j++ {
			angle := 2 * math.Pi * float64(j) * float64(k) / float64(n)
			wr, wi := math.Cos(angle), math.Sin(angle)
			xr, xi := float64(real(src[j])), float64(imag(src[j]))
			sr += xr*wr - xi*wi
			si += xr*wi + xi*wr
		}
		dst[k] = complex(float32(sr/float64(n)), float32(si/float64(n)))
	}
	return nil
}

// FFTShift rotates the spectrum by n/2 in place, moving the zero
// frequency bin to the centre (the pulse Doppler post-processing step
// in Figure 8).
func FFTShift(x []complex64) {
	n := len(x)
	if n < 2 {
		return
	}
	h := n / 2
	if n%2 == 0 {
		for i := 0; i < h; i++ {
			x[i], x[i+h] = x[i+h], x[i]
		}
		return
	}
	// Odd length: rotate left by h+... use a simple rotation.
	rotate(x, h+1)
}

func rotate(x []complex64, k int) {
	n := len(x)
	k %= n
	if k == 0 {
		return
	}
	reverse(x[:k])
	reverse(x[k:])
	reverse(x)
}

func reverse(x []complex64) {
	for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
		x[i], x[j] = x[j], x[i]
	}
}
