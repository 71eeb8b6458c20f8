package kernels

import (
	"fmt"
	"math/bits"
)

// complex128 variants of the spectral kernels, used by the automatic
// conversion toolchain whose interpreter state is float64 (Case Study
// 4's optimised substitutions operate on the outlined program's
// re/im arrays).

// FFT64InPlace is the radix-2 in-place FFT over complex128 data.
func FFT64InPlace(x []complex128) error { return fft64InPlace(x, false) }

// IFFT64InPlace is the normalised inverse transform.
func IFFT64InPlace(x []complex128) error { return fft64InPlace(x, true) }

func fft64InPlace(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("kernels: FFT64 length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}
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
				w := tw[k*stride]
				if inverse {
					w = complex(real(w), -imag(w))
				}
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
	return nil
}
