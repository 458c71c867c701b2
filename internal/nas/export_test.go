package nas

// Test-only exports.

// FFTForTest exposes the radix-2 FFT for validation against a direct DFT;
// the inverse is scaled by 1/n.
func FFTForTest(a []complex128, inverse bool) {
	fftRadix2(a, newTwiddles(len(a), inverse))
	if inverse {
		inv := complex(1/float64(len(a)), 0)
		for i := range a {
			a[i] *= inv
		}
	}
}

// ProcGrid2DForTest exposes the process-grid factorization.
func ProcGrid2DForTest(p int) (int, int) { return procGrid2D(p) }
