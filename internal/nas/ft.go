package nas

import (
	"math"
	"math/cmplx"

	"spam/internal/sim"
)

// FTConfig sizes the FT kernel. Class A is a 256x256x128 grid with 6
// evolution steps; the scaled default is 64^3 with the same 6 steps, which
// preserves FT's defining property: the whole grid crosses the network in
// an MPI_Alltoall every iteration (the bottleneck Table 6 discusses).
type FTConfig struct {
	N     int // cubic grid edge (power of two)
	Iters int
}

// DefaultFT returns the scaled FT configuration.
func DefaultFT() FTConfig { return FTConfig{N: 64, Iters: 6} }

// FT builds the kernel: a 3-D FFT evolution. The grid is slab-decomposed
// in z; each step does local 2-D FFTs, transposes slabs via Alltoall, does
// the z FFTs, applies the spectral evolution factor, and checksums. Its
// host loops keep each expression's operands and order, so the checksum is
// exact.
func FT(cfg FTConfig) Kernel {
	return func(p *sim.Proc, env *Env) float64 {
		c := env.C
		P := c.Size()
		me := c.Rank()
		n := cfg.N
		nn := n * n
		lz := n / P // local planes

		// Local slab: planes [me*lz, (me+1)*lz), each n x n, row-major.
		// The real part is (x*7 + y*3 + z) mod 17 and the imaginary part
		// (x + y*5 + z*11) mod 13, stepped along each row.
		data := make([]complex128, lz*nn)
		for pl := 0; pl < lz; pl++ {
			gz := me*lz + pl
			for y := 0; y < n; y++ {
				re, im := (y*3+gz)%17, (y*5+gz*11)%13
				row := data[pl*nn+y*n:][:n]
				for x := range row {
					row[x] = complex(float64(re)/17.0, float64(im)/13.0)
					if re += 7; re >= 17 {
						re -= 17
					}
					if im++; im == 13 {
						im = 0
					}
				}
			}
		}

		tw := newTwiddles(n, false)
		line := make([]complex128, n)
		lineFlops := 5 * float64(n) * math.Log2(float64(n))
		fft1 := func(v []complex128) {
			fftRadix2(v, tw)
			env.Flops(p, lineFlops)
		}

		// Transpose buffers: after the alltoall the slab is decomposed in
		// y instead of z so z-lines become local.
		ly := n / P
		chunk := lz * ly * n * 16 // bytes per (rank pair) block
		sendB := make([]byte, chunk*P)
		recvB := make([]byte, chunk*P)
		tr := make([]complex128, lz*nn)

		var check float64
		for it := 0; it < cfg.Iters; it++ {
			// 1) FFT in x then y on local planes.
			for pl := 0; pl < lz; pl++ {
				plane := data[pl*nn:][:nn]
				for y := 0; y < n; y++ {
					fft1(plane[y*n:][:n])
				}
				for x := 0; x < n; x++ {
					for y, o := 0, x; y < n; y, o = y+1, o+n {
						line[y] = plane[o]
					}
					fft1(line)
					for y, o := 0, x; y < n; y, o = y+1, o+n {
						plane[o] = line[y]
					}
				}
			}

			// 2) Transpose: block (me, q) holds x-lines for y in q's band,
			// which are contiguous rows of each plane.
			for q := 0; q < P; q++ {
				b := sendB[q*chunk:]
				for pl := 0; pl < lz; pl++ {
					rows := data[pl*nn+q*ly*n:][:ly*n]
					putC128s(b, rows)
					b = b[len(rows)*16:]
				}
			}
			c.Alltoall(p, sendB, recvB, chunk)
			// Reassemble: now we own y-band [me*ly,(me+1)*ly) over all z.
			for q := 0; q < P; q++ {
				b := recvB[q*chunk:]
				for pl := 0; pl < lz; pl++ {
					gz := q*lz + pl
					for yy := 0; yy < ly; yy++ {
						getC128s(tr[(yy*n+gz)*n:][:n], b)
						b = b[n*16:]
					}
				}
			}
			env.Flops(p, float64(2*lz*nn)) // pack/unpack cost

			// 3) FFT in z (contiguous after reassembly: tr[(y*n+z)*n+x]).
			for yy := 0; yy < ly; yy++ {
				band := tr[yy*nn:][:nn]
				for x := 0; x < n; x++ {
					for z, o := 0, x; z < n; z, o = z+1, o+n {
						line[z] = band[o]
					}
					fft1(line)
					for z, o := 0, x; z < n; z, o = z+1, o+n {
						band[o] = line[z]
					}
				}
			}

			// 4) Evolve in spectral space and fold back (cheap model of
			// the exponential evolution factor).
			for i := range tr {
				tr[i] *= complex(0.99, 0.002)
			}
			env.Flops(p, float64(6*len(tr)))

			// 5) Checksum via allreduce (the NAS per-iteration checksum).
			var local float64
			for i := 0; i < len(tr); i += 97 {
				local += cmplx.Abs(tr[i])
			}
			check = allreduceSum(p, c, local)

			// Carry the spectral slab into the next iteration's input.
			copy(data, tr)
		}
		return check
	}
}

// newTwiddles returns the butterfly factors of a radix-2 FFT of length n.
// Span ln = 2, 4, ..., n has its ln/2 factors at [ln/2-1, ln-1): w_0 = 1,
// w_j = w_{j-1}*wl with wl = e^(-2*pi*i/ln) (e^(+2*pi*i/ln) for the
// inverse), the recurrence a per-block loop would run, so the factors are
// bit for bit the ones it would multiply by.
func newTwiddles(n int, inverse bool) []complex128 {
	tw := make([]complex128, 0, n)
	for ln := 2; ln <= n; ln <<= 1 {
		ang := 2 * math.Pi / float64(ln)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		w := complex(1, 0)
		for j := 0; j < ln/2; j++ {
			tw = append(tw, w)
			w *= wl
		}
	}
	return tw
}

// fftRadix2 is an in-place iterative radix-2 FFT with the twiddles of
// newTwiddles(len(a), inverse); it does not scale the inverse by 1/n.
func fftRadix2(a, tw []complex128) {
	n := len(a)
	if n&(n-1) != 0 {
		panic("nas: FFT length must be a power of two")
	}
	// Bit reversal.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for half := 1; half < n; half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for i := 0; i < n; i += 2 * half {
			lo, hi := a[i:][:len(w)], a[i+half:][:len(w)]
			for j, wj := range w {
				u := lo[j]
				v := hi[j] * wj
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
}
