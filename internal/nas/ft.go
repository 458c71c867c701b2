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
// the z FFTs, applies the spectral evolution factor, and checksums.
func FT(cfg FTConfig) Kernel {
	return func(p *sim.Proc, env *Env) float64 {
		c := env.C
		P := c.Size()
		me := c.Rank()
		n := cfg.N
		lz := n / P // local planes

		// Local slab: planes [me*lz, (me+1)*lz), each n x n, row-major.
		data := make([]complex128, lz*n*n)
		for i := range data {
			gz := me*lz + i/(n*n)
			rem := i % (n * n)
			gy, gx := rem/n, rem%n
			data[i] = complex(float64((gx*7+gy*3+gz)%17)/17.0,
				float64((gx+gy*5+gz*11)%13)/13.0)
		}

		line := make([]complex128, n)
		fft1 := func(v []complex128) {
			fftRadix2(v, false)
			env.Flops(p, 5*float64(n)*math.Log2(float64(n)))
		}

		// Transpose buffers: after the alltoall the slab is decomposed in
		// y instead of z so z-lines become local.
		chunk := lz * (n / P) * n * 16 // points per (rank pair) block
		sendB := make([]byte, chunk*P)
		recvB := make([]byte, chunk*P)
		tr := make([]complex128, lz*n*n)

		var check float64
		for it := 0; it < cfg.Iters; it++ {
			// 1) FFT in x then y on local planes.
			for pl := 0; pl < lz; pl++ {
				base := pl * n * n
				for y := 0; y < n; y++ {
					copy(line, data[base+y*n:base+(y+1)*n])
					fft1(line)
					copy(data[base+y*n:base+(y+1)*n], line)
				}
				for x := 0; x < n; x++ {
					for y := 0; y < n; y++ {
						line[y] = data[base+y*n+x]
					}
					fft1(line)
					for y := 0; y < n; y++ {
						data[base+y*n+x] = line[y]
					}
				}
			}

			// 2) Transpose: block (me, q) holds x-lines for y in q's band.
			ly := n / P
			pts := lz * ly * n
			blk := make([]complex128, pts)
			for q := 0; q < P; q++ {
				k := 0
				for pl := 0; pl < lz; pl++ {
					for y := q * ly; y < (q+1)*ly; y++ {
						copy(blk[k:k+n], data[pl*n*n+y*n:pl*n*n+y*n+n])
						k += n
					}
				}
				putC128s(sendB[q*chunk:], blk)
			}
			c.Alltoall(p, sendB, recvB, chunk)
			// Reassemble: now we own y-band [me*ly,(me+1)*ly) over all z.
			for q := 0; q < P; q++ {
				getC128s(blk, recvB[q*chunk:])
				k := 0
				for pl := 0; pl < lz; pl++ {
					gz := q*lz + pl
					for yy := 0; yy < ly; yy++ {
						copy(tr[(yy*n+gz)*n:(yy*n+gz)*n+n], blk[k:k+n])
						k += n
					}
				}
			}
			env.Flops(p, float64(2*lz*n*n)) // pack/unpack cost

			// 3) FFT in z (contiguous after reassembly: tr[(y*n+z)*n+x]).
			for yy := 0; yy < ly; yy++ {
				for x := 0; x < n; x++ {
					for z := 0; z < n; z++ {
						line[z] = tr[(yy*n+z)*n+x]
					}
					fft1(line)
					for z := 0; z < n; z++ {
						tr[(yy*n+z)*n+x] = line[z]
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

// fftRadix2 is an in-place iterative radix-2 FFT.
func fftRadix2(a []complex128, inverse bool) {
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
	for ln := 2; ln <= n; ln <<= 1 {
		ang := 2 * math.Pi / float64(ln)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += ln {
			w := complex(1, 0)
			for j := 0; j < ln/2; j++ {
				u := a[i+j]
				v := a[i+j+ln/2] * w
				a[i+j] = u + v
				a[i+j+ln/2] = u - v
				w *= wl
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range a {
			a[i] *= inv
		}
	}
}
