package sim

// Rand is a small deterministic pseudo-random stream (splitmix64 core) used
// for workload generation and fault injection. It is reproducible across
// runs and platforms, unlike math/rand's global state.
type Rand struct{ state uint64 }

// NewRand returns a stream seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed + 0x9e3779b97f4a7c15} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int31 returns a uniform non-negative int32-ranged int.
func (r *Rand) Int31() int32 { return int32(r.Uint64() >> 33) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fork derives an independent stream; streams forked in the same order from
// the same parent are identical across runs.
func (r *Rand) Fork() *Rand { return NewRand(r.Uint64()) }
