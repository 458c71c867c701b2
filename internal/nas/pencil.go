package nas

import (
	"encoding/binary"
	"math"

	"spam/internal/mpi"
)

// nv is the number of solution variables per grid point in LU, BT and SP.
const nv = 5

// pencil is the decomposition LU, BT and SP share: nv variables per point
// of a cubic grid, the x-y plane split over a px x py process grid, and
// the full z extent local to every rank. Axis 0 is x, axis 1 is y.
type pencil struct {
	grid [2]int    // process grid: px, py
	at   [2]int    // this rank's place in it
	ext  [2]int    // local extent in x and y
	n    int       // grid edge, and the local extent in z
	u    []float64 // ext[0] x ext[1] x n points, nv values each
}

func newPencil(c mpi.PT, n int) *pencil {
	px, py := procGrid2D(c.Size())
	me := c.Rank()
	g := &pencil{grid: [2]int{px, py}, at: [2]int{me % px, me / px}, ext: [2]int{n / px, n / py}, n: n}
	g.u = make([]float64, g.ext[0]*g.ext[1]*n*nv)
	return g
}

// neighbor returns the rank d places away along axis, or -1 past the
// grid's edge.
func (g *pencil) neighbor(axis, d int) int {
	at := g.at
	at[axis] += d
	if at[axis] < 0 || at[axis] >= g.grid[axis] {
		return -1
	}
	return at[1]*g.grid[0] + at[0]
}

// boundary is the local index of the boundary face toward the neighbor d
// places along axis: 0 for d < 0, the last index for d > 0.
func (g *pencil) boundary(axis, d int) int {
	if d < 0 {
		return 0
	}
	return g.ext[axis] - 1
}

// faceBytes is the wire size of a boundary face normal to axis over the
// given number of z-planes.
func (g *pencil) faceBytes(axis, planes int) int { return planes * g.ext[1-axis] * nv * 8 }

// face locates the boundary face x == at (axis 0) or y == at (axis 1) in
// u: its first value's index within a plane, its point count per plane,
// and the distance in u between consecutive points.
func (g *pencil) face(axis, at int) (start, count, step int) {
	stride := [2]int{nv, g.ext[0] * nv}
	return at * stride[axis], g.ext[1-axis], stride[1-axis]
}

// pack encodes planes [z0, z1) of the boundary face (axis, at) into b in
// wire order: z, then the face's other axis, then v.
func (g *pencil) pack(b []byte, axis, at, z0, z1 int) {
	start, count, step := g.face(axis, at)
	plane := g.ext[0] * g.ext[1] * nv
	for z := z0; z < z1; z++ {
		for k := 0; k < count; k++ {
			for _, x := range g.u[z*plane+start+k*step:][:nv] {
				binary.LittleEndian.PutUint64(b, math.Float64bits(x))
				b = b[8:]
			}
		}
	}
}

// fold adds coef times each value in b, read in pack's wire order, to
// planes [z0, z1) of the boundary face (axis, at).
func (g *pencil) fold(b []byte, axis, at, z0, z1 int, coef float64) {
	start, count, step := g.face(axis, at)
	plane := g.ext[0] * g.ext[1] * nv
	for z := z0; z < z1; z++ {
		for k := 0; k < count; k++ {
			vals := g.u[z*plane+start+k*step:][:nv]
			for v := range vals {
				vals[v] += coef * math.Float64frombits(binary.LittleEndian.Uint64(b))
				b = b[8:]
			}
		}
	}
}

// sumSquares is the sum of every stride-th value of u squared.
func (g *pencil) sumSquares(stride int) float64 {
	var s float64
	for i := 0; i < len(g.u); i += stride {
		s += g.u[i] * g.u[i]
	}
	return s
}
