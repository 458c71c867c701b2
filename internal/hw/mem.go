package hw

import "fmt"

// Memory is a node's registered-segment table. Bulk transfers (am_store /
// am_get) name remote memory as (segment, offset) pairs, mirroring the
// paper's "blocks of memory specified by the node initiating the transfer"
// while staying safe in a garbage-collected host language: a segment is just
// a registered byte slice owned by the node's program.
type Memory struct {
	segs []Segment
}

// Segment is one registered block of node memory.
type Segment struct {
	Buf []byte
}

// Addr names a byte range inside a node's registered memory.
type Addr struct {
	Seg int
	Off int
}

// Add registers buf and returns its segment id. Registration order is part
// of the application protocol (e.g. Split-C registers its global heap as
// segment 0 on every node).
func (m *Memory) Add(buf []byte) int {
	m.segs = append(m.segs, Segment{Buf: buf})
	return len(m.segs) - 1
}

// Replace swaps the buffer of an existing segment (used by runtimes that
// re-register a window per operation).
func (m *Memory) Replace(seg int, buf []byte) {
	m.segs[seg].Buf = buf
}

// Slice resolves addr into a writable view of n bytes, panicking on a bad
// address: a wild remote address is a program bug on the initiating node,
// exactly as it would have been on the real machine.
func (m *Memory) Slice(addr Addr, n int) []byte {
	if addr.Seg < 0 || addr.Seg >= len(m.segs) {
		panic(fmt.Sprintf("hw: bad segment %d (have %d)", addr.Seg, len(m.segs)))
	}
	buf := m.segs[addr.Seg].Buf
	if addr.Off < 0 || addr.Off+n > len(buf) {
		panic(fmt.Sprintf("hw: address out of range: seg %d off %d len %d (segment %d bytes)",
			addr.Seg, addr.Off, n, len(buf)))
	}
	return buf[addr.Off : addr.Off+n]
}
