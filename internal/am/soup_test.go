package am_test

import (
	"fmt"
	"testing"

	"spam/internal/am"
	"spam/internal/hw"
	"spam/internal/sim"
)

// TestProtocolSoupUnderLoss is the protocol's strongest property test: a
// random mixture of requests, replies, stores (sync and async), and gets
// of random sizes between four nodes, under random packet loss, must
// deliver every operation exactly once with intact data. Any flow-control
// bug — lost ack recovery, go-back-N off-by-one, chunk reassembly,
// duplicate suppression — shows up as a count or content mismatch.
func TestProtocolSoupUnderLoss(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			const nn = 4
			const opsPerNode = 60
			c := hw.NewCluster(hw.DefaultConfig(nn))
			sys := am.New(c)

			faultRng := sim.NewRand(uint64(trial)*7919 + 13)
			lossPct := trial * 3 // 0%, 3%, ..., 15%
			c.Switch.Fault = hw.DropIf(func(pkt *hw.Packet) bool {
				return lossPct > 0 && faultRng.Intn(100) < lossPct
			})

			// Each node's landing zone: opsPerNode slots of 512B per peer.
			const slot = 512
			segs := make([]int, nn)
			zones := make([][]byte, nn)
			for i, nd := range c.Nodes {
				zones[i] = make([]byte, nn*opsPerNode*slot)
				segs[i] = nd.Mem.Add(zones[i])
			}
			// Local staging for gets.
			lsegs := make([]int, nn)
			lzones := make([][]byte, nn)
			for i, nd := range c.Nodes {
				lzones[i] = make([]byte, opsPerNode*slot)
				lsegs[i] = nd.Mem.Add(lzones[i])
			}

			reqCount := make([]int, nn)
			storeCount := make([]int, nn)
			h := sys.Register(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, args []uint32) {
				reqCount[ep.ID()]++
			})
			bh := sys.RegisterBulk(func(p *sim.Proc, ep *am.Endpoint, tok am.Token, addr hw.Addr, n int, arg uint32) {
				storeCount[ep.ID()]++
			})

			fill := func(buf []byte, me, op int) {
				for i := range buf {
					buf[i] = byte(me*37 + op*11 + i)
				}
			}

			wantReq := make([]int, nn)
			wantStore := make([]int, nn)
			done := 0
			for i := 0; i < nn; i++ {
				i := i
				rng := sim.NewRand(uint64(trial)*100 + uint64(i))
				c.Spawn(i, "soup", func(p *sim.Proc, nd *hw.Node) {
					ep := sys.EPs[i]
					pend := 0
					for op := 0; op < opsPerNode; op++ {
						dst := (i + 1 + rng.Intn(nn-1)) % nn
						switch rng.Intn(4) {
						case 0: // request
							ep.Request(p, dst, h, uint32(op))
							wantReq[dst]++
						case 1: // sync store
							n := 1 + rng.Intn(slot)
							data := make([]byte, n)
							fill(data, i, op)
							off := (i*opsPerNode + op) * slot
							ep.Store(p, dst, hw.Addr{Seg: segs[dst], Off: off}, data, bh, uint32(op))
							wantStore[dst]++
						case 2: // async store
							n := 1 + rng.Intn(slot)
							data := make([]byte, n)
							fill(data, i, op)
							off := (i*opsPerNode + op) * slot
							pend++
							ep.StoreAsync(p, dst, hw.Addr{Seg: segs[dst], Off: off}, data, bh, uint32(op),
								func(q *sim.Proc, e *am.Endpoint) { pend-- })
							wantStore[dst]++
						case 3: // get from dst's zone into my staging
							n := 1 + rng.Intn(slot)
							roff := rng.Intn(len(zones[dst]) - n)
							loff := (op % opsPerNode) * slot
							ep.Get(p, dst, hw.Addr{Seg: segs[dst], Off: roff},
								hw.Addr{Seg: lsegs[i], Off: loff}, n, am.NoHandler)
						}
					}
					for pend > 0 {
						ep.Poll(p)
					}
					done++
					// Keep servicing until the whole soup drains.
					for done < nn || !soupDrained(reqCount, wantReq, storeCount, wantStore) {
						ep.Poll(p)
					}
				})
			}
			c.Run()

			for i := 0; i < nn; i++ {
				if reqCount[i] != wantReq[i] {
					t.Errorf("node %d: %d requests delivered, want %d", i, reqCount[i], wantReq[i])
				}
				if storeCount[i] != wantStore[i] {
					t.Errorf("node %d: %d stores delivered, want %d", i, storeCount[i], wantStore[i])
				}
			}
			if t.Failed() {
				t.Logf("loss=%d%%: retransmits=%d nacks=%d",
					lossPct, sys.EPs[0].Stats.Retransmits, sys.EPs[0].Stats.NacksSent)
			}
		})
	}
}

func soupDrained(got, want, got2, want2 []int) bool {
	for i := range got {
		if got[i] < want[i] || got2[i] < want2[i] {
			return false
		}
	}
	return true
}
