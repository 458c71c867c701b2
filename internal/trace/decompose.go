package trace

import (
	"fmt"
	"io"
	"sort"
)

// Stage is one interval of the round-trip decomposition: the time between
// two consecutive critical-path checkpoints, averaged over iterations.
type Stage struct {
	Name string // short label ("req i860 send")
	Note string // cost attribution ("i860 send processing (SendProc)")

	MeanUS, MinUS, MaxUS float64
}

// Breakdown is a per-stage decomposition of the steady-state ping-pong
// round trip. Because the stages partition each iteration window
// [ReqStart_i, ReqStart_{i+1}) into consecutive intervals, the stage means
// sum *exactly* to the mean iteration period — the measured round-trip time.
type Breakdown struct {
	Stages  []Stage
	Iters   int     // iterations averaged
	TotalUS float64 // sum of stage means == mean round-trip time
}

// The 27 critical-path checkpoints of one request/reply iteration. Between
// checkpoint k and k+1 lies stage k (26 stages). Averaging over a multiple
// of 16 iterations absorbs the lazy-pop batching: every 16th FIFO pop pays
// the MicroChannel access for the whole batch.
var rtStages = [...]struct{ name, note string }{
	{"req build+flush", "am_request build + FIFO-entry cache flush (costReqBuild + FlushPerLine)"},
	{"req commit", "length-array MicroChannel store (MCAccess)"},
	{"req pickup", "adapter length-scan pickup latency (PickupLatency)"},
	{"req i860 send", "i860 send processing (SendProc)"},
	{"req DMA out", "MicroChannel DMA host->adapter (MicroChannelBPS)"},
	{"req inject", "switch injection-port serialization (LinkBPS)"},
	{"req fabric", "switch fabric latency (Latency)"},
	{"req eject", "switch ejection-port serialization (LinkBPS)"},
	{"req i860 recv", "i860 receive processing (RecvProc)"},
	{"req DMA in", "MicroChannel DMA adapter->host (MicroChannelBPS)"},
	{"req FIFO wait", "receive-FIFO residency until the ponger's poll reaches it"},
	{"req pop+deliver", "lazy FIFO pop (MCAccess/16 amortized) + per-message handling (costPerMsg) + dispatch (costDispatch)"},
	{"ponger handler", "request handler body up to am_reply"},
	{"reply build+flush", "am_reply build + FIFO-entry cache flush (costReplyBuild + FlushPerLine)"},
	{"reply commit", "length-array MicroChannel store (MCAccess)"},
	{"reply pickup", "adapter length-scan pickup latency (PickupLatency)"},
	{"reply i860 send", "i860 send processing (SendProc)"},
	{"reply DMA out", "MicroChannel DMA host->adapter (MicroChannelBPS)"},
	{"reply inject", "switch injection-port serialization (LinkBPS)"},
	{"reply fabric", "switch fabric latency (Latency)"},
	{"reply eject", "switch ejection-port serialization (LinkBPS)"},
	{"reply i860 recv", "i860 receive processing (RecvProc)"},
	{"reply DMA in", "MicroChannel DMA adapter->host (MicroChannelBPS)"},
	{"reply FIFO wait", "receive-FIFO residency until the pinger's poll reaches it"},
	{"reply pop+deliver", "lazy FIFO pop (amortized) + per-message handling + dispatch"},
	{"turnaround", "reply handler + poll epilogue + next am_request entry"},
}

// NumStages is the number of intervals in a round-trip decomposition.
const NumStages = len(rtStages)

// pktLife is the first-occurrence time of each event kind for one packet
// (-1 = never seen).
type pktLife [kindMax]int64

func newLife() *pktLife {
	var l pktLife
	for i := range l {
		l[i] = -1
	}
	return &l
}

// DecomposeRoundTrip reconstructs the per-stage timeline of a two-node
// ping-pong (node 0 issues Requests, node 1's handler Replies) from a
// time-sorted event stream and averages the stages across all complete
// iterations found. The caller should Cut the warm-up from the recorder so
// the stream holds only steady-state iterations.
func DecomposeRoundTrip(evs []Event) (*Breakdown, error) {
	const pinger, ponger = 0, 1
	life := map[int64]*pktLife{}
	var reqStarts []int64
	type stamped struct {
		t   int64
		pkt int64
	}
	var reqStaged, replyStaged []stamped
	var replyStarts []int64

	for _, e := range evs {
		if e.Pkt != 0 {
			l := life[e.Pkt]
			if l == nil {
				l = newLife()
				life[e.Pkt] = l
			}
			if l[e.Kind] < 0 {
				l[e.Kind] = e.T
			}
		}
		switch e.Kind {
		case EvReqStart:
			if int(e.Node) == pinger {
				reqStarts = append(reqStarts, e.T)
			}
		case EvReplyStart:
			if int(e.Node) == ponger {
				replyStarts = append(replyStarts, e.T)
			}
		case EvStaged:
			switch {
			case int(e.Node) == pinger && e.Class == "request":
				reqStaged = append(reqStaged, stamped{e.T, e.Pkt})
			case int(e.Node) == ponger && e.Class == "reply":
				replyStaged = append(replyStaged, stamped{e.T, e.Pkt})
			}
		}
	}
	if len(reqStarts) < 2 {
		return nil, fmt.Errorf("trace: need at least 2 request starts on node %d, have %d", pinger, len(reqStarts))
	}

	// firstIn returns the first entry of list with t in [lo, hi), advancing
	// *idx (lists and windows are both in time order).
	firstIn := func(list []stamped, idx *int, lo, hi int64) (stamped, bool) {
		for *idx < len(list) && list[*idx].t < lo {
			*idx++
		}
		if *idx < len(list) && list[*idx].t < hi {
			s := list[*idx]
			*idx++
			return s, true
		}
		return stamped{}, false
	}
	firstTimeIn := func(list []int64, idx *int, lo, hi int64) (int64, bool) {
		for *idx < len(list) && list[*idx] < lo {
			*idx++
		}
		if *idx < len(list) && list[*idx] < hi {
			t := list[*idx]
			*idx++
			return t, true
		}
		return 0, false
	}

	sums := make([]float64, NumStages)
	mins := make([]float64, NumStages)
	maxs := make([]float64, NumStages)
	iters := 0
	var ri, pi, si int

	for i := 0; i+1 < len(reqStarts); i++ {
		lo, hi := reqStarts[i], reqStarts[i+1]
		req, ok1 := firstIn(reqStaged, &ri, lo, hi)
		rep, ok2 := firstIn(replyStaged, &pi, lo, hi)
		repStart, ok3 := firstTimeIn(replyStarts, &si, lo, hi)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		rl, pl := life[req.pkt], life[rep.pkt]
		if rl == nil || pl == nil {
			continue
		}
		c := [NumStages + 1]int64{
			lo,
			rl[EvStaged], rl[EvCommitted], rl[EvI860SendSta], rl[EvI860SendEnd],
			rl[EvDMAOutEnd], rl[EvInjectEnd], rl[EvEjectSta], rl[EvEjectEnd],
			rl[EvI860RecvEnd], rl[EvDMAInEnd], rl[EvPolled], rl[EvHandlerStart],
			repStart,
			pl[EvStaged], pl[EvCommitted], pl[EvI860SendSta], pl[EvI860SendEnd],
			pl[EvDMAOutEnd], pl[EvInjectEnd], pl[EvEjectSta], pl[EvEjectEnd],
			pl[EvI860RecvEnd], pl[EvDMAInEnd], pl[EvPolled], pl[EvHandlerStart],
			hi,
		}
		good := true
		for k := 0; k < len(c)-1; k++ {
			if c[k] < 0 || c[k+1] < c[k] {
				good = false
				break
			}
		}
		if !good {
			continue
		}
		for k := 0; k < NumStages; k++ {
			d := float64(c[k+1]-c[k]) / 1e3
			sums[k] += d
			if iters == 0 || d < mins[k] {
				mins[k] = d
			}
			if d > maxs[k] {
				maxs[k] = d
			}
		}
		iters++
	}
	if iters == 0 {
		return nil, fmt.Errorf("trace: no complete round-trip iteration found (%d windows)", len(reqStarts)-1)
	}

	b := &Breakdown{Iters: iters}
	for k, st := range rtStages {
		mean := sums[k] / float64(iters)
		b.Stages = append(b.Stages, Stage{
			Name: st.name, Note: st.note,
			MeanUS: mean, MinUS: mins[k], MaxUS: maxs[k],
		})
		b.TotalUS += mean
	}
	return b, nil
}

// Write renders the decomposition as an aligned table whose stage means sum
// to the measured round trip.
func (b *Breakdown) Write(w io.Writer) {
	fmt.Fprintf(w, "%-20s %8s %8s %8s  %s\n", "stage", "mean us", "min", "max", "attribution")
	for _, s := range b.Stages {
		fmt.Fprintf(w, "%-20s %8.3f %8.3f %8.3f  %s\n", s.Name, s.MeanUS, s.MinUS, s.MaxUS, s.Note)
	}
	fmt.Fprintf(w, "%-20s %8.3f %26s(= mean round trip over %d iterations)\n",
		"TOTAL", b.TotalUS, "", b.Iters)
}

// WriteGap prints the per-stage difference between two decompositions,
// divided by extraWords — the per-extra-word cost attribution used to
// explain the Table-3 per-word gap.
func WriteGap(w io.Writer, base, more *Breakdown, extraWords int) {
	if extraWords < 1 {
		extraWords = 1
	}
	fmt.Fprintf(w, "%-20s %10s %10s %12s\n", "stage", "base us", "more us", "delta/word")
	var total float64
	for k := range base.Stages {
		d := (more.Stages[k].MeanUS - base.Stages[k].MeanUS) / float64(extraWords)
		total += d
		if d > 0.005 || d < -0.005 {
			fmt.Fprintf(w, "%-20s %10.3f %10.3f %12.3f\n",
				base.Stages[k].Name, base.Stages[k].MeanUS, more.Stages[k].MeanUS, d)
		}
	}
	fmt.Fprintf(w, "%-20s %10.3f %10.3f %12.3f\n", "TOTAL", base.TotalUS, more.TotalUS, total)
}

// StageStat is interval statistics for one pipeline stage across every
// packet in a trace (not just the ping-pong pair). Under load, mean-min is
// the queueing delay accumulated at the stage.
type StageStat struct {
	Name  string
	Count int

	MeanUS, MinUS, P99US, MaxUS float64
}

// pktStages are the per-packet hardware intervals used for queueing-delay
// attribution; each spans [from, to) of a packet's lifecycle events.
var pktStages = [...]struct {
	name     string
	from, to Kind
}{
	{"commit wait", EvStaged, EvCommitted},
	{"pickup+i860 queue", EvCommitted, EvI860SendSta},
	{"i860 send svc", EvI860SendSta, EvI860SendEnd},
	{"dma out", EvI860SendEnd, EvDMAOutEnd},
	{"inject", EvDMAOutEnd, EvInjectEnd},
	{"fabric+eject wait", EvInjectEnd, EvEjectSta},
	{"eject svc", EvEjectSta, EvEjectEnd},
	{"i860 recv", EvEjectEnd, EvI860RecvEnd},
	{"dma in", EvI860RecvEnd, EvDMAInEnd},
	{"fifo residency", EvFIFOArrive, EvPolled},
}

// PacketStageStats computes per-stage interval statistics over every packet
// with a complete lifecycle in evs.
func PacketStageStats(evs []Event) []StageStat {
	life := map[int64]*pktLife{}
	var order []int64
	for _, e := range evs {
		if e.Pkt == 0 {
			continue
		}
		l := life[e.Pkt]
		if l == nil {
			l = newLife()
			life[e.Pkt] = l
			order = append(order, e.Pkt)
		}
		if l[e.Kind] < 0 {
			l[e.Kind] = e.T
		}
	}
	var out []StageStat
	for _, st := range pktStages {
		var vals []float64
		for _, pkt := range order {
			l := life[pkt]
			if l[st.from] < 0 || l[st.to] < l[st.from] {
				continue
			}
			vals = append(vals, float64(l[st.to]-l[st.from])/1e3)
		}
		s := StageStat{Name: st.name, Count: len(vals)}
		if len(vals) > 0 {
			sort.Float64s(vals)
			var sum float64
			for _, v := range vals {
				sum += v
			}
			s.MeanUS = sum / float64(len(vals))
			s.MinUS = vals[0]
			s.MaxUS = vals[len(vals)-1]
			s.P99US = vals[(len(vals)-1)*99/100]
		}
		out = append(out, s)
	}
	return out
}

// WriteQueueing renders stage statistics with the queueing attribution
// (mean − min: the service time is the minimum; everything above it is
// waiting behind other packets or for a poll).
func WriteQueueing(w io.Writer, stats []StageStat) {
	fmt.Fprintf(w, "%-20s %8s %8s %8s %8s %8s %10s\n",
		"stage", "count", "mean us", "min", "p99", "max", "queueing")
	for _, s := range stats {
		fmt.Fprintf(w, "%-20s %8d %8.3f %8.3f %8.3f %8.3f %10.3f\n",
			s.Name, s.Count, s.MeanUS, s.MinUS, s.P99US, s.MaxUS, s.MeanUS-s.MinUS)
	}
}
