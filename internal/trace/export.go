package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// lane maps a span-start kind to its display lane and matching end kind.
// Lanes become Chrome trace "threads" inside the node's "process".
var lanes = map[Kind]struct {
	end  Kind
	tid  int
	name string
}{
	EvI860SendSta:  {EvI860SendEnd, 2, "i860 send"},
	EvDMAOutSta:    {EvDMAOutEnd, 3, "dma out"},
	EvInjectSta:    {EvInjectEnd, 4, "sw inject"},
	EvEjectSta:     {EvEjectEnd, 5, "sw eject"},
	EvI860RecvSta:  {EvI860RecvEnd, 6, "i860 recv"},
	EvDMAInSta:     {EvDMAInEnd, 7, "dma in"},
	EvPollStart:    {EvPollEnd, 1, "host"},
	EvHandlerStart: {EvHandlerEnd, 8, "handler"},
}

// endKinds is the reverse index of lanes.
var endKinds = func() map[Kind]Kind {
	m := map[Kind]Kind{}
	for start, l := range lanes {
		m[l.end] = start
	}
	return m
}()

var laneNames = func() map[int]string {
	m := map[int]string{0: "events"}
	for _, l := range lanes {
		m[l.tid] = l.name
	}
	// FIFO residency spans are synthesized from arrive/polled pairs.
	m[9] = "recv fifo"
	return m
}()

const fifoLane = 9

type spanKey struct {
	kind Kind
	node int32
	pkt  int64
}

// WriteChromeTrace exports events as a Chrome trace-event file (JSON object
// format with a traceEvents array), loadable in Perfetto or
// chrome://tracing. Each node is a process; hardware pipeline stages are
// threads; packets appear as complete ("X") slices named by their protocol
// class, instants as "i" events. Timestamps are microseconds, as the format
// requires. Output is deterministic for a deterministic event stream.
// Names are written unescaped: every label is a constant of trace, hw or am
// (kind, lane and packet-class names, fault actions, "bulk") with no quote,
// backslash or control character.
func WriteChromeTrace(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	item := func(format string, args ...interface{}) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	// Metadata: name processes and threads for every node that appears.
	nodes := map[int32]bool{}
	for _, e := range evs {
		nodes[e.Node] = true
	}
	var nodeList []int32
	for n := range nodes {
		nodeList = append(nodeList, n)
	}
	slices.Sort(nodeList)
	for _, n := range nodeList {
		item(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"node %d"}}`, n, n)
		for tid := 0; tid <= fifoLane; tid++ {
			item(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"%s"}}`,
				n, tid, laneNames[tid])
		}
	}

	// Pair span starts with their ends. Starts and ends of one (kind, node,
	// pkt) pair are emitted in order per FIFO stage, so a queue per key
	// matches them correctly even under pipelining.
	open := map[spanKey][]Event{}
	classOf := map[int64]string{}
	emitSpan := func(name string, tid int, start, end Event) {
		dur := end.T - start.T
		if dur < 0 {
			dur = 0
		}
		item(`{"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"name":"%s","args":{"pkt":%d}}`,
			start.Node, tid, float64(start.T)/1e3, float64(dur)/1e3, name, start.Pkt)
	}
	for _, e := range evs {
		if e.Kind == EvStaged && e.Class != "" {
			classOf[e.Pkt] = e.Class
		}
		switch {
		case lanes[e.Kind].end != KindNone:
			k := spanKey{e.Kind, e.Node, e.Pkt}
			open[k] = append(open[k], e)
		case endKinds[e.Kind] != KindNone:
			startKind := endKinds[e.Kind]
			k := spanKey{startKind, e.Node, e.Pkt}
			if q := open[k]; len(q) > 0 {
				start := q[0]
				open[k] = q[1:]
				l := lanes[startKind]
				name := l.name
				if c := classOf[e.Pkt]; c != "" {
					name = c
				} else if e.Kind == EvPollEnd {
					name = "poll"
				} else if e.Kind == EvHandlerEnd {
					name = "handler"
					if e.Class != "" {
						name = e.Class
					}
				}
				emitSpan(name, l.tid, start, e)
			}
		case e.Kind == EvFIFOArrive:
			k := spanKey{EvFIFOArrive, e.Node, e.Pkt}
			open[k] = append(open[k], e)
		case e.Kind == EvPolled:
			k := spanKey{EvFIFOArrive, e.Node, e.Pkt}
			if q := open[k]; len(q) > 0 {
				start := q[0]
				open[k] = q[1:]
				name := "fifo " + classOf[e.Pkt]
				emitSpan(name, fifoLane, start, e)
			}
		default:
			item(`{"ph":"i","pid":%d,"tid":0,"ts":%.3f,"s":"t","name":"%s","args":{"pkt":%d,"arg":%d}}`,
				e.Node, float64(e.T)/1e3, e.Kind.String()+labelSuffix(e), e.Pkt, e.Arg)
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

func labelSuffix(e Event) string {
	if e.Class == "" {
		return ""
	}
	return " " + e.Class
}

// WriteTimeline renders the events as a plain-text timeline, one line per
// event, in timestamp order (the caller passes Sorted() output).
func WriteTimeline(w io.Writer, evs []Event) {
	bw := bufio.NewWriter(w)
	for _, e := range evs {
		fmt.Fprintf(bw, "%12.3fus node=%d %-16s", float64(e.T)/1e3, e.Node, e.Kind)
		if e.Pkt != 0 {
			fmt.Fprintf(bw, " pkt=%d", e.Pkt)
		}
		if e.Class != "" {
			fmt.Fprintf(bw, " (%s)", e.Class)
		}
		if e.Arg != 0 {
			fmt.Fprintf(bw, " arg=%d", e.Arg)
		}
		fmt.Fprintln(bw)
	}
	bw.Flush()
}
