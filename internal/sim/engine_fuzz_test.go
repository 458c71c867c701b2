package sim

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzEngine decodes bytes into a program (engProg) and plays it twice: with
// the engine's fast paths, and with the plain expansions below, which live
// here only. checkEngine says what the plays must share; each named seed
// must also show what it was written to exercise (engSeed).
func FuzzEngine(f *testing.F) {
	for _, s := range engineSeeds() {
		c := coder{enc: true}
		s.prog.code(&c)
		fast, plain, err := checkEngine(c.buf)
		ties := 0
		for i := 1; i < len(fast.log); i++ {
			if fast.log[i].at == fast.log[i-1].at {
				ties++
			}
		}
		got := map[string]bool{"ties": ties >= 100, "mid-chain": fast.midChain > 0, "backlog": fast.backlog > 0,
			"fewer-handoffs": fast.e.Handoffs < plain.e.Handoffs, "more-handoffs": fast.e.Handoffs > plain.e.Handoffs}
		for _, w := range strings.Fields(s.want) {
			if err == nil && !got[w] {
				err = fmt.Errorf("misses %s: %d same-instant ties, %d pauses inside a chain, backlog %d at pauses, %d hand-offs fast and %d plain",
					w, ties, fast.midChain, fast.backlog, fast.e.Handoffs, plain.e.Handoffs)
			}
		}
		if err != nil {
			f.Fatalf("seed %s: %v", s.name, err)
		}
		f.Add(c.buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := checkEngine(data); err != nil {
			t.Fatal(err)
		}
	})
}

// checkEngine plays a program both ways; logs and EventsRun must be equal.
// A skipped wake-up only saves a hand-off, but a process that finishes
// returns control to whichever process last resumed it, which skipped
// wake-ups change: the fast play may hand off once more per finish. An
// error names the first log entry that differs and lists the program.
func checkEngine(data []byte) (fast, plain *engRun, err error) {
	g := new(engProg)
	g.code(&coder{buf: data})
	fast, plain = g.play(false), g.play(true)
	i := 0
	for i < min(len(fast.log), len(plain.log)) && fast.log[i] == plain.log[i] {
		i++
	}
	switch {
	case i < max(len(fast.log), len(plain.log)):
		err = fmt.Errorf("log entry %d differs: fast %+v, plain %+v", i, fast.log[i:min(i+1, len(fast.log))], plain.log[i:min(i+1, len(plain.log))])
	case fast.e.EventsRun != plain.e.EventsRun:
		err = fmt.Errorf("%d events fast, %d plain", fast.e.EventsRun, plain.e.EventsRun)
	case fast.e.Handoffs > plain.e.Handoffs+int64(fast.finished):
		err = fmt.Errorf("%d hand-offs fast, %d plain, %d processes finished", fast.e.Handoffs, plain.e.Handoffs, fast.finished)
	}
	if err != nil {
		err = fmt.Errorf("%v\nhorizon gaps %v", err, g.gaps)
		for i, ops := range g.bodies {
			err = fmt.Errorf("%v\nbody %d: %v", err, i, ops)
		}
	}
	return fast, plain, err
}

// The plain expansions of AdvanceSeq, AdvanceWhile and Cond.Signal (never
// the hand-off slot), and refServer, Server as it was before completions
// queued outside the heap: every job's completion is pushed at Submit.
func advanceSeqPlain(p *Proc, d Time, more ...Time) {
	for _, d := range append([]Time{d}, more...) {
		p.Advance(d)
	}
}

func advanceWhilePlain(p *Proc, d Time, step func() bool) {
	for p.Advance(d); step(); p.Advance(d) {
	}
}

func signalQueued(c *Cond) {
	if len(c.waiters) > 0 {
		p := c.waiters[0]
		c.waiters = c.waiters[1:]
		p.eng.schedule(p, p.eng.now)
	}
}

type refServer struct {
	eng       *Engine
	busyUntil Time
}

func (s *refServer) Submit(service Time, done func()) Time {
	s.busyUntil = max(s.busyUntil, s.eng.now) + max(service, 0)
	if done != nil {
		s.eng.At(s.busyUntil, done)
	}
	return s.busyUntil
}

// engProg is a program. Body 0 runs at time 0, before the play; a body
// runs when a callback naming it fires, skipping process-only ops; a Spawn
// runs one of the first engProcs bodies as a process, over and over until
// the budget is spent, engProcs processes at most. Runs stop at horizons
// gap+1 after the clock, and a last Run goes to the end.
type engProg struct {
	bodies [][]engOp
	gaps   []int
}

// engOp is one op. t, read against the clock when the op runs, is a time,
// delay, period, first segment (segs are the rest) or service time. arg
// picks a Cond, Server or process body, or is the step count less one. cb
// is the callback body run at a firing, a step or a completion; 0 is none.
type engOp struct {
	kind    int
	t       when
	segs    []when
	arg, cb int
}

// Op kinds; those before opSignal need a process.
const (
	opAdvance = iota
	opSeq
	opWhile
	opWait
	opYield
	opSignal
	opBroadcast
	opAt
	opAfter
	opKeyed
	opSubmit
	opSpawn
	numOps
)

func (op engOp) String() string {
	kind := strings.Fields("Advance AdvanceSeq AdvanceWhile Wait Yield Signal Broadcast At After AfterKeyed Submit Spawn")[op.kind]
	return fmt.Sprintf("%s(%v%v a%d cb%d)", kind, op.t, op.segs, op.arg, op.cb)
}

const (
	engProcs, engBodies, engConds, engServers = 6, 16, 2, 6
	engOps, engSegs, engSteps, engHorizons    = 64, 20, 64, 8
	engBudget                                 = 2000 // ops a play may run
)

// code decodes g, or with c.enc encodes it, so the seeds are written with
// the decoder. An op's arg ranges over what its kind picks.
func (g *engProg) code(c *coder) {
	codeLen(c, &g.bodies, 1, engBodies+1)
	codeLen(c, &g.gaps, 0, engHorizons+1)
	args := [numOps]int{opWhile: engSteps, opWait: engConds, opSignal: engConds, opBroadcast: engConds,
		opSubmit: engServers, opSpawn: min(len(g.bodies), engProcs)}
	for i := range g.bodies {
		codeLen(c, &g.bodies[i], 0, engOps)
		for k := range g.bodies[i] {
			op := &g.bodies[i][k]
			c.int(&op.kind, 0, numOps)
			op.t.code(c)
			c.int(&op.arg, 0, max(args[op.kind], 1))
			c.int(&op.cb, 0, len(g.bodies))
			if op.kind == opSeq {
				codeLen(c, &op.segs, 0, engSegs)
			}
			for j := range op.segs {
				op.segs[j].code(c)
			}
		}
	}
	for i := range g.gaps {
		c.int(&g.gaps[i], 0, 4*nearSpan)
	}
}

// codeLen codes a slice's length in [lo, hi); decoding makes the slice.
func codeLen[T any](c *coder, s *[]T, lo, hi int) {
	n := len(*s)
	c.int(&n, lo, hi)
	if !c.enc {
		*s = make([]T, n)
	}
}

// engStep is a log entry: op of the process running body who returned; a
// callback or step naming body who-engProcs (0: none) ran; Run (-1) returned.
type engStep struct {
	at      Time
	who, op int
}

// engRun is one play. ctr is the counter AdvanceWhile steps share; keys,
// the AfterKeyed lanes handed out, one a call, so that keys are unique.
type engRun struct {
	g      *engProg
	e      *Engine
	seq    func(p *Proc, d Time, more ...Time)
	while  func(p *Proc, d Time, step func() bool)
	signal func(c *Cond)
	srv    [engServers]interface{ Submit(Time, func()) Time }
	conds  [engConds]Cond
	log    []engStep

	ctr, budget, finished, midChain, backlog int
	keys                                     uint64
}

func (g *engProg) play(plain bool) *engRun {
	e := NewEngine(1)
	r := &engRun{g: g, e: e, seq: (*Proc).AdvanceSeq, while: (*Proc).AdvanceWhile, signal: (*Cond).Signal, budget: engBudget}
	for i := range r.srv {
		if r.srv[i] = NewServer(e); plain {
			r.seq, r.while, r.signal, r.srv[i] = advanceSeqPlain, advanceWhilePlain, signalQueued, &refServer{eng: e}
		}
	}
	r.run(nil, -1, g.bodies[0])
	for k := range len(g.gaps) + 1 {
		if k < len(g.gaps) {
			e.Run(e.now + Time(g.gaps[k]) + 1) // a deadlock shows in the log: a process never returns
		} else {
			e.Run(0)
		}
		r.log = append(r.log, engStep{e.now, -1, 0})
		for _, p := range e.procs {
			if 0 < p.segI && p.segI < len(p.segs) {
				r.midChain++
			}
		}
		for _, s := range r.srv {
			if s, ok := s.(*Server); ok {
				r.backlog += s.backlog.Len()
			}
		}
	}
	e.Release()
	return r
}

// run runs ops: body i as process p, which logs each op's return, or a
// callback (p nil). Every op spends from the budget.
func (r *engRun) run(p *Proc, i int, ops []engOp) {
	e := r.e
	for k, op := range ops {
		if r.budget--; r.budget < 0 || p == nil && op.kind < opSignal {
			continue
		}
		fn := func() {
			r.log = append(r.log, engStep{e.now, engProcs + op.cb, 0})
			if op.cb > 0 {
				r.run(nil, -1, r.g.bodies[op.cb])
			}
		}
		now, d := e.now, op.t.at(e.now)-e.now
		switch op.kind {
		case opAdvance:
			p.Advance(d)
		case opYield:
			p.Yield()
		case opWait:
			r.conds[op.arg].Wait(p)
		case opSeq:
			more := make([]Time, len(op.segs))
			for j, s := range op.segs {
				more[j] = s.at(now) - now
			}
			r.seq(p, d, more...)
		case opWhile:
			end := r.ctr + 1 + op.arg
			r.while(p, d, func() bool {
				r.ctr++
				fn()
				return r.ctr < end
			})
		case opSignal:
			r.signal(&r.conds[op.arg])
		case opBroadcast:
			r.conds[op.arg].Broadcast()
		case opSpawn:
			if len(e.procs) < engProcs {
				e.Go(fmt.Sprint("p", op.arg), func(p *Proc) {
					for ops := r.g.bodies[op.arg]; r.budget > 0 && len(ops) > 0; {
						r.run(p, op.arg, ops)
					}
					r.finished++
				})
			}
		case opSubmit:
			if op.cb == 0 {
				fn = nil
			}
			r.srv[op.arg].Submit(d, fn)
		case opAt:
			e.At(now+d, fn)
		case opAfter:
			e.After(d, fn)
		case opKeyed:
			r.keys++
			e.AfterKeyed(max(d, 1), r.keys, 1<<20, fn)
		}
		if p != nil {
			r.log = append(r.log, engStep{e.now, i, k})
		}
	}
}

// engSeed is a named program and what its fast play must show.
type engSeed struct {
	name, want string
	prog       engProg
}

// engineSeeds are the scenarios the fast paths were first checked on and
// the inputs the fuzzer found. A chain charges one AdvanceSeq five times.
func engineSeeds() []engSeed {
	chain := func(ds ...Time) []engOp {
		seq := engOp{kind: opSeq, t: rel(ds[0])}
		for _, d := range ds[1:] {
			seq.segs = append(seq.segs, rel(d))
		}
		return []engOp{seq, op(opSignal, 0, 0, 0), op(opAfter, 10, 0, 0), seq, seq, seq, seq}
	}
	seeds := []engSeed{
		{"advance-while", "ties fewer-handoffs", tieScenario(nil, op(opWhile, 10, 39, 7))},
		{"advance-seq/three", "ties fewer-handoffs", tieScenario(nil, chain(10, 10, 10)...)},
		{"advance-seq/zero-segment", "ties fewer-handoffs", tieScenario(nil, chain(10, 0, 10)...)},
		{"advance-seq/negative-segment", "ties fewer-handoffs", tieScenario(nil, chain(10, -1, 10)...)},
		{"advance-seq/zero-first", "ties fewer-handoffs", tieScenario(nil, chain(0, 10, 10)...)},
		{"advance-seq/one-segment", "ties", tieScenario(nil, chain(10)...)},
		{"advance-seq/sixteen-segments", "ties fewer-handoffs", tieScenario(nil, chain(10, 5, 0, 10, 10, -1, 5, 5, 10, 0, 10, 10, 5, 5, 10, 10)...)},
		{"advance-seq/paused-by-horizons", "ties fewer-handoffs mid-chain", tieScenario([]int{6, 5, 3, 77, 47, 157, 155, 155}, chain(10, 5, 5)...)},
		// Signal's hand-off slot, then a callback and a wake-up at that instant.
		{"signal-handoff", "ties", engProg{bodies: [][]engOp{{op(opSpawn, 0, 1, 0), op(opSpawn, 0, 2, 0)}, {op(opWait, 0, 0, 0)},
			{op(opYield, 0, 0, 0), op(opSignal, 0, 0, 0), op(opAt, 0, 0, 3), op(opYield, 0, 0, 0)}, nil}}},
		// Found by fuzzing: processes finish (the empty body 1 at once) while
		// the chains of resumes differ between the plays.
		{"found/finish-returns-elsewhere", "more-handoffs", engProg{bodies: [][]engOp{
			{op(opYield, 5, 0, 0), op(opSpawn, 10, 0, 0), op(opSpawn, 15, 2, 0), op(opWhile, 15, 2, 1)}, nil,
			{op(opAt, 0, 0, 0), op(opSpawn, 15, 1, 0), op(opSpawn, 5, 1, 0), op(opWhile, 0, 1, 1)}}}},
	}
	for seed := uint64(1); seed <= 25; seed++ {
		seeds = append(seeds, engSeed{fmt.Sprint("servers/", seed), "backlog", serverScenario(seed * 977)})
	}
	return seeds
}

// tieScenario plays the process under test and a peer advancing 10 ns at a
// time against all that can tie with their wake-ups: callbacks pushed for
// the same instants, a chain landing between wake-ups and pushing onto them
// (bodies 4, 5) with a signal (6) to a waiter, a step's own callbacks (7).
func tieScenario(gaps []int, under ...engOp) engProg {
	init := []engOp{op(opSpawn, 0, 1, 0), op(opSpawn, 0, 2, 0), op(opSpawn, 0, 3, 0), op(opAt, 10, 0, 4)}
	for t := Time(10); t <= 400; t += 30 {
		init = append(init, op(opAt, t, 0, 0))
	}
	return engProg{gaps: gaps, bodies: [][]engOp{init, under, {op(opAdvance, 10, 0, 0)}, {op(opWait, 0, 0, 0)},
		{op(opAfter, 5, 0, 5)}, {op(opAfter, 5, 0, 4), op(opAfter, 5, 0, 6)}, {op(opSignal, 0, 0, 0)}, {op(opAfter, 10, 0, 0)}}}
}

// serverScenario wires six servers like two adapters and a switch port:
// stages 0 and 2 (done: bodies 4, 6) feed 1 and 3 and signal a consumer; 1
// and 3 hop (5, 7, AfterKeyed) into the shared 4, then 5. An Advance and an
// AdvanceWhile process and a timer (11) submit jobs. Service times drawn
// from seed tie; 1 and 3, links, never serve in zero time. It pauses once.
func serverScenario(seed uint64) engProg {
	r := NewRand(seed)
	svc := func() Time { return []Time{0, 3, 3, 7, 7, 7, 12}[r.Intn(7)] }
	inject := func(chain int) (ops []engOp) {
		for n := 1 + r.Intn(6); n > 0; n-- {
			done := 4 + 2*chain
			if r.Intn(8) == 0 {
				done = 0 // occupies the server, no event
			}
			ops = append(ops, op(opSubmit, svc(), 2*chain, done))
		}
		return ops
	}
	hop, signal := op(opKeyed, 10, 0, 8), op(opSignal, 0, 0, 0)
	g := engProg{gaps: []int{399}, bodies: [][]engOp{
		{op(opSpawn, 0, 1, 0), op(opSpawn, 0, 2, 0), op(opSpawn, 0, 3, 0), op(opAfter, 5, 0, 11)}, nil, nil, {op(opWait, 0, 0, 0)},
		{op(opSubmit, svc()+1, 1, 5), signal}, {hop}, {op(opSubmit, svc()+1, 3, 7), signal}, {hop},
		{op(opSubmit, svc(), 4, 9)}, {op(opSubmit, svc(), 5, 10)}, {signal}, nil}}
	for range 8 {
		g.bodies[1] = append(append(g.bodies[1], inject(0)...), op(opAdvance, Time(r.Intn(30)), 0, 0))
		g.bodies[2] = append(append(g.bodies[2], inject(1)...), op(opWhile, Time(1+r.Intn(12)), r.Intn(3), 0))
	}
	g.bodies[11] = append(inject(r.Intn(2)), op(opAfter, Time(r.Intn(40)), 0, 11))
	return g
}

// rel is the when d after the clock, or for d < 0 the clock's slot start.
func rel(d Time) when {
	if d < 0 {
		return when{class: 5}
	}
	return when{class: 8, v: int(d)}
}

func op(k int, t Time, arg, cb int) engOp { return engOp{k, rel(t), nil, arg, cb} }
