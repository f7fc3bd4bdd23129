package mc

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// The protocol-space search makes the universal quantifier of Theorems 1
// and 2 executable on a finite slice: for |M^S| = |M^R| = 1 and
// X = {ε, 0, 0.0} (|X| = 3 > alpha(1) = 2, over the domain D = {0}), it
// enumerates EVERY deterministic finite-state receiver up to a state
// bound and, for each input, every finite-state sender — the non-uniform
// model: each input may get its own sender, matching the paper's
// strongest setting — and checks whether any combination is safe (in all
// runs, exhaustively explored) and live (completes under a canonical fair
// schedule within a generous budget). The theorems predict total failure;
// the search confirms it and reports the tally.

// fsmSender is a table-driven sender FSM over M^S = {a}. Events: tick or
// recv("k"). Each transition names a next state and whether to send "a".
type fsmSender struct {
	table fsmSenderTable
	state int
	moved bool // the last Step changed state
}

// fsmSenderTable[state][event] = (next, send); event 0 = tick, 1 = recv.
type fsmSenderTable [][2]struct {
	next int
	send bool
}

var _ protocol.Sender = (*fsmSender)(nil)

func (s *fsmSender) Step(ev protocol.Event) []msg.Msg {
	s.moved = false
	e := 0
	if ev.Kind == protocol.Recv {
		if ev.Msg != "k" {
			return nil
		}
		e = 1
	}
	tr := s.table[s.state][e]
	s.moved = tr.next != s.state
	s.state = tr.next
	if tr.send {
		return []msg.Msg{"a"}
	}
	return nil
}

func (s *fsmSender) Moved() bool            { return s.moved }
func (s *fsmSender) Alphabet() msg.Alphabet { return msg.MustNewAlphabet("a") }
func (s *fsmSender) Done() bool             { return false }
func (s *fsmSender) Clone() protocol.Sender { cp := *s; return &cp }
func (s *fsmSender) Key() string            { return fmt.Sprintf("fS%d", s.state) }

func (s *fsmSender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'P')
	return binary.AppendUvarint(buf, uint64(s.state))
}

// fsmReceiver is a table-driven receiver FSM over M^R = {k}, writing items
// of the one-element domain D = {0}.
type fsmReceiver struct {
	table fsmReceiverTable
	state int
}

// fsmReceiverTable[state][event] = (next, send, write).
type fsmReceiverTable [][2]struct {
	next  int
	send  bool
	write bool
}

var _ protocol.Receiver = (*fsmReceiver)(nil)

func (r *fsmReceiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	e := 0
	if ev.Kind == protocol.Recv {
		if ev.Msg != "a" {
			return nil, nil
		}
		e = 1
	}
	tr := r.table[r.state][e]
	r.state = tr.next
	var sends []msg.Msg
	if tr.send {
		sends = []msg.Msg{"k"}
	}
	var writes seq.Seq
	if tr.write {
		writes = seq.Seq{0}
	}
	return sends, writes
}

func (r *fsmReceiver) Alphabet() msg.Alphabet   { return msg.MustNewAlphabet("k") }
func (r *fsmReceiver) Clone() protocol.Receiver { cp := *r; return &cp }
func (r *fsmReceiver) Key() string              { return fmt.Sprintf("fR%d", r.state) }

func (r *fsmReceiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'p')
	return binary.AppendUvarint(buf, uint64(r.state))
}

// enumerateSenderTables yields every sender table with exactly n states.
func enumerateSenderTables(n int) []fsmSenderTable {
	cells := n * 2
	options := n * 2 // next state × send flag
	var out []fsmSenderTable
	total := 1
	for i := 0; i < cells; i++ {
		total *= options
	}
	for code := 0; code < total; code++ {
		t := make(fsmSenderTable, n)
		c := code
		for st := 0; st < n; st++ {
			for e := 0; e < 2; e++ {
				opt := c % options
				c /= options
				t[st][e].next = opt % n
				t[st][e].send = opt >= n
			}
		}
		out = append(out, t)
	}
	return out
}

// enumerateReceiverTables yields every receiver table with exactly n
// states.
func enumerateReceiverTables(n int) []fsmReceiverTable {
	cells := n * 2
	options := n * 4 // next state × send flag × write flag
	var out []fsmReceiverTable
	total := 1
	for i := 0; i < cells; i++ {
		total *= options
	}
	for code := 0; code < total; code++ {
		t := make(fsmReceiverTable, n)
		c := code
		for st := 0; st < n; st++ {
			for e := 0; e < 2; e++ {
				opt := c % options
				c /= options
				t[st][e].next = opt % n
				t[st][e].send = (opt/n)%2 == 1
				t[st][e].write = (opt / (2 * n)) == 1
			}
		}
		out = append(out, t)
	}
	return out
}

// SearchConfig bounds the protocol-space search.
type SearchConfig struct {
	// SenderStates and ReceiverStates are the FSM sizes (>= 1).
	SenderStates, ReceiverStates int
	// Kind is the channel model to verify against.
	Kind channel.Kind
	// Depth bounds the safety exploration per candidate (default 10).
	Depth int
	// LiveSteps is the completion budget on the canonical fair schedule
	// (default 120).
	LiveSteps int
	// Parallelism is the number of worker goroutines sharing the receiver
	// space (default: GOMAXPROCS). The tally is independent of the worker
	// count — receivers are judged in isolation.
	Parallelism int
}

// SearchResult tallies the outcome.
type SearchResult struct {
	Receivers int // receiver machines examined
	Solutions int // receivers for which every input had a safe+live sender
	// SafePairs counts (receiver, input) combinations that had at least
	// one safe and live sender.
	SafePairs int
	// Example, when Solutions > 0, names one purported solution — which
	// would contradict the theorem and therefore indicates a harness bug
	// or too-small bounds.
	Example string
}

// SearchProtocols runs the exhaustive search over X = {ε, 0, 0.0}.
func SearchProtocols(cfg SearchConfig) (*SearchResult, error) {
	if cfg.SenderStates < 1 || cfg.ReceiverStates < 1 {
		return nil, fmt.Errorf("mc: FSM sizes must be >= 1")
	}
	if cfg.Depth == 0 {
		cfg.Depth = 10
	}
	if cfg.LiveSteps == 0 {
		cfg.LiveSteps = 120
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	// Hardest input first: most receivers die on 0.0 without paying for
	// the rest.
	inputs := []seq.Seq{seq.FromInts(0, 0), seq.FromInts(0), {}}
	senders := enumerateSenderTables(cfg.SenderStates)
	receivers := enumerateReceiverTables(cfg.ReceiverStates)

	// Receivers are independent: judge them side by side.
	verdicts := make([]receiverVerdict, len(receivers))
	sim.ForEach(len(receivers), cfg.Parallelism, func(ri int) {
		verdicts[ri] = judgeReceiver(receivers[ri], senders, inputs, cfg)
	})

	res := &SearchResult{Receivers: len(receivers)}
	for _, v := range verdicts {
		if v.err != nil {
			return nil, v.err
		}
		res.SafePairs += v.safePairs
		if v.solution {
			res.Solutions++
			if res.Example == "" {
				res.Example = v.example
			}
		}
	}
	return res, nil
}

// receiverVerdict is one receiver machine's outcome in the search.
type receiverVerdict struct {
	safePairs int
	solution  bool
	example   string
	err       error
}

// judgeReceiver decides whether one receiver machine, paired with the best
// available sender per input, constitutes a solution.
func judgeReceiver(rt fsmReceiverTable, senders []fsmSenderTable, inputs []seq.Seq, cfg SearchConfig) (v receiverVerdict) {
	// Cheap necessary condition: to solve 0.0 the receiver must have SOME
	// event path that writes twice (whatever the events). BFS over the
	// bare FSM decides this in microseconds and skips most receivers.
	if !receiverCanWrite(rt, 2) {
		return v
	}
	for _, x := range inputs {
		solved := false
		for _, st := range senders {
			ok, err := candidateWorks(st, rt, x, cfg)
			if err != nil {
				v.err = err
				return v
			}
			if ok {
				solved = true
				break
			}
		}
		if !solved {
			return v
		}
		v.safePairs++
	}
	// A purported solution would contradict Theorem 1/2: double check at
	// twice the depth before believing it.
	deep := cfg
	deep.Depth *= 2
	deep.LiveSteps *= 2
	for _, x := range inputs {
		solved := false
		for _, st := range senders {
			ok, err := candidateWorks(st, rt, x, deep)
			if err != nil {
				v.err = err
				return v
			}
			if ok {
				solved = true
				break
			}
		}
		if !solved {
			return v
		}
	}
	v.solution = true
	v.example = fmt.Sprintf("receiver table %+v", rt)
	return v
}

// receiverCanWrite reports whether some event sequence drives the
// receiver FSM through at least want writes (an over-approximation of any
// real run, hence a sound filter).
func receiverCanWrite(rt fsmReceiverTable, want int) bool {
	type cfg struct{ state, writes int }
	seen := map[cfg]struct{}{{0, 0}: {}}
	frontier := []cfg{{0, 0}}
	for head := 0; head < len(frontier); head++ {
		cur := frontier[head]
		if cur.writes >= want {
			return true
		}
		for e := 0; e < 2; e++ {
			tr := rt[cur.state][e]
			next := cfg{tr.next, cur.writes}
			if tr.write {
				next.writes++
			}
			if next.writes > want {
				next.writes = want
			}
			if _, ok := seen[next]; ok {
				continue
			}
			seen[next] = struct{}{}
			frontier = append(frontier, next)
		}
	}
	return false
}

// candidateWorks checks one (sender, receiver, input) triple: exhaustive
// safety to depth, then liveness on the canonical fair schedule.
func candidateWorks(st fsmSenderTable, rt fsmReceiverTable, input seq.Seq, cfg SearchConfig) (bool, error) {
	spec := protocol.Spec{
		Name: "fsm-candidate",
		NewSender: func(seq.Seq) (protocol.Sender, error) {
			return &fsmSender{table: st}, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			return &fsmReceiver{table: rt}, nil
		},
	}
	// Liveness first (cheap): must complete on the canonical schedule.
	live, err := sim.RunProtocol(spec, input, cfg.Kind, sim.NewRoundRobin(),
		sim.Config{MaxSteps: cfg.LiveSteps, StopWhenComplete: true})
	if err != nil {
		return false, err
	}
	if !live.OutputComplete || live.SafetyViolation != nil {
		return false, nil
	}
	// Exhaustive safety to depth.
	ex, err := Explore(spec, input, cfg.Kind, ExploreConfig{MaxDepth: cfg.Depth, MaxStates: 1 << 16})
	if err != nil {
		return false, err
	}
	return ex.Violation == nil, nil
}
