package selrepeat

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
)

// mapSender and mapReceiver are the reference implementation: selective
// repeat with its window held in Go maps keyed by absolute position, as
// the package kept it before the rings. FuzzSelrepeatRings holds the ring
// machines to them step for step; nothing else uses them.
type mapSender struct {
	window  int
	t       *msg.Table
	input   seq.Seq
	base    int
	next    int
	acked   map[int]bool
	stalled int
	moved   bool
}

func (s *mapSender) mod() int { return 2 * s.window }

// Step is also the reference for Moved: it compares the Key strings
// around the step.
func (s *mapSender) Step(ev protocol.Event) []msg.Msg {
	was := s.Key()
	sends := s.step(ev)
	s.moved = s.Key() != was
	return sends
}

func (s *mapSender) Moved() bool { return s.moved }

func (s *mapSender) step(ev protocol.Event) []msg.Msg {
	switch ev.Kind {
	case protocol.Recv:
		d, ok := s.t.R.Decode(ev.Msg)
		if !ok {
			return nil
		}
		n := d.F[0]
		for p := s.base; p < s.next; p++ {
			if p%s.mod() == n {
				if !s.acked[p] {
					s.acked[p] = true
					s.stalled = 0
				}
				break
			}
		}
		for s.acked[s.base] {
			delete(s.acked, s.base)
			s.base++
		}
		return nil
	case protocol.Tick:
		if s.base >= len(s.input) {
			return nil
		}
		if s.next < len(s.input) && s.next < s.base+s.window {
			m := s.t.S.Send(0, msg.Fields{s.next % s.mod(), int(s.input[s.next])})
			s.next++
			return m
		}
		s.stalled++
		if s.stalled > timeoutTicks {
			s.stalled = 0
			var burst []msg.Msg
			for p := s.base; p < s.next; p++ {
				if !s.acked[p] {
					burst = append(burst, s.t.S.Msg(0, msg.Fields{p % s.mod(), int(s.input[p])}))
				}
			}
			return burst
		}
		return nil
	default:
		return nil
	}
}

func (s *mapSender) Done() bool { return s.base >= len(s.input) }

func (s *mapSender) Clone() *mapSender {
	cp := *s
	cp.acked = make(map[int]bool, len(s.acked))
	for k, v := range s.acked {
		cp.acked[k] = v
	}
	return &cp
}

func (s *mapSender) Key() string {
	acked := make([]string, 0, len(s.acked))
	for p := s.base; p < s.next; p++ {
		if s.acked[p] {
			acked = append(acked, fmt.Sprint(p))
		}
	}
	return fmt.Sprintf("srS{b=%d,n=%d,a=%s,st=%d}", s.base, s.next, strings.Join(acked, "."), s.stalled)
}

func (s *mapSender) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'S')
	buf = binary.AppendUvarint(buf, uint64(s.base))
	buf = binary.AppendUvarint(buf, uint64(s.next))
	count := 0
	for p := s.base; p < s.next; p++ {
		if s.acked[p] {
			count++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(count))
	for p := s.base; p < s.next; p++ {
		if s.acked[p] {
			buf = binary.AppendUvarint(buf, uint64(p))
		}
	}
	return binary.AppendUvarint(buf, uint64(s.stalled))
}

func (s *mapSender) Scramble(rng *rand.Rand) {
	n := len(s.input)
	s.base = rng.Intn(n + 1)
	hi := s.base + s.window
	if hi > n {
		hi = n
	}
	s.next = s.base + rng.Intn(hi-s.base+1)
	s.acked = make(map[int]bool)
	for i := s.base; i < s.next; i++ {
		if rng.Intn(2) == 1 {
			s.acked[i] = true
		}
	}
	s.stalled = rng.Intn(timeoutTicks + 1)
}

type mapReceiver struct {
	m        int
	window   int
	t        *msg.Table
	next     int
	buffered map[int]seq.Item
}

func (r *mapReceiver) mod() int { return 2 * r.window }

func (r *mapReceiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	if ev.Kind != protocol.Recv {
		return nil, nil
	}
	d, ok := r.t.S.Decode(ev.Msg)
	if !ok {
		return nil, nil
	}
	n, v := d.F[0], d.F[1]
	ack := r.t.R.Send(0, msg.Fields{n})
	pos := -1
	for p := r.next; p < r.next+r.window; p++ {
		if p%r.mod() == n {
			pos = p
			break
		}
	}
	if pos < 0 {
		return ack, nil
	}
	r.buffered[pos] = seq.Item(v)
	var writes seq.Seq
	for {
		item, bok := r.buffered[r.next]
		if !bok {
			break
		}
		delete(r.buffered, r.next)
		writes = append(writes, item)
		r.next++
	}
	return ack, writes
}

func (r *mapReceiver) Clone() *mapReceiver {
	cp := *r
	cp.buffered = make(map[int]seq.Item, len(r.buffered))
	for k, v := range r.buffered {
		cp.buffered[k] = v
	}
	return &cp
}

func (r *mapReceiver) Key() string {
	buf := make([]string, 0, len(r.buffered))
	for p := r.next; p < r.next+r.window; p++ {
		if v, ok := r.buffered[p]; ok {
			buf = append(buf, fmt.Sprintf("%d=%d", p, int(v)))
		}
	}
	return fmt.Sprintf("srR{%d|%s}", r.next, strings.Join(buf, ","))
}

func (r *mapReceiver) EncodeKey(buf []byte) []byte {
	buf = append(buf, 'V')
	buf = binary.AppendUvarint(buf, uint64(r.next))
	buf = binary.AppendUvarint(buf, uint64(len(r.buffered)))
	for p := r.next; p < r.next+r.window; p++ {
		if v, ok := r.buffered[p]; ok {
			buf = binary.AppendUvarint(buf, uint64(p))
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	return buf
}

func (r *mapReceiver) Scramble(rng *rand.Rand) {
	r.next = rng.Intn(2 * (r.window + 1))
	r.buffered = make(map[int]seq.Item)
	for i := r.next + 1; i < r.next+r.window; i++ {
		if r.m > 0 && rng.Intn(3) == 0 {
			r.buffered[i] = seq.Item(rng.Intn(r.m))
		}
	}
}

// ringOracle runs a ring-backed pair and a map-backed pair in lock step
// over two FIFO queues of the frames the pair itself sent, and fails at
// the first step on which they differ in what they send, write, encode
// or report.
type ringOracle struct {
	t       *testing.T
	s       *sender
	r       *receiver
	ms      *mapSender
	mr      *mapReceiver
	toR     []msg.Msg // frames the sender sent, oldest first
	toS     []msg.Msg // acknowledgements the receiver sent
	kb, kbm []byte
}

func newRingOracle(t *testing.T, m, w int, input seq.Seq) *ringOracle {
	spec := MustNew(m, w)
	s, err := spec.NewSender(input)
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	tab := msg.TableFor(Decl(m, w))
	return &ringOracle{t: t, s: s.(*sender), r: r.(*receiver),
		ms: &mapSender{window: w, t: tab, input: input.Clone(), acked: map[int]bool{}},
		mr: &mapReceiver{m: m, window: w, t: tab, buffered: map[int]seq.Item{}}}
}

// queueCap bounds each queue: the oldest frame is lost past it.
const queueCap = 256

func push(q []msg.Msg, ms []msg.Msg) []msg.Msg {
	q = append(q, ms...)
	if len(q) > queueCap {
		q = q[len(q)-queueCap:]
	}
	return q
}

func (o *ringOracle) senderStep(what string, ev protocol.Event) {
	o.t.Helper()
	got, want := o.s.Step(ev), o.ms.Step(ev)
	if !equalMsgs(got, want) {
		o.t.Fatalf("%s: sender sent %q, reference %q", what, got, want)
	}
	if o.s.Moved() != o.ms.Moved() {
		o.t.Fatalf("%s: sender Moved %v, reference %v", what, o.s.Moved(), o.ms.Moved())
	}
	o.toR = push(o.toR, got)
	o.compare(what)
}

func (o *ringOracle) receiverStep(what string, ev protocol.Event) {
	o.t.Helper()
	acks, writes := o.r.Step(ev)
	macks, mwrites := o.mr.Step(ev)
	if !equalMsgs(acks, macks) || !writes.Equal(mwrites) {
		o.t.Fatalf("%s: receiver sent %q wrote %v, reference %q %v", what, acks, writes, macks, mwrites)
	}
	o.toS = push(o.toS, acks)
	o.compare(what)
}

func (o *ringOracle) compare(what string) {
	o.t.Helper()
	if a, b := o.s.Key(), o.ms.Key(); a != b {
		o.t.Fatalf("%s: sender Key %q, reference %q", what, a, b)
	}
	if a, b := o.r.Key(), o.mr.Key(); a != b {
		o.t.Fatalf("%s: receiver Key %q, reference %q", what, a, b)
	}
	o.kb, o.kbm = o.s.EncodeKey(o.kb[:0]), o.ms.EncodeKey(o.kbm[:0])
	if string(o.kb) != string(o.kbm) {
		o.t.Fatalf("%s: sender EncodeKey %x, reference %x", what, o.kb, o.kbm)
	}
	o.kb, o.kbm = o.r.EncodeKey(o.kb[:0]), o.mr.EncodeKey(o.kbm[:0])
	if string(o.kb) != string(o.kbm) {
		o.t.Fatalf("%s: receiver EncodeKey %x, reference %x", what, o.kb, o.kbm)
	}
	if o.s.Done() != o.ms.Done() {
		o.t.Fatalf("%s: sender Done %v, reference %v", what, o.s.Done(), o.ms.Done())
	}
}

func equalMsgs(a, b []msg.Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The parameters the fuzzer draws from: windows that make the ring one
// slot, two, odd and large, and domains of one, two and many values.
var (
	fuzzWindows = []int{1, 2, 3, 16, 64}
	fuzzDomains = []int{1, 2, 64}
)

// FuzzSelrepeatRings holds the ring-backed sender and receiver to the
// map-backed reference above. The first three bytes pick the window, the
// domain and the tape; each later byte is an action with its operands
// taken from the bytes after it: a tick, an arbitrary acknowledgement or
// data frame (stale, out of window or fresh), a frame in neither
// alphabet, delivery, loss or duplication of a queued frame, a Clone of
// both pairs taken mid-stream (the originals are stepped on after it, and
// must not disturb the clones), or a Scramble of either end from one rng
// stream.
func FuzzSelrepeatRings(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 0, 6, 7, 0, 0, 6, 7})
	f.Add([]byte{1, 1, 9, 0, 0, 0, 6, 8, 2, 6, 6, 7, 7, 0, 1, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{2, 2, 40, 0, 0, 0, 0, 4, 5, 9, 4, 1, 33, 6, 6, 9, 0, 7, 7, 7, 9, 3, 77, 2, 4})
	f.Add([]byte{3, 2, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 8, 0, 6, 6, 6, 6, 7, 9, 1, 7, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 1, 130, 9, 5, 42, 9, 7, 43, 0, 0, 4, 70, 3, 4, 71, 1, 2, 5, 3, 1, 3, 2})
	f.Fuzz(fuzzOne)
}

func fuzzOne(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	w, m := fuzzWindows[int(data[0])%len(fuzzWindows)], fuzzDomains[int(data[1])%len(fuzzDomains)]
	mod := 2 * w
	input := make(seq.Seq, int(data[2])%160)
	for i := range input {
		input[i] = seq.Item((i*7 + int(data[2])) % m)
	}
	o := newRingOracle(t, m, w, input)
	ops := data[3:]
	arg := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	aliens := []msg.Msg{"zz", "s:+1:0", msg.Format("sa", mod), msg.Format("s", mod, 0), msg.Format("s", 0, m), DataMsg(mod, 0, 0), AckMsg(mod, 0)}
	o.compare("start")
	for len(ops) > 0 {
		switch arg() % 10 {
		case 0, 1:
			o.senderStep("tick", protocol.TickEvent())
		case 2:
			o.senderStep("ack", protocol.RecvEvent(AckMsg(mod, arg())))
		case 3:
			o.senderStep("alien to sender", protocol.RecvEvent(aliens[arg()%len(aliens)]))
		case 4:
			o.receiverStep("data", protocol.RecvEvent(DataMsg(mod, arg(), seq.Item(arg()%m))))
		case 5:
			if a := arg(); a%(len(aliens)+1) == len(aliens) {
				o.receiverStep("tick to receiver", protocol.TickEvent())
			} else {
				o.receiverStep("alien to receiver", protocol.RecvEvent(aliens[a%len(aliens)]))
			}
		case 6:
			if len(o.toR) > 0 {
				mg := o.toR[0]
				o.toR = o.toR[1:]
				o.receiverStep("deliver "+string(mg), protocol.RecvEvent(mg))
			}
		case 7:
			if len(o.toS) > 0 {
				mg := o.toS[0]
				o.toS = o.toS[1:]
				o.senderStep("deliver "+string(mg), protocol.RecvEvent(mg))
			}
		case 8:
			switch a := arg() % 4; {
			case a == 0 && len(o.toR) > 0:
				o.toR = o.toR[1:]
			case a == 1 && len(o.toS) > 0:
				o.toS = o.toS[1:]
			case a == 2 && len(o.toR) > 0:
				o.toR = push(o.toR, o.toR[:1])
			case a == 3 && len(o.toS) > 0:
				o.toS = push(o.toS, o.toS[:1])
			}
		case 9:
			a := arg()
			if a%3 == 0 {
				old, oldR := o.s, o.r
				o.s, o.r = old.Clone().(*sender), oldR.Clone().(*receiver)
				o.ms, o.mr = o.ms.Clone(), o.mr.Clone()
				// The originals live on: stepping them must leave
				// the clones as they were.
				for i := 0; i < 2*timeoutTicks; i++ {
					old.Step(protocol.TickEvent())
				}
				old.Step(protocol.RecvEvent(AckMsg(mod, old.base)))
				oldR.Step(protocol.RecvEvent(DataMsg(mod, oldR.next+1, 0)))
				oldR.Step(protocol.RecvEvent(DataMsg(mod, oldR.next, 0)))
				o.compare("clone")
				continue
			}
			seed := int64(arg())
			if a%3 == 1 {
				o.s.Scramble(rand.New(rand.NewSource(seed)))
				o.ms.Scramble(rand.New(rand.NewSource(seed)))
			} else {
				o.r.Scramble(rand.New(rand.NewSource(seed)))
				o.mr.Scramble(rand.New(rand.NewSource(seed)))
			}
			o.compare("scramble")
		}
	}
}

// TestRingsMatchReference runs the fuzz target's action language over
// seeded random streams for every window and domain the fuzzer draws
// from, so the differential check runs in tier-1 beyond the seed corpus.
func TestRingsMatchReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(38))
	for wi, w := range fuzzWindows {
		for mi, m := range fuzzDomains {
			for trial := 0; trial < 10; trial++ {
				data := make([]byte, 3+rng.Intn(2000))
				rng.Read(data)
				data[0], data[1] = byte(wi), byte(mi)
				for i := 3; i < len(data); i++ {
					if rng.Intn(3) == 0 { // more ticks and deliveries than chance gives
						data[i] = []byte{0, 6, 7}[rng.Intn(3)]
					}
				}
				t.Run(fmt.Sprintf("W=%d/m=%d/%d", w, m, trial), func(t *testing.T) {
					fuzzOne(t, data)
				})
			}
		}
	}
}
