package wire

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// TestInboxInlineBound: an inbox bounded at or below the inline ring's
// size is that ring for its whole life — it fills to exactly its bound,
// drops the next message and never allocates a second ring.
func TestInboxInlineBound(t *testing.T) {
	for _, c := range []struct{ size, bound int }{{1, 1}, {2, 2}, {3, 4}, {4, 4}} {
		var q inbox
		q.init(c.size)
		var got []msg.Msg
		for round := 0; round < 3; round++ {
			for i := 0; i < c.bound; i++ {
				if r := q.stage(msg.Msg(strconv.Itoa(i))); r != pushOK {
					t.Fatalf("InboxSize %d round %d: stage %d = %v, want pushOK", c.size, round, i, r)
				}
			}
			if r := q.stage("over"); r != pushFull {
				t.Fatalf("InboxSize %d round %d: stage past the bound %d = %v, want pushFull", c.size, round, c.bound, r)
			}
			q.publish()
			got = q.drain(got)
			for i, m := range got {
				if m != msg.Msg(strconv.Itoa(i)) {
					t.Fatalf("InboxSize %d round %d: drained %v, want 0..%d in order", c.size, round, got, c.bound-1)
				}
			}
			if len(got) != c.bound {
				t.Fatalf("InboxSize %d round %d: drained %d, want %d", c.size, round, len(got), c.bound)
			}
		}
		if q.ring.Load() != &q.small || q.grown != nil || len(q.small) != c.bound {
			t.Errorf("InboxSize %d left its %d-slot inline ring", c.size, len(q.small))
		}
	}
}

// TestInboxInlineZeroAlloc: under the default bound, bursts that fit the
// inline ring stage, publish and drain with no allocation at all — not
// even a first one: the inbox never grows.
func TestInboxInlineZeroAlloc(t *testing.T) {
	var q inbox
	q.init(DefaultInboxSize)
	batch := make([]msg.Msg, 0, inlineSlots)
	allocs := testing.AllocsPerRun(100, func() {
		for n := 1; n <= inlineSlots; n++ {
			for i := 0; i < n; i++ {
				if q.stage("d:1") != pushOK {
					t.Fatal("stage failed")
				}
			}
			q.publish()
			if batch = q.drain(batch); len(batch) != n {
				t.Fatalf("drained %d, want %d", len(batch), n)
			}
		}
	})
	if allocs != 0 || q.grown != nil {
		t.Errorf("inline bursts: %v allocs a run, grown ring %v; want 0 and none", allocs, q.grown != nil)
	}
}

// TestInboxGrowsOnce: an inbox bounded at 64 takes a 64-frame burst by
// growing once, to 64 slots; the burst's 65th frame is a full-inbox drop,
// counted for the session and the mux; and later bursts reuse the grown
// ring without allocating.
func TestInboxGrowsOnce(t *testing.T) {
	mux, _ := manualMux(t, discard{})
	x := seq.Seq{0, 1, 2, 3}
	s, r, err := registry.Pair("alpha", zooParams, x)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	sess, err := mux.NewSession(SessionConfig{ID: 1, Sender: s, Receiver: r, Input: x, InboxSize: 64})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	q := &sess.receiverInbox
	frame := EncodeFrame(Frame{Session: 1, Dir: channel.SToR, Msg: s.Alphabet().Msgs()[0]})
	burst := make([][]byte, 65)
	for i := range burst {
		burst[i] = frame
	}
	mux.arrive(ReceiverEnd, burst...)
	if q.ring.Load() != &q.grown || len(q.grown) != 64 {
		t.Fatalf("after a 65-frame burst the live ring has %d slots, want the grown 64", len(*q.ring.Load()))
	}
	if d := sess.inboxDrops.Load(); d != 1 {
		t.Fatalf("the 65th frame: %d inbox drops, want 1", d)
	}
	scratch := make([]msg.Msg, 0, 64)
	if n := len(q.drain(scratch)); n != 64 {
		t.Fatalf("drained %d, want 64", n)
	}
	grown := &q.grown[0]
	allocs := testing.AllocsPerRun(20, func() {
		mux.arrive(ReceiverEnd, burst[:64]...)
		if n := len(q.drain(scratch)); n != 64 {
			t.Fatalf("drained %d, want 64", n)
		}
	})
	if allocs != 0 || &q.grown[0] != grown {
		t.Errorf("a full burst into the grown ring: %v allocs, same ring %v; want 0 and the same", allocs, &q.grown[0] == grown)
	}
	if d := sess.inboxDrops.Load(); d != 1 {
		t.Errorf("%d inbox drops after bursts that fit, want still 1", d)
	}
}

// TestInboxGrowRace: a producer stages bursts of 1…64 into fresh 64-slot
// inboxes, each waiting only until its burst fits the bound, while a
// consumer drains them as a worker would. Every inbox grows under the
// consumer's feet; nothing staged within the bound may drop, and the
// consumer must read every message once, in order. Run it under -race.
func TestInboxGrowRace(t *testing.T) {
	const rounds, perRound = 64, 2048
	msgs := make([]msg.Msg, perRound)
	for i := range msgs {
		msgs[i] = msg.Msg(strconv.Itoa(i))
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		var q inbox
		q.init(DefaultInboxSize)
		ready := make(chan struct{})
		consumed := make(chan struct{}) // closed when the consumer stops
		go func() {
			defer close(consumed)
			close(ready)
			var batch []msg.Msg
			for next, idle := 0, 0; next < perRound; {
				batch = q.drain(batch)
				for _, m := range batch {
					if m != msgs[next] {
						t.Errorf("round %d: read %q at %d, want %q", round, m, next, msgs[next])
						return
					}
					next++
				}
				if len(batch) == 0 {
					if idle++; idle%64 == 0 {
						runtime.Gosched()
					}
				}
			}
		}()
		<-ready
		for sent := 0; sent < perRound; {
			b := min(1+rng.Intn(64), perRound-sent)
			for q.limit-(q.stagedTail-q.head.Load()) < uint64(b) {
				select {
				case <-consumed:
					t.Fatalf("round %d: the consumer stopped with %d of %d staged", round, sent, perRound)
				default:
					runtime.Gosched()
				}
			}
			for i := 0; i < b; i++ {
				if r := q.stage(msgs[sent]); r != pushOK {
					t.Fatalf("round %d: stage %d within the bound = %v", round, sent, r)
				}
				sent++
			}
			q.publish()
		}
		<-consumed
		if t.Failed() {
			return
		}
		if q.ring.Load() != &q.grown {
			t.Fatalf("round %d: bursts of up to 64 never grew the inbox", round)
		}
	}
}
