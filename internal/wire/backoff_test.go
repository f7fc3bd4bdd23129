package wire

import (
	"testing"
	"time"

	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/registry"
)

// TestBackoffCapPinned pins the retransmission backoff law: doubling
// under consecutive retransmissions, a hard ceiling of BackoffCapFactor
// base ticks, jitter bounded by ±25%, and a reset straight back to the
// base interval on progress.
func TestBackoffCapPinned(t *testing.T) {
	base := time.Millisecond
	b := newBackoff(base, 42, 0)
	if b.cur != base {
		t.Fatalf("initial interval %v, want %v", b.cur, base)
	}
	want := base
	for i := 0; i < 100; i++ {
		b.grow()
		if want < BackoffCapFactor*base {
			want *= 2
		}
		if b.cur != want {
			t.Fatalf("after %d grows interval %v, want %v", i+1, b.cur, want)
		}
	}
	if b.cur != BackoffCapFactor*base {
		t.Fatalf("cap %v, want %v", b.cur, BackoffCapFactor*base)
	}
	lo := time.Duration(float64(b.cur) * (1 - backoffJitter))
	hi := time.Duration(float64(b.cur) * (1 + backoffJitter))
	for i := 0; i < 1000; i++ {
		if j := b.jittered(); j < lo || j > hi {
			t.Fatalf("jittered interval %v outside [%v, %v]", j, lo, hi)
		}
	}
	b.reset()
	if b.cur != base {
		t.Fatalf("after reset interval %v, want %v", b.cur, base)
	}
}

// TestBackoffDueness: arming schedules the next spontaneous step one
// jittered interval out — never before 75% of the current interval,
// always due by 125% of it.
func TestBackoffDueness(t *testing.T) {
	base := 8 * time.Millisecond
	const now = int64(1e9)
	b := newBackoff(base, 7, now)
	for i := 0; i < 50; i++ {
		if b.due(now + int64(float64(base)*(1-backoffJitter-0.01))) {
			t.Fatalf("arm %d: due before the jitter floor", i)
		}
		if !b.due(now + int64(float64(base)*(1+backoffJitter+0.01))) {
			t.Fatalf("arm %d: not due after the jitter ceiling", i)
		}
		b.arm(now)
	}
}

// TestBackoffJitterSeedDeterminism: equal seeds draw equal jitter
// streams, so a session's pacing replays from its seed.
func TestBackoffJitterSeedDeterminism(t *testing.T) {
	a := newBackoff(time.Millisecond, 99, 0)
	b := newBackoff(time.Millisecond, 99, 0)
	for i := 0; i < 64; i++ {
		if ja, jb := a.jittered(), b.jittered(); ja != jb {
			t.Fatalf("draw %d diverged: %v vs %v", i, ja, jb)
		}
		if i%5 == 0 {
			a.grow()
			b.grow()
		}
	}
}

// TestBackoffResetOnlyOnProgress: the interval grown by an outage's
// retransmissions survives any run of stale and duplicate
// acknowledgements — they are not progress — and returns to the base on
// the first acknowledgement that moves the sender forward.
func TestBackoffResetOnlyOnProgress(t *testing.T) {
	w, s := detachedSession(t, "alpha", registry.Params{M: 8}, rampTape(4))
	w.turn()
	deliverAcks(w, s, alphaproto.AckMsg(0)) // d:1 is now the frame in flight
	for i := 0; i < 3; i++ {                // the outage: three timer retransmissions of d:1
		if !s.spontaneous(w.eng.now()) {
			t.Fatal("transport closed")
		}
	}
	grown := s.bo.cur
	if grown != 8*s.bo.base {
		t.Fatalf("three retransmissions left the interval at %v, want %v", grown, 8*s.bo.base)
	}
	stale := alphaproto.AckMsg(0)
	if n := deliverAcks(w, s, stale, stale, stale); n != 0 || s.bo.cur != grown {
		t.Errorf("stale acknowledgements: %d sends, interval %v -> %v; want none and unchanged", n, grown, s.bo.cur)
	}
	if n := deliverAcks(w, s, alphaproto.AckMsg(1)); n != 1 || s.bo.cur != s.bo.base {
		t.Errorf("progress acknowledgement: %d sends, interval %v; want 1 and the base %v", n, s.bo.cur, s.bo.base)
	}
}
