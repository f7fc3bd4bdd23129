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
// given timeout on progress; and the round-trip estimate that gives it.
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
	b.reset(base / 4)
	if b.cur != base/4 {
		t.Fatalf("after reset interval %v, want %v", b.cur, base/4)
	}

	// RFC 6298 on pinned samples, in nanoseconds: gains of 1/8 and 1/4,
	// srtt + 4·rttvar clamped to [tick/4, tick], tick before any sample.
	t.Run("round-trip estimate", func(t *testing.T) {
		const tick = time.Millisecond
		var e rttEstimate
		if got := e.rto(tick); got != tick {
			t.Errorf("no sample: rto %v, want the tick %v", got, tick)
		}
		for i, c := range []struct {
			r, srtt, rttvar int64
			rto             time.Duration
		}{
			{100_000, 100_000, 50_000, 300 * time.Microsecond}, // the first sets srtt = R, rttvar = R/2
			{200_000, 112_500, 62_500, 362_500},                // rttvar += (|srtt−R| − rttvar)/4 with the old srtt
			{100_000, 110_938, 50_000, 310_938},                // srtt += (R − srtt)/8, truncated toward zero
			{0, 97_071, 65_234, 358_007},
		} {
			e.sample(c.r)
			if e.srtt != c.srtt || e.rttvar != c.rttvar || e.rto(tick) != c.rto {
				t.Errorf("sample %d (%d ns): srtt %d rttvar %d rto %v, want %d %d %v", i, c.r, e.srtt, e.rttvar, e.rto(tick), c.srtt, c.rttvar, c.rto)
			}
		}
		for _, c := range []struct {
			name string
			r    time.Duration
			want time.Duration
		}{
			{"above the ceiling", 2 * time.Millisecond, tick},
			{"below the floor", 10 * time.Microsecond, tick / 4},
			{"a zero sample counts", 0, tick / 4}, // a manual engine's round trip
		} {
			var e rttEstimate
			if e.sample(int64(c.r)); e.rto(tick) != c.want {
				t.Errorf("%s: one sample of %v gives rto %v, want %v", c.name, c.r, e.rto(tick), c.want)
			}
		}
	})
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
// acknowledgements — they are not progress — and returns to the worker's
// measured timeout, not to the tick, on the first acknowledgement that
// moves the sender forward.
func TestBackoffResetOnlyOnProgress(t *testing.T) {
	w, s := detachedSession(t, "alpha", registry.Params{M: 8}, rampTape(4))
	w.turn()
	w.eng.clock = int64(6 * time.Minute)    // the hour tick's round trip: rto = 6 + 4·3 minutes
	deliverAcks(w, s, alphaproto.AckMsg(0)) // d:1 is now the frame in flight
	rto := w.rtt.rto(s.cfg.Tick)
	if rto != 18*time.Minute {
		t.Fatalf("one 6-minute sample gives rto %v, want 18m", rto)
	}
	for i := 0; i < 3; i++ { // the outage: three timer retransmissions of d:1
		if !s.spontaneous(w.eng.now()) {
			t.Fatal("transport closed")
		}
	}
	grown := s.bo.cur
	if grown != 8*rto {
		t.Fatalf("three retransmissions left the interval at %v, want %v", grown, 8*rto)
	}
	stale := alphaproto.AckMsg(0)
	if n := deliverAcks(w, s, stale, stale, stale); n != 0 || s.bo.cur != grown {
		t.Errorf("stale acknowledgements: %d sends, interval %v -> %v; want none and unchanged", n, grown, s.bo.cur)
	}
	if n := deliverAcks(w, s, alphaproto.AckMsg(1)); n != 1 || s.bo.cur != rto {
		t.Errorf("progress acknowledgement: %d sends, interval %v; want 1 and the worker's rto %v", n, s.bo.cur, rto)
	}
}
