package wire

import (
	"time"

	"seqtx/internal/faults"
)

// BackoffCapFactor bounds the retransmission backoff: the interval
// between the timer's sender steps doubles on every retransmission but
// never exceeds BackoffCapFactor times the session's tick. The cap
// keeps a session recoverable — even after a long outage the sender
// probes at least every 32 ticks, so healing a partition is noticed
// within one capped interval.
const BackoffCapFactor = 32

// backoffJitter is the ± fraction applied to every armed interval. The
// draw comes from the session's seeded RNG, so jitter decorrelates
// sessions on a shared transport without costing replay determinism.
const backoffJitter = 0.25

// backoff is the sender's retransmission clock: exponential growth
// under consecutive retransmissions, reset on progress to the worker's
// measured timeout (rttEstimate.rto), capped, jittered. Every spontaneous
// step re-arms it — the progress-clocked ones in service as well as the
// timer's — so it times the silence since the last send. next, the
// sender's own instant, is part of the session's nextWake: no timer is
// added. Instants (now, next) are nanoseconds on the engine timeline, like
// every other time the loop compares.
//
// The struct is pure (no goroutines, no clocks of its own) so the cap
// and growth law can be pinned by unit tests. The jitter stream is an
// inline SplitMix64 state — eight bytes per session — instead of a
// *rand.Rand, whose lagged-Fibonacci table costs ~5 KB each and would
// dominate per-session memory at a million sessions.
type backoff struct {
	max  time.Duration
	cur  time.Duration
	rng  uint64
	next int64
}

func newBackoff(tick time.Duration, seed int64, now int64) backoff {
	b := backoff{
		max: BackoffCapFactor * tick,
		cur: tick,
		rng: uint64(seed),
	}
	b.arm(now)
	return b
}

// due reports whether the timer may grant a spontaneous step at now.
func (b *backoff) due(now int64) bool { return now >= b.next }

// arm puts the timer's next spontaneous step one jittered interval
// after now, and never at now itself.
func (b *backoff) arm(now int64) { b.next = now + max(1, int64(b.jittered())) }

// jittered returns the current interval ±backoffJitter, drawn from the
// seeded stream.
func (b *backoff) jittered() time.Duration {
	u := float64(faults.SplitMix64(b.rng)>>11) / (1 << 53) // uniform [0,1)
	b.rng += faults.SplitMixGamma
	f := 1 + backoffJitter*(2*u-1)
	return time.Duration(float64(b.cur) * f)
}

// grow doubles the interval after a retransmission, up to the cap.
func (b *backoff) grow() {
	b.cur *= 2
	if b.cur > b.max {
		b.cur = b.max
	}
}

// reset returns to the interval rto on progress (a fresh send, or an
// acknowledgement that moved the sender forward).
func (b *backoff) reset(rto time.Duration) { b.cur = rto }

// rttEstimate is a worker's smoothed round trip (RFC 6298), in engine
// nanoseconds: a round trip is the worker's queue plus the routers, which
// all its sessions share. A manual engine's deliveries do not move its
// clock, so a sample of 0 is legitimate and "no sample" a state of its own.
type rttEstimate struct {
	srtt, rttvar int64
	sampled      bool
}

// sample folds the round trip r in: the first sets srtt = r and
// rttvar = r/2, each later one moves them by gains of 1/8 and 1/4.
func (e *rttEstimate) sample(r int64) {
	if !e.sampled {
		e.srtt, e.rttvar, e.sampled = r, r/2, true
		return
	}
	e.rttvar += (max(e.srtt-r, r-e.srtt) - e.rttvar) / 4
	e.srtt += (r - e.srtt) / 8
}

// rto is the retransmission timeout of a session of the given tick:
// srtt + 4·rttvar clamped to [tick/4, tick], tick before any sample. The
// floor bounds spurious copies: past c + 1 in flight on a capacity-c link
// they are waste.
func (e *rttEstimate) rto(tick time.Duration) time.Duration {
	if !e.sampled {
		return tick
	}
	return min(max(time.Duration(e.srtt+4*e.rttvar), tick/4), tick)
}
