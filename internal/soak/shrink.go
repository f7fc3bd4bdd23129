package soak

import (
	"strconv"

	"seqtx/internal/obs"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
)

// Counterexample is a captured, minimized failing run.
type Counterexample struct {
	// OriginalSteps is the length of the captured failing trace.
	OriginalSteps int `json:"original_steps"`
	// ShrunkSteps is the length after ddmin.
	ShrunkSteps int `json:"shrunk_steps"`
	// Replays is how many oracle replays the minimization consumed.
	Replays int `json:"replays"`
	// ReplayOK confirms a final fresh replay of the shrunk actions still
	// reproduces the violation.
	ReplayOK bool `json:"replay_ok"`
	// Trace is the shrunk run as the final replay recorded it: only the
	// actions that replay applied, so sim.Accept (stpsim -replay) plays it
	// in full on a fresh world of the case's protocol and channel.
	Trace *trace.Trace `json:"trace"`
}

// Replay re-executes a recorded action sequence against a fresh build of
// the case (fresh processes, fresh link, fresh fault wrappers) and
// returns the resulting world. Unlike sim.Accept it is lenient on
// purpose: ddmin's subsequences legitimately lose the send behind a
// delivery, so an action that is not replayable in the rebuilt world
// (World.Replayable) is skipped, which keeps every subsequence of a valid
// run itself replayable. The replay stops early once safety is violated
// (the oracle needs nothing further).
func Replay(c Case, actions []trace.Action) (*sim.World, error) {
	w, _, _, err := c.build()
	if err != nil {
		return nil, err
	}
	w.StartTrace()
	for _, act := range actions {
		if !w.Replayable(act) {
			continue
		}
		if err := w.Apply(act); err != nil {
			return w, err
		}
		if w.SafetyViolation != nil {
			break
		}
	}
	return w, nil
}

// shrinkCase minimizes a failing trace and double-checks the result with
// one final fresh replay. reg (nil allowed) records the shrink effort.
func shrinkCase(c Case, failing *trace.Trace, maxReplays int, reg *obs.Registry) *Counterexample {
	actions := failing.Actions()
	cex := &Counterexample{OriginalSteps: len(actions)}
	oracle := func(cand []trace.Action) bool {
		w, err := Replay(c, cand)
		return err == nil && w.SafetyViolation != nil
	}
	shrunk, replays := ddmin(actions, oracle, maxReplays)
	cex.ShrunkSteps = len(shrunk)
	cex.Replays = replays

	// Re-run the shrunk sequence once more against a fresh world and keep
	// its recorded trace as the artifact: entries carry the sends/writes of
	// the minimal run, not the original's.
	w, err := Replay(c, shrunk)
	if err == nil && w.SafetyViolation != nil {
		cex.ReplayOK = true
		cex.Trace = w.Trace
	} else {
		// Shrinking failed to preserve the violation (oracle budget hit on a
		// flaky boundary); fall back to the unshrunk original, which did.
		cex.ShrunkSteps = len(actions)
		cex.Trace = failing
		w, err := Replay(c, actions)
		cex.ReplayOK = err == nil && w.SafetyViolation != nil
	}
	if reg != nil {
		reg.Counter("soak_shrinks_total").Inc()
		reg.Histogram("soak_shrink_replays", obs.StepBuckets).Observe(float64(cex.Replays))
		reg.Histogram("soak_shrink_removed_steps", obs.StepBuckets).
			Observe(float64(cex.OriginalSteps - cex.ShrunkSteps))
		reg.Emit("soak.shrink.converged",
			"case", c.ID(),
			"from", strconv.Itoa(cex.OriginalSteps),
			"to", strconv.Itoa(cex.ShrunkSteps),
			"replays", strconv.Itoa(cex.Replays),
			"replay_ok", strconv.FormatBool(cex.ReplayOK))
	}
	return cex
}

// ddmin is the classic delta-debugging minimization (Zeller & Hildebrandt)
// over action sequences: partition the sequence into n chunks, try
// removing each chunk, refine the granularity when nothing can be
// removed, stop at 1-minimality or when the replay budget runs out. test
// must hold for the input sequence; the result is a subsequence for which
// it still holds.
func ddmin(actions []trace.Action, test func([]trace.Action) bool, maxReplays int) ([]trace.Action, int) {
	replays := 0
	tryTest := func(cand []trace.Action) bool {
		if replays >= maxReplays {
			return false
		}
		replays++
		return test(cand)
	}
	cur := actions
	n := 2
	for len(cur) >= 2 && n <= len(cur) && replays < maxReplays {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			end := min(start+chunk, len(cur))
			cand := make([]trace.Action, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) == 0 {
				continue
			}
			if tryTest(cand) {
				cur = cand
				n = max(2, n-1)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min(len(cur), 2*n)
		}
	}
	return cur, replays
}
