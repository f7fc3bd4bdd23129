package trace

import (
	"encoding/json"
	"fmt"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/seq"
)

// The wire format keeps traces readable as artifacts: counterexample runs
// from the model checker can be saved, diffed, and replayed (sim.Accept
// plays a trace's action list).

// actionJSON is the wire form of an Action.
type actionJSON struct {
	Kind string `json:"kind"`
	Dir  string `json:"dir,omitempty"`
	Msg  string `json:"msg,omitempty"`
	Seed int64  `json:"seed,omitempty"`
}

// entryJSON is the wire form of an Entry.
type entryJSON struct {
	Time   int        `json:"t"`
	Act    actionJSON `json:"act"`
	Sends  []string   `json:"sends,omitempty"`
	Writes []int      `json:"writes,omitempty"`
}

// traceJSON is the wire form of a Trace.
type traceJSON struct {
	Name    string      `json:"name,omitempty"`
	Input   []int       `json:"input"`
	Entries []entryJSON `json:"entries"`
}

var kindNames = map[ActKind]string{
	ActTickS:      "tickS",
	ActTickR:      "tickR",
	ActDeliver:    "deliver",
	ActDeliverDup: "deliver+dup",
	ActDrop:       "drop",
	ActCrashS:     "crashS",
	ActCrashR:     "crashR",
	ActScrambleS:  "scrambleS",
	ActScrambleR:  "scrambleR",
}

// hasSeed reports whether the kind carries a corruption seed.
func hasSeed(k ActKind) bool { return k == ActScrambleS || k == ActScrambleR }

var kindValues = func() map[string]ActKind {
	m := make(map[string]ActKind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

var dirNames = map[channel.Dir]string{
	channel.SToR: "s2r",
	channel.RToS: "r2s",
}

var dirValues = map[string]channel.Dir{
	"s2r": channel.SToR,
	"r2s": channel.RToS,
}

// MarshalJSON implements json.Marshaler.
func (t *Trace) MarshalJSON() ([]byte, error) {
	out := traceJSON{Name: t.Name, Input: itemsToInts(t.Input)}
	for _, e := range t.Entries {
		ej := entryJSON{Time: e.Time, Act: actionJSON{Kind: kindNames[e.Act.Kind]}}
		if ej.Act.Kind == "" {
			return nil, fmt.Errorf("trace: unknown action kind %d", int(e.Act.Kind))
		}
		if e.Act.Kind.OnChannel() {
			ej.Act.Dir = dirNames[e.Act.Dir]
			ej.Act.Msg = string(e.Act.Msg)
		}
		if hasSeed(e.Act.Kind) {
			ej.Act.Seed = e.Act.Seed
		}
		for _, m := range e.Sends {
			ej.Sends = append(ej.Sends, string(m))
		}
		ej.Writes = itemsToInts(e.Writes)
		out.Entries = append(out.Entries, ej)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Trace) UnmarshalJSON(data []byte) error {
	var in traceJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.Name = in.Name
	t.Input = intsToItems(in.Input)
	t.Entries = nil
	for i, ej := range in.Entries {
		kind, ok := kindValues[ej.Act.Kind]
		if !ok {
			return fmt.Errorf("trace: entry %d: unknown action kind %q", i, ej.Act.Kind)
		}
		act := Action{Kind: kind}
		if kind.OnChannel() {
			dir, ok := dirValues[ej.Act.Dir]
			if !ok {
				return fmt.Errorf("trace: entry %d: unknown direction %q", i, ej.Act.Dir)
			}
			act.Dir = dir
			act.Msg = msg.Msg(ej.Act.Msg)
		}
		if hasSeed(kind) {
			act.Seed = ej.Act.Seed
		}
		e := Entry{Time: ej.Time, Act: act, Writes: intsToItems(ej.Writes)}
		for _, m := range ej.Sends {
			e.Sends = append(e.Sends, msg.Msg(m))
		}
		t.Entries = append(t.Entries, e)
	}
	return nil
}

// Actions returns the recorded action sequence, the script sim.Accept
// plays.
func (t *Trace) Actions() []Action {
	acts := make([]Action, len(t.Entries))
	for i, e := range t.Entries {
		acts[i] = e.Act
	}
	return acts
}

func itemsToInts(s seq.Seq) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

func intsToItems(xs []int) seq.Seq {
	if len(xs) == 0 {
		return nil
	}
	out := make(seq.Seq, len(xs))
	for i, v := range xs {
		out[i] = seq.Item(v)
	}
	return out
}
