package registry_test

// The golden wire-format regression test pins every registered
// protocol's observable message behaviour byte-for-byte: the full
// sender/receiver alphabet enumerations (order included — encode
// tables index by alphabet position) and digests of deterministic wire
// runs (DetRun schedules + output tapes) across several seeds and dup
// cadences. Any change to a message encoding or an alphabet enumeration
// order is a regression, not data.
//
// DetRun is the production engine under a seeded schedule, so the det
// digests also pin engine policy — the tick phase, the backoff and its
// jitter stream, progress clocking, the order of a worker's turn — and
// the det scheduler's choice law. A PR that means to change that policy
// re-pins the digests and says why; the alphabets and spec names must
// still come out byte-identical. (The det link is a dup channel: it
// holds one copy of a frame however many the impairment makes, so the
// two dup cadences of a seed share a digest.)
//
// Regenerate (only for an intentional change) with:
//
//	go test ./internal/registry/ -run TestGoldenWireFormat -update-golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden wire-format file")

type goldenEntry struct {
	SpecName         string   `json:"spec_name"`
	SenderAlphabet   []string `json:"sender_alphabet"`
	ReceiverAlphabet []string `json:"receiver_alphabet"`
	// Det maps "seed=S,dup=N" to a digest of the DetRun schedule
	// (action kinds, directions, and message bytes), the output tape,
	// and the frame counters.
	Det map[string]string `json:"det"`
}

const goldenPath = "testdata/wire_golden.json"

func goldenParams() registry.Params {
	return registry.Params{M: 4, Timeout: 4, Window: 4, Cap: 2}
}

func goldenInput() seq.Seq { return seq.Seq{0, 1, 2, 3} }

func buildGoldenEntry(t *testing.T, name string) goldenEntry {
	t.Helper()
	spec, err := registry.Protocol(name, goldenParams())
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	s, err := spec.NewSender(goldenInput())
	if err != nil {
		t.Fatalf("%s sender: %v", name, err)
	}
	r, err := spec.NewReceiver()
	if err != nil {
		t.Fatalf("%s receiver: %v", name, err)
	}
	e := goldenEntry{
		SpecName: spec.Name,
		Det:      map[string]string{},
	}
	for _, m := range s.Alphabet().Msgs() {
		e.SenderAlphabet = append(e.SenderAlphabet, string(m))
	}
	for _, m := range r.Alphabet().Msgs() {
		e.ReceiverAlphabet = append(e.ReceiverAlphabet, string(m))
	}

	for _, seed := range []int64{1, 2, 3} {
		for _, dup := range []int{0, 3} {
			s, err := spec.NewSender(goldenInput())
			if err != nil {
				t.Fatalf("%s sender: %v", name, err)
			}
			r, err := spec.NewReceiver()
			if err != nil {
				t.Fatalf("%s receiver: %v", name, err)
			}
			res, err := wire.DetRun(wire.DetConfig{
				Sender:   s,
				Receiver: r,
				Input:    goldenInput(),
				Seed:     seed,
				Impair:   wire.Options{DupEveryN: dup},
			})
			if err != nil {
				t.Fatalf("%s det seed=%d dup=%d: %v", name, seed, dup, err)
			}
			h := fnv.New64a()
			for _, act := range res.Script {
				fmt.Fprintf(h, "%d|%d|%s\n", int(act.Kind), int(act.Dir), string(act.Msg))
			}
			fmt.Fprintf(h, "out=%v complete=%v steps=%d frames=%d acks=%d",
				res.Output, res.Complete, res.Steps, res.FramesTx, res.AcksTx)
			e.Det[fmt.Sprintf("seed=%d,dup=%d", seed, dup)] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	return e
}

func TestGoldenWireFormat(t *testing.T) {
	got := map[string]goldenEntry{}
	for _, name := range registry.ProtocolNames() {
		got[name] = buildGoldenEntry(t, name)
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s (%d protocols)", goldenPath, len(got))
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	var names []string
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("protocol count changed: golden has %d, registry has %d", len(want), len(got))
	}
	for _, name := range names {
		w, g := want[name], got[name]
		if g.SpecName == "" {
			t.Errorf("%s: in golden but not in registry", name)
			continue
		}
		if g.SpecName != w.SpecName {
			t.Errorf("%s: spec name changed: %q -> %q", name, w.SpecName, g.SpecName)
		}
		if !reflect.DeepEqual(g.SenderAlphabet, w.SenderAlphabet) {
			t.Errorf("%s: sender alphabet changed:\n golden: %v\n got:    %v", name, w.SenderAlphabet, g.SenderAlphabet)
		}
		if !reflect.DeepEqual(g.ReceiverAlphabet, w.ReceiverAlphabet) {
			t.Errorf("%s: receiver alphabet changed:\n golden: %v\n got:    %v", name, w.ReceiverAlphabet, g.ReceiverAlphabet)
		}
		for k, wd := range w.Det {
			if gd := g.Det[k]; gd != wd {
				t.Errorf("%s: DetRun schedule digest changed at %s: %s -> %s", name, k, wd, gd)
			}
		}
	}
}
