package fleet

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"seqtx/internal/wire"
)

// parse declares the fleet flags over defaults and parses args, the way
// the CLIs do.
func parse(t *testing.T, defaults Spec, args ...string) Spec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defaults.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return defaults
}

// TestFlagsKeepTheReceiversDefaults: a flag's default is the receiver's
// field, so stpserve and stpload share one declaration and still differ
// in -sessions; and the defaults themselves validate.
func TestFlagsKeepTheReceiversDefaults(t *testing.T) {
	load := Default()
	load.Sessions = 64
	if got := parse(t, load); got != load {
		t.Errorf("no flags: spec = %+v, want the defaults %+v", got, load)
	}
	got := parse(t, Default(), "-proto", "gobackn", "-m", "32", "-items", "32", "-window", "16",
		"-sessions", "3", "-seed", "9", "-tick", "2ms", "-deadline", "0", "-inbox", "8", "-cap", "2",
		"-impair", "iid-loss(p=0.1)", "-crash-preset", "crash-sender", "-restart-policy", "amnesia")
	want := Spec{Proto: "gobackn", M: 32, Items: 32, Timeout: Default().Timeout, Window: 16, Cap: 2,
		Sessions: 3, FirstID: 1, Seed: 9, Tick: 2 * time.Millisecond, InboxSize: 8,
		Impair: "iid-loss(p=0.1)", Chaos: "crash-sender", RestartPolicy: "amnesia"}
	if got != want {
		t.Errorf("spec = %+v, want %+v", got, want)
	}
	for _, s := range []Spec{Default(), load, got} {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", s, err)
		}
	}
}

// TestValidateRejects is the one validation, with its one wording, that
// stpserve, stpload, stpmaster's cells and a node's assignment all get.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-items", "9"}, "-items 9 exceeds -m 8 (inputs are repetition-free); raise -m"},
		{[]string{"-sessions", "0"}, "-sessions must be > 0, got 0"},
		{[]string{"-sessions", "-3"}, "-sessions must be > 0, got -3"},
		{[]string{"-m", "0"}, "-m must be > 0, got 0"},
		{[]string{"-items", "0"}, "-items must be > 0, got 0"},
		{[]string{"-timeout", "-1"}, "-timeout must be >= 0, got -1"},
		{[]string{"-inbox", "-1"}, "-inbox must be >= 0, got -1"},
		{[]string{"-tick", "0"}, "-tick must be > 0 and -deadline >= 0, got 0s and 30s"},
		{[]string{"-deadline", "-1s"}, "-tick must be > 0 and -deadline >= 0, got 1ms and -1s"},
		{[]string{"-crash-preset", "burst-drop"}, `preset "burst-drop" schedules no process crashes; link impairments go via -impair`},
		{[]string{"-crash-preset", "no-such"}, `unknown preset "no-such"`},
		{[]string{"-impair", "crash-sender"}, "pass it via -crash-preset"},
		{[]string{"-impair", "no-such"}, `unknown impairment "no-such"`},
		{[]string{"-restart-policy", "bogus"}, `unknown restart policy "bogus"`},
		{[]string{"-crash-preset", "crash-sender", "-restart-policy", "bogus"}, `unknown restart policy "bogus"`},
		{[]string{"-proto", "hybrid", "-timeout", "0"}, "hybrid: timeout 0 < 1"},
		{[]string{"-proto", "no-such"}, `unknown protocol "no-such"`},
	} {
		s := parse(t, Default(), tc.args...)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: Validate = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// tapes renders the configs' ids and inputs, one "id:tape" per session.
func tapes(cfgs []wire.SessionConfig) string {
	var parts []string
	for _, c := range cfgs {
		parts = append(parts, fmt.Sprintf("%d:%s", c.ID, c.Input))
	}
	return strings.Join(parts, " ")
}

// TestTapesMatchTheFrontEnds pins what each front end derives from -seed
// under the one rule (tape seed = session seed = base + id) to the tapes
// it drew before the fold, when each had its own loop and its own
// spelling of "base + id". The seed that goes to the protocol
// parameters, the impairment model and the crash schedule is the flag
// (or cell) seed itself, never the tape base.
func TestTapesMatchTheFrontEnds(t *testing.T) {
	build := func(s Spec, half wire.End, base int64) []wire.SessionConfig {
		t.Helper()
		cfgs, err := s.Build(half, base)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for _, c := range cfgs {
			if c.Seed != base+int64(c.ID) || c.Half != half || c.Tick != s.Tick || c.Deadline != s.Deadline {
				t.Errorf("session %d: seed %d half %v tick %v deadline %v, want seed %d and the spec's pacing",
					c.ID, c.Seed, c.Half, c.Tick, c.Deadline, base+int64(c.ID))
			}
		}
		return cfgs
	}

	// stpserve -seed 1: session i has id i+1 and draws from seed+i.
	serve := parse(t, Default(), "-seed", "1", "-sessions", "4")
	if got, want := tapes(build(serve, 0, serve.WaveBase(0))),
		"1:5.4.2.6.7.0 2:3.0.6.2.7.1 3:2.6.4.5.3.7 4:6.5.4.3.0.7"; got != want {
		t.Errorf("stpserve tapes = %s, want %s", got, want)
	}
	// stpload -seed 1 -sessions 4, wave 1: seed + wave*sessions + i.
	if got, want := tapes(build(serve, 0, serve.WaveBase(1))),
		"1:3.2.4.1.5.7 2:0.6.4.5.3.2 3:2.0.5.3.1.6 4:6.4.2.1.5.7"; got != want {
		t.Errorf("stpload wave 1 tapes = %s, want %s", got, want)
	}
	// Cell 1 of an stpmaster -seed 7 sweep (cell seed 7 + 1<<20), a node
	// whose share starts at id 5: cell seed + id, on both halves.
	cell := Default()
	cell.Seed, cell.FirstID, cell.Sessions = 7+1<<20, 5, 3
	want := "5:0.6.3.1.2.5 6:6.1.0.2.3.5 7:2.4.1.0.5.6"
	for _, half := range []wire.End{wire.SenderEnd, wire.ReceiverEnd} {
		if got := tapes(build(cell, half, cell.Seed)); got != want {
			t.Errorf("cluster cell, %v half: tapes = %s, want %s", half, got, want)
		}
	}

	for _, s := range []Spec{serve, cell} {
		if got := s.Params().Seed; got != s.Seed {
			t.Errorf("Params().Seed = %d, want the spec's seed %d", got, s.Seed)
		}
	}
	chaotic := parse(t, Default(), "-seed", "1", "-crash-preset", "crash-scramble-both")
	for _, seed := range []int64{chaotic.Seed, chaotic.Seed + 3} { // stpserve; stpload's wave 3
		c, err := chaotic.chaos(seed, 0)
		if err != nil || c == nil || c.Seed != seed {
			t.Errorf("chaos(%d) = %+v, %v; want that seed", seed, c, err)
		}
	}
	lossy := parse(t, Default(), "-seed", "5", "-impair", "iid-loss(p=0.1)")
	if opts, err := lossy.Impairment(); err != nil || opts.ModelSeed != 5 {
		t.Errorf("Impairment() = %+v, %v; want the model seeded with -seed", opts, err)
	}
}

// TestHalvesDeriveTheSameFleet is the cluster's invariant stated on the
// description: the two halves of one spec carry equal ids, inputs and
// seeds, so a receiver node audits against the tape its peer sends.
func TestHalvesDeriveTheSameFleet(t *testing.T) {
	s := parse(t, Default(), "-proto", "selrepeat", "-m", "16", "-items", "12", "-sessions", "32", "-seed", "11")
	s.FirstID = 100
	snd, err := s.Build(wire.SenderEnd, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := s.Build(wire.ReceiverEnd, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(snd) != 32 || len(rcv) != 32 {
		t.Fatalf("built %d and %d sessions, want 32 each", len(snd), len(rcv))
	}
	for i := range snd {
		a, b := snd[i], rcv[i]
		if a.ID != 100+uint64(i) || a.ID != b.ID || a.Seed != b.Seed || !a.Input.Equal(b.Input) {
			t.Errorf("session %d: sender half (id %d seed %d %s) != receiver half (id %d seed %d %s)",
				i, a.ID, a.Seed, a.Input, b.ID, b.Seed, b.Input)
		}
		if a.Half != wire.SenderEnd || b.Half != wire.ReceiverEnd {
			t.Errorf("session %d: halves %v/%v", i, a.Half, b.Half)
		}
	}
	// A half fleet injects only the crashes that target its own half.
	s.Chaos = "crash-scramble-both"
	both, _ := s.chaos(1, 0)
	sOnly, _ := s.chaos(1, wire.SenderEnd)
	rOnly, _ := s.chaos(1, wire.ReceiverEnd)
	if len(sOnly.Crashes) == 0 || len(rOnly.Crashes) == 0 || len(sOnly.Crashes)+len(rOnly.Crashes) != len(both.Crashes) {
		t.Errorf("crash points: both=%d sender=%d receiver=%d, want a partition",
			len(both.Crashes), len(sOnly.Crashes), len(rOnly.Crashes))
	}
}

// closeSpy counts Close calls on a transport.
type closeSpy struct {
	wire.Transport
	closed int
}

func (c *closeSpy) Close() error { c.closed++; return c.Transport.Close() }

// TestSetupErrorsCloseTheTransport: a protocol the registry cannot
// build (-proto modseq -window 0, an unknown -proto) fails Validate, and
// Build, which runs before any transport exists, fails on it too, holding
// nothing; whatever fails once a transport is in hand closes it.
func TestSetupErrorsCloseTheTransport(t *testing.T) {
	for _, args := range [][]string{{"-proto", "modseq", "-window", "0"}, {"-proto", "nosuch"}} {
		s := parse(t, Default(), args...)
		if err := s.Validate(); err == nil {
			t.Errorf("%v: Validate passed a protocol the registry cannot build", args)
		}
		if _, err := s.Build(0, s.WaveBase(0)); err == nil {
			t.Errorf("%v: Build succeeded", args)
		}
	}

	bad := Default()
	bad.Impair = "crash-sender"
	spy := &closeSpy{Transport: wire.NewInproc(0, nil)}
	if _, err := bad.Impaired(spy, nil); err == nil || spy.closed != 1 {
		t.Errorf("Impaired with a bad impairment: err=%v closes=%d, want an error and one close", err, spy.closed)
	}

	bad = Default()
	bad.Chaos = "burst-drop"
	good := Default()
	cfgs, err := good.Build(0, good.WaveBase(0))
	if err != nil {
		t.Fatal(err)
	}
	spy = &closeSpy{Transport: wire.NewInproc(0, nil)}
	var tally Tally
	if _, err := bad.Serve(context.Background(), wire.ServeConfig{Transport: spy, Sessions: cfgs}, 1, &tally); err == nil || spy.closed == 0 {
		t.Errorf("Serve with a bad chaos preset: err=%v closes=%d, want an error and a close", err, spy.closed)
	}
}

// TestServeTallies runs one small fleet each way through wire.Serve,
// plain and supervised, and checks the fold into one accumulating tally.
func TestServeTallies(t *testing.T) {
	var tally Tally
	run := func(s Spec) Reports {
		t.Helper()
		cfgs, err := s.Build(0, s.WaveBase(0))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.Transport("inproc", nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Serve(context.Background(), wire.ServeConfig{Transport: tr, Sessions: cfgs}, s.Seed, &tally)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := parse(t, Default(), "-sessions", "5", "-impair", "burst-drop")
	out := run(plain)
	if len(out) != 5 || out[0].Chaos != nil || len(out.Latencies()) != 5 || len(out.Violations()) != 0 {
		t.Errorf("plain fleet: %d reports (chaos %v), %d latencies, %v", len(out), out[0].Chaos, len(out.Latencies()), out.Violations())
	}
	if tally.Sessions != 5 || tally.Completed != 5 || tally.Violations != 0 || tally.ItemsDelivered != 30 ||
		tally.GoodputMean() <= 0 || tally.CrashScheduleDigest() != "" {
		t.Errorf("after the plain fleet: %+v", tally)
	}
	out = run(parse(t, Default(), "-proto", "stab", "-sessions", "3", "-crash-preset", "crash-scramble-both"))
	if len(out) != 3 || out[0].Chaos == nil || len(out.Latencies()) != 3 || len(out.Violations()) != 0 {
		t.Errorf("supervised fleet: %d reports (chaos %v), %d latencies, %v", len(out), out[0].Chaos, len(out.Latencies()), out.Violations())
	}
	if tally.Sessions != 8 || tally.Completed != 8 || tally.Incarnations < 3 || tally.Crashes == 0 ||
		tally.PostStabViolations != 0 || tally.Unstable != 0 || len(tally.CrashScheduleDigest()) != 16 {
		t.Errorf("after the supervised fleet: %+v digest %q", tally, tally.CrashScheduleDigest())
	}
}

func TestWireCounters(t *testing.T) {
	tx, rx, drops := WireCounters(map[string]int64{
		`wire_frames_tx_total{dir="s_to_r"}`:              7,
		`wire_frames_tx_total{dir="r_to_s"}`:              5,
		`wire_frames_rx_total{dir="s_to_r"}`:              6,
		`wire_frames_dropped_total{cause="inbox_full"}`:   2,
		`wire_frames_dropped_total{cause="foreign"}`:      0,
		`wire_frames_dropped_total{cause="backpressure"}`: 1,
		"wire_retransmits_total":                          9,
		`wire_frames_dup_total`:                           4,
	})
	if tx != 12 || rx != 6 || len(drops) != 2 || drops["inbox_full"] != 2 || drops["backpressure"] != 1 {
		t.Errorf("WireCounters = %d, %d, %v", tx, rx, drops)
	}
}
