// Package registry names the protocols, channel kinds, and adversaries of
// this repository for command-line tools and configuration: one place to
// parse "alpha", "dup+del", or "replayer" into the corresponding
// constructors, with current parameter values threaded through.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"seqtx/internal/channel"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/abp"
	"seqtx/internal/protocol/afwz"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/gobackn"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/protocol/modseq"
	"seqtx/internal/protocol/naive"
	"seqtx/internal/protocol/selrepeat"
	"seqtx/internal/protocol/stab"
	"seqtx/internal/protocol/stenning"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// Params carries the numeric knobs a named constructor may need.
type Params struct {
	// M is the domain / alphabet size parameter.
	M int
	// Timeout is the hybrid protocol's phase-switch timeout.
	Timeout int
	// Window is the modseq sequence-number window.
	Window int
	// Seed feeds seeded adversaries.
	Seed int64
	// Budget is the dropper budget / replayer period / withholder hold.
	Budget int
	// Cap is the channel-capacity bound the stabilizing protocol assumes
	// (0 selects the protocol's default).
	Cap int
}

// protocolEntry describes one named protocol.
type protocolEntry struct {
	build func(Params) (protocol.Spec, error)
	// stabilizing marks protocols that claim self-stabilization: they
	// converge to prefix-safe transmission from arbitrary local state
	// (given the channel-capacity bound they were built with). The
	// model checker's stabilization mode verifies the claim; for every
	// other protocol it is expected to find a refutation.
	stabilizing bool
}

var protocols = map[string]protocolEntry{
	// the paper's tight protocol (uses M)
	"alpha": {
		build: func(p Params) (protocol.Spec, error) { return alphaproto.New(p.M) },
	},
	// gated reverse-order [AFWZ89] stand-in (uses M)
	"afwz": {
		build: func(p Params) (protocol.Spec, error) { return afwz.New(p.M) },
	},
	// §5 ABP/AFWZ alternation (uses M, Timeout)
	"hybrid": {
		build: func(p Params) (protocol.Spec, error) { return hybrid.New(p.M, p.Timeout) },
	},
	// alternating-bit stop-and-wait (uses M)
	"abp": {
		build: func(p Params) (protocol.Spec, error) { return abp.New(p.M) },
	},
	// unbounded sequence numbers [Ste76]
	"stenning": {
		build: func(Params) (protocol.Spec, error) { return stenning.New(), nil },
	},
	// over-claiming protocol, unsafe past alpha(m) (uses M)
	"naive": {
		build: func(p Params) (protocol.Spec, error) { return naive.NewWriteEveryData(p.M) },
	},
	// ack-free streaming, unsafe under reordering (uses M)
	"flood": {
		build: func(p Params) (protocol.Spec, error) { return naive.NewFlood(p.M) },
	},
	// Stenning mod Window: probabilistic STP (uses M, Window)
	"modseq": {
		build: func(p Params) (protocol.Spec, error) { return modseq.New(p.M, p.Window) },
	},
	// Go-Back-N sliding window over FIFO (uses M, Window)
	"gobackn": {
		build: func(p Params) (protocol.Spec, error) { return gobackn.New(p.M, p.Window) },
	},
	// Selective Repeat sliding window over FIFO (uses M, Window)
	"selrepeat": {
		build: func(p Params) (protocol.Spec, error) { return selrepeat.New(p.M, p.Window) },
	},
	// self-stabilizing bounded-counter resynchronization (uses M, Cap)
	"stab": {
		build:       func(p Params) (protocol.Spec, error) { return stab.New(p.M, p.Cap) },
		stabilizing: true,
	},
}

// Stabilizing reports whether the named protocol claims self-stabilization
// (recovery from arbitrary local state). Unknown names report false.
func Stabilizing(name string) bool {
	e, ok := protocols[name]
	return ok && e.stabilizing
}

// specKey is everything a protocol constructor reads of its Params (Seed
// and Budget are the adversaries').
type specKey struct {
	name                    string
	m, timeout, window, cap int
}

// specs holds every Spec built so far, by specKey. A Spec is a name and
// two constructors closed over immutable message tables and over the
// Spec's slabs, which their mutex makes safe to share — goroutines share
// one already (sim.ForEach, supervised restarts) — so a fleet's sessions
// need not each build their own.
var specs sync.Map

// Protocol returns the named protocol with the given parameters, building
// each distinct one once per process.
func Protocol(name string, p Params) (protocol.Spec, error) {
	key := specKey{name, p.M, p.Timeout, p.Window, p.Cap}
	if spec, ok := specs.Load(key); ok {
		return spec.(protocol.Spec), nil
	}
	e, ok := protocols[name]
	if !ok {
		return protocol.Spec{}, fmt.Errorf("registry: unknown protocol %q (have %s)",
			name, strings.Join(ProtocolNames(), ", "))
	}
	spec, err := e.build(p)
	if err == nil {
		specs.Store(key, spec)
	}
	return spec, err
}

// ProtocolNames lists the registered protocol names, sorted.
func ProtocolNames() []string {
	names := make([]string, 0, len(protocols))
	for n := range protocols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Pair builds a connected sender/receiver pair of the named protocol for
// the given input — the live transport runtime's entry point: a wire
// session is wired up by protocol name, and the two processes it hosts
// come from here. The input is validated by the protocol's own
// constructor (it must lie in the protocol's allowable set X).
func Pair(name string, p Params, input seq.Seq) (protocol.Sender, protocol.Receiver, error) {
	spec, err := Protocol(name, p)
	if err != nil {
		return nil, nil, err
	}
	s, err := spec.NewSender(input)
	if err != nil {
		return nil, nil, fmt.Errorf("registry: building %s sender: %w", name, err)
	}
	r, err := spec.NewReceiver()
	if err != nil {
		return nil, nil, fmt.Errorf("registry: building %s receiver: %w", name, err)
	}
	return s, r, nil
}

var kinds = map[string]channel.Kind{
	"dup":     channel.KindDup,
	"del":     channel.KindDel,
	"reorder": channel.KindReorder,
	"fifo":    channel.KindFIFO,
	"dupdel":  channel.KindDupDel,
	"dup+del": channel.KindDupDel,
	"bounded": channel.KindBounded,
}

// Kind parses a channel-kind name.
func Kind(name string) (channel.Kind, error) {
	k, ok := kinds[name]
	if !ok {
		return 0, fmt.Errorf("registry: unknown channel %q (have %s)",
			name, strings.Join(KindNames(), ", "))
	}
	return k, nil
}

// KindNames lists the channel-kind names, sorted (aliases included).
func KindNames() []string {
	names := make([]string, 0, len(kinds))
	for n := range kinds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// adversaries maps each adversary name to its builder.
var adversaries = map[string]func(Params) sim.Adversary{
	// deterministic fair schedule
	"roundrobin": func(Params) sim.Adversary { return sim.NewRoundRobin() },
	// seeded random schedule under finite-delay fairness (uses Seed)
	"random": func(p Params) sim.Adversary { return sim.NewFinDelay(sim.NewRandom(p.Seed), 10) },
	// round-robin plus periodic stale replays (uses Seed, Budget as period)
	"replayer": func(p Params) sim.Adversary {
		return sim.NewFinDelay(sim.NewReplayer(p.Seed, max(1, p.Budget)), 12)
	},
	// deletes up to Budget copies, then fair (uses Seed, Budget)
	"dropper": func(p Params) sim.Adversary { return sim.NewBudgetDropper(p.Seed, p.Budget) },
	// stalls all deliveries for 10×Budget steps, then fair (uses Budget)
	"withholder": func(p Params) sim.Adversary { return sim.NewWithholder(10 * p.Budget) },
	// maximally delays the oldest undelivered message, under finite-delay fairness
	"starver": func(Params) sim.Adversary { return sim.NewFinDelay(sim.NewStarver(), 12) },
	// isolates S→R for 10×Budget steps, then fair (uses Budget)
	"eclipse": func(p Params) sim.Adversary { return sim.NewEclipse(channel.SToR, 10*max(1, p.Budget)) },
	// alternates 10×Budget-step healthy and partitioned phases forever (uses Budget)
	"phased": func(p Params) sim.Adversary {
		return sim.NewPhasedPartition(10*max(1, p.Budget), 10*max(1, p.Budget))
	},
}

// Adversary builds the named adversary with the given parameters.
func Adversary(name string, p Params) (sim.Adversary, error) {
	build, ok := adversaries[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown adversary %q (have %s)",
			name, strings.Join(AdversaryNames(), ", "))
	}
	return build(p), nil
}

// AdversaryNames lists the adversary names, sorted.
func AdversaryNames() []string {
	names := make([]string, 0, len(adversaries))
	for n := range adversaries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
