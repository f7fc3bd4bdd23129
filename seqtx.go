// Package seqtx reproduces Wang & Zuck, "Tight Bounds for the Sequence
// Transmission Problem" (PODC 1989 / YALEU-DCS-TR-705) as a runnable Go
// library: the runs model, the unreliable channels, the tight alpha(m)
// protocols, the §5 boundedness menagerie, knowledge analysis, and the
// model checking that makes the impossibility proofs executable.
//
// The sequence transmission problem (STP): a sender S must communicate a
// data sequence X to a receiver R over an unreliable bidirectional
// channel so that R's output tape Y is always a prefix of X (safety) and
// eventually all of X on fair runs (liveness). With a finite sender
// alphabet of size m, the paper's tight bound is
//
//	alpha(m) = m! * sum_{k=0..m} 1/k!  =  floor(e·m!)  (m >= 1),
//
// the number of repetition-free sequences over m letters: no more than
// alpha(m) distinct input sequences can be handled when the channel can
// reorder and duplicate (Theorem 1), or — for protocols with bounded
// fault recovery — reorder and delete (Theorem 2).
//
// # Quick start
//
//	spec := seqtx.TightProtocol(4)              // the paper's protocol, m = 4
//	res, err := seqtx.Transmit(spec, seqtx.Sequence(2, 0, 3, 1),
//	    seqtx.ChannelDup, seqtx.FairRandom(42))
//	// res.Output == 2.0.3.1, res.SafetyViolation == nil
//
// The facade re-exports the stable surface of the internal packages; see
// the Example functions in example_test.go and the experiment harness
// cmd/stpexp for larger tours.
package seqtx

import (
	"seqtx/internal/alpha"
	"seqtx/internal/channel"
	"seqtx/internal/epistemic"
	"seqtx/internal/faults"
	"seqtx/internal/mc"
	"seqtx/internal/msg"
	"seqtx/internal/prob"
	"seqtx/internal/protocol"
	"seqtx/internal/protocol/abp"
	"seqtx/internal/protocol/afwz"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/protocol/gobackn"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/protocol/modseq"
	"seqtx/internal/protocol/naive"
	"seqtx/internal/protocol/selrepeat"
	"seqtx/internal/protocol/stenning"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/soak"
)

// Core data types.
type (
	// Item is a single data element of the finite domain D.
	Item = seq.Item
	// Seq is a data sequence (an input tape X or output tape Y).
	Seq = seq.Seq
	// SeqSet is a finite set X of allowable input sequences.
	SeqSet = seq.Set
	// Msg is a channel message.
	Msg = msg.Msg
	// Alphabet is a finite message alphabet (M^S or M^R).
	Alphabet = msg.Alphabet
	// Spec bundles a protocol's sender/receiver constructors.
	Spec = protocol.Spec
	// Sender is the sender process state machine.
	Sender = protocol.Sender
	// Receiver is the receiver process state machine.
	Receiver = protocol.Receiver
	// ChannelKind selects the unreliable channel model.
	ChannelKind = channel.Kind
	// Adversary resolves the environment's nondeterminism.
	Adversary = sim.Adversary
	// RunResult summarizes a simulated run.
	RunResult = sim.Result
	// RunConfig bounds a simulated run.
	RunConfig = sim.Config
	// World is a global state of the runs model.
	World = sim.World
)

// Channel models (§2.2 of the paper).
const (
	// ChannelDup reorders and duplicates (Theorem 1's channel).
	ChannelDup = channel.KindDup
	// ChannelDel reorders and deletes (Theorem 2's channel).
	ChannelDel = channel.KindDel
	// ChannelReorder only reorders: every copy is delivered exactly once.
	ChannelReorder = channel.KindReorder
	// ChannelFIFO preserves order but may lose and duplicate (the classic
	// alternating-bit substrate).
	ChannelFIFO = channel.KindFIFO
	// ChannelDupDel reorders, duplicates, AND deletes — the full fault
	// menu of the paper's introduction.
	ChannelDupDel = channel.KindDupDel
)

// Dir selects one direction of the bidirectional link.
type Dir = channel.Dir

// Link directions (for fault plans and the eclipse adversary).
const (
	// DirSToR is the data direction, sender to receiver.
	DirSToR = channel.SToR
	// DirRToS is the acknowledgement direction, receiver to sender.
	DirRToS = channel.RToS
)

// Sequence builds a Seq from items.
func Sequence(items ...int) Seq { return seq.FromInts(items...) }

// Alpha returns alpha(m) = m!·sum 1/k!, the paper's tight bound, exact up
// to m = 20.
func Alpha(m int) (uint64, error) { return alpha.Alpha(m) }

// RepetitionFreeSequences enumerates the alpha(m) repetition-free
// sequences over a domain of size m — the tight protocol's X.
func RepetitionFreeSequences(m int) []Seq { return seq.RepetitionFree(m) }

// TightProtocol returns the paper's protocol (§3/§4): it solves X-STP on
// both dup and del channels for the repetition-free X with |X| = alpha(m).
// It panics on negative m; use alphaproto.New via the internal package
// for error returns.
func TightProtocol(m int) Spec { return alphaproto.MustNew(m) }

// EncodedProtocol generalizes the tight protocol to an arbitrary finite
// set X of sequences, provided X admits the paper's prefix-monotone
// encoding over m messages (§3, end). It errors when |X| > alpha(m) or
// the prefix structure does not embed.
func EncodedProtocol(x *SeqSet, m int) (Spec, error) { return alphaproto.NewEncoded(x, m) }

// NewSeqSet builds a duplicate-free set of sequences.
func NewSeqSet(seqs ...Seq) (*SeqSet, error) { return seq.NewSet(seqs...) }

// AFWZProtocol returns the reverse-order protocol standing in for
// [AFWZ89] (§5): all finite sequences over m items on del/reorder
// channels, safe everywhere, live under finite-delay fairness, unbounded.
func AFWZProtocol(m int) Spec { return afwz.MustNew(m) }

// HybridProtocol returns the §5 ABP/AFWZ alternation: weakly bounded but
// not bounded, on reordering channels, with the given timeout.
func HybridProtocol(m, timeout int) Spec { return hybrid.MustNew(m, timeout) }

// ABProtocol returns the alternating-bit protocol (safe on ChannelFIFO,
// broken under reordering).
func ABProtocol(m int) Spec { return abp.MustNew(m) }

// StenningProtocol returns the unbounded-sequence-number baseline
// [Ste76]: correct on every channel, infinite alphabet.
func StenningProtocol() Spec { return stenning.New() }

// NaiveProtocol returns the over-claiming protocol (the tight protocol
// minus duplicate suppression, accepting every sequence): the natural but
// doomed attempt to exceed alpha(m), used as the victim in the
// impossibility demonstrations.
func NaiveProtocol(m int) (Spec, error) { return naive.NewWriteEveryData(m) }

// ModseqProtocol returns the §6-outlook protocol: Stenning with sequence
// numbers modulo window. Finite alphabet (window·m data messages), every
// sequence allowed; failure is possible in adversarial runs (Theorems 1/2
// demand it) but improbable in random ones for wide windows.
func ModseqProtocol(m, window int) (Spec, error) { return modseq.New(m, window) }

// GoBackNProtocol returns the Go-Back-N sliding window over ChannelFIFO
// (window+1 frame numbers; whole-window retransmission on timeout).
func GoBackNProtocol(m, window int) (Spec, error) { return gobackn.New(m, window) }

// SelRepeatProtocol returns Selective Repeat over ChannelFIFO (2·window
// frame numbers; per-frame acknowledgement and retransmission).
func SelRepeatProtocol(m, window int) (Spec, error) { return selrepeat.New(m, window) }

// Adversaries.

// FairRoundRobin returns the canonical deterministic fair schedule.
func FairRoundRobin() Adversary { return sim.NewRoundRobin() }

// FairRandom returns a seeded random schedule wrapped in finite-delay
// fairness (every message delivered within a small budget).
func FairRandom(seed int64) Adversary {
	return sim.NewFinDelay(sim.NewRandom(seed), 10)
}

// Replayer returns a dup-channel adversary that keeps re-delivering old
// messages.
func Replayer(seed int64, period int) Adversary { return sim.NewReplayer(seed, period) }

// Dropper returns a del-channel adversary that deletes up to budget
// copies, then schedules fairly.
func Dropper(seed int64, budget int) Adversary { return sim.NewBudgetDropper(seed, budget) }

// Withholder returns an adversary that delays all deliveries for
// holdSteps steps, then schedules fairly.
func Withholder(holdSteps int) Adversary { return sim.NewWithholder(holdSteps) }

// Starver returns the adaptive starvation adversary under finite-delay
// fairness: it maximally delays the oldest undelivered message while
// staying fair, realizing the worst legal delay on every message.
func Starver() Adversary { return sim.NewFinDelay(sim.NewStarver(), 12) }

// Eclipse returns an adversary that isolates one link direction for
// holdSteps steps (a one-way partition), then schedules fairly.
func Eclipse(dir Dir, holdSteps int) Adversary { return sim.NewEclipse(dir, holdSteps) }

// PhasedPartition returns an adversary alternating healthy and fully
// partitioned phases forever — fair in the limit, maximally bursty.
func PhasedPartition(healthy, partitioned int) Adversary {
	return sim.NewPhasedPartition(healthy, partitioned)
}

// Transmit runs spec on input over a fresh channel of the given kind,
// driven by adv, stopping at completion, a safety violation, or a
// generous step bound.
func Transmit(spec Spec, input Seq, kind ChannelKind, adv Adversary) (RunResult, error) {
	return sim.RunProtocol(spec, input, kind, adv, RunConfig{
		MaxSteps:         1000*len(input) + 1000,
		StopWhenComplete: true,
	})
}

// Model checking (the executable impossibility proofs).
type (
	// ExploreConfig bounds an exhaustive exploration.
	ExploreConfig = mc.ExploreConfig
	// ExploreResult reports an exhaustive exploration.
	ExploreResult = mc.ExploreResult
	// ProductResult reports a lockstep two-run exploration.
	ProductResult = mc.ProductResult
	// BoundedReport summarizes a Definition-2 boundedness check.
	BoundedReport = mc.BoundedReport
	// BoundedConfig controls a boundedness check.
	BoundedConfig = mc.BoundedConfig
)

// Explore exhaustively expands every environment choice of (spec, input,
// kind) up to a bound, checking safety in every reachable state.
func Explore(spec Spec, input Seq, kind ChannelKind, cfg ExploreConfig) (*ExploreResult, error) {
	return mc.Explore(spec, input, kind, cfg)
}

// RefuteSafety searches the synchronized product of two runs (inputs x1,
// x2) for receiver-indistinguishable points whose shared output violates
// safety for one input — the paper's Lemma 1/3 adversary, executable.
func RefuteSafety(spec Spec, x1, x2 Seq, kind ChannelKind, cfg ExploreConfig) (*ProductResult, error) {
	return mc.Refute(spec, x1, x2, kind, cfg)
}

// CheckBounded evaluates Definition 2 (or its weak §5 variant) by
// sampled-point recovery search.
func CheckBounded(spec Spec, input Seq, kind ChannelKind, cfg BoundedConfig) (*BoundedReport, error) {
	return mc.CheckBounded(spec, input, kind, cfg)
}

// Knowledge analysis (§2.3).
type (
	// KnowledgeAnalysis indexes receiver views by the inputs that can
	// produce them, supporting K_R queries.
	KnowledgeAnalysis = epistemic.Analysis
	// KnowledgeConfig bounds a knowledge exploration.
	KnowledgeConfig = epistemic.Config
)

// AnalyzeKnowledge explores all runs of spec over the candidate inputs
// and returns the view-class index for K_R queries.
func AnalyzeKnowledge(spec Spec, inputs []Seq, kind ChannelKind, cfg KnowledgeConfig) (*KnowledgeAnalysis, error) {
	return epistemic.Analyze(spec, inputs, kind, cfg)
}

// LearnTimes drives one run of spec on input with adv and returns, for
// each i, the paper's t_i relative to the analysis: the first step at
// which R knows x_1..x_i (entries are -1 beyond the explored horizon).
func LearnTimes(a *KnowledgeAnalysis, spec Spec, input Seq, kind ChannelKind, adv Adversary, maxSteps int) ([]int, error) {
	return epistemic.LearnTimes(a, spec, input, kind, adv, maxSteps)
}

// Fault injection and soak campaigns (the robustness harness; see
// cmd/stpsoak for the CLI and docs/PAPER-MAP.md for the in-model /
// out-of-model classification).
type (
	// FaultPlan is a composable bundle of fault injections: burst drops,
	// partition-then-heal windows, within-alphabet corruption, and
	// crash-restarts of either process.
	FaultPlan = faults.Plan
	// SoakCase is one campaign cell: protocol × channel × adversary ×
	// fault plan, seeded.
	SoakCase = soak.Case
	// SoakConfig bounds every run of a campaign (steps, progress
	// deadline, wall clock, workers, shrink budget).
	SoakConfig = soak.Config
	// SoakCampaign is a named batch of cases.
	SoakCampaign = soak.Campaign
	// SoakReport is the JSON campaign artifact.
	SoakReport = soak.Report
	// SoakRunReport is the audited outcome of one case.
	SoakRunReport = soak.RunReport
	// SoakCounterexample is a captured, ddmin-shrunk failing trace.
	SoakCounterexample = soak.Counterexample
)

// NewFaultPlan returns an empty (fault-free) plan; chain its With*
// methods to add injections.
func NewFaultPlan(name string) *FaultPlan { return faults.NewPlan(name) }

// FaultPreset builds one of the stock fault plans by name (see
// FaultPresetNames).
func FaultPreset(name string) (*FaultPlan, error) { return faults.Preset(name) }

// FaultPresetNames lists the stock fault-plan names.
func FaultPresetNames() []string { return faults.PresetNames() }

// StandardSoak returns the full fault-injection campaign: the protocol
// zoo × channel kinds × adversaries × fault plans, runsPerCell seeds per
// cell.
func StandardSoak(seed int64, runsPerCell int) *SoakCampaign {
	return soak.StandardCampaign(seed, runsPerCell)
}

// SmokeSoak returns the small CI campaign (seconds, not minutes).
func SmokeSoak(seed int64) *SoakCampaign { return soak.SmokeCampaign(seed) }

// RunSoakCase executes a single campaign cell under cfg.
func RunSoakCase(c SoakCase, cfg SoakConfig) SoakRunReport { return soak.RunCase(c, cfg) }

// Monte-Carlo evaluation (§6 outlook).
type (
	// MonteCarloConfig controls a probabilistic campaign.
	MonteCarloConfig = prob.Config
	// MonteCarloEstimate tallies violation/completion rates.
	MonteCarloEstimate = prob.Estimate
)

// MonteCarlo estimates the probability that (spec, input, kind) violates
// safety or fails to complete under seeded random schedules.
func MonteCarlo(spec Spec, input Seq, kind ChannelKind, cfg MonteCarloConfig) (MonteCarloEstimate, error) {
	return prob.Run(spec, input, kind, cfg)
}
