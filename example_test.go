package seqtx_test

import (
	"fmt"

	"seqtx"
	"seqtx/internal/protocol/alphaproto"
	"seqtx/internal/trace"
)

// ExampleTransmit moves a sequence with the paper's tight protocol over a
// reordering, duplicating channel.
func ExampleTransmit() {
	spec := seqtx.TightProtocol(4)
	res, err := seqtx.Transmit(spec, seqtx.Sequence(2, 0, 3, 1),
		seqtx.ChannelDup, seqtx.FairRoundRobin())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("output:", res.Output)
	fmt.Println("safe:", res.SafetyViolation == nil)
	// Output:
	// output: 2.0.3.1
	// safe: true
}

// ExampleAlpha prints the paper's tight bound for small alphabets.
func ExampleAlpha() {
	for m := 0; m <= 4; m++ {
		a, err := seqtx.Alpha(m)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("alpha(%d) = %d\n", m, a)
	}
	// Output:
	// alpha(0) = 1
	// alpha(1) = 2
	// alpha(2) = 5
	// alpha(3) = 16
	// alpha(4) = 65
}

// ExampleTightProtocol shows the alpha(m) wall: inputs with repeated
// items are outside the protocol's X.
func ExampleTightProtocol() {
	spec := seqtx.TightProtocol(3)
	_, err := spec.NewSender(seqtx.Sequence(1, 2, 1))
	fmt.Println("repeating input accepted:", err == nil)
	// Output:
	// repeating input accepted: false
}

// ExampleRefuteSafety replays Theorem 1 against a protocol that claims
// more than alpha(m) sequences.
func ExampleRefuteSafety() {
	naive, err := seqtx.NaiveProtocol(2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := seqtx.RefuteSafety(naive, seqtx.Sequence(0, 1), seqtx.Sequence(0, 1, 0),
		seqtx.ChannelDup, seqtx.ExploreConfig{MaxDepth: 12, MaxStates: 1 << 15})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("counterexample found:", res.Violation != nil)
	fmt.Println("violated input:", res.Violation.ViolatedInput)

	// Inside the alpha(m) budget the same search finds nothing.
	tight, err := seqtx.RefuteSafety(seqtx.TightProtocol(2), seqtx.Sequence(0, 1), seqtx.Sequence(1, 0),
		seqtx.ChannelDup, seqtx.ExploreConfig{MaxDepth: 10, MaxStates: 1 << 15})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("tight protocol counterexample found:", tight.Violation != nil)
	// Output:
	// counterexample found: true
	// violated input: 0.1
	// tight protocol counterexample found: false
}

// ExampleCheckBounded evaluates the paper's Definition 2 on the tight
// protocol: constant recovery using only fresh messages.
func ExampleCheckBounded() {
	rep, err := seqtx.CheckBounded(seqtx.TightProtocol(3), seqtx.Sequence(1, 2, 0),
		seqtx.ChannelDel, seqtx.BoundedConfig{Budget: 12})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("bounded:", rep.Bounded())
	// Output:
	// bounded: true
}

// ExampleEncodedProtocol carries a repeating sequence by encoding the set
// X into repetition-free message strings (the paper's mu).
func ExampleEncodedProtocol() {
	x, err := seqtx.NewSeqSet(
		seqtx.Sequence(0, 0, 0),
		seqtx.Sequence(1, 1),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	spec, err := seqtx.EncodedProtocol(x, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := seqtx.Transmit(spec, seqtx.Sequence(0, 0, 0), seqtx.ChannelDup, seqtx.FairRoundRobin())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("output:", res.Output)
	// Output:
	// output: 0.0.0
}

// ExampleAnalyzeKnowledge computes K_R directly (§2.3): explore every run
// of the tight protocol over all allowable inputs, then ask, view by view,
// whether every run that could have produced the receiver's history agrees
// on an item.
func ExampleAnalyzeKnowledge() {
	const m = 2
	spec := seqtx.TightProtocol(m)
	analysis, err := seqtx.AnalyzeKnowledge(spec, seqtx.RepetitionFreeSequences(m), seqtx.ChannelDup,
		seqtx.KnowledgeConfig{Depth: 10})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	d0, d1 := alphaproto.DataMsg(0), alphaproto.DataMsg(1)
	for _, v := range []struct {
		label string
		view  trace.View
	}{
		{"nothing seen", trace.View{}},
		{"d:1", trace.View{{Msg: d1}}},
		{"d:1 d:0", trace.View{{Msg: d1}, {Msg: d0}}},
		{"d:1 d:1", trace.View{{Msg: d1}, {Msg: d1}}},
	} {
		fmt.Printf("%-12s consistent inputs %d;", v.label, analysis.ClassSize(v.view))
		for i := 1; i <= m; i++ {
			val, knows, err := analysis.Knows(v.view, i)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			if knows {
				fmt.Printf(" K_R(x_%d = %d)", i, int(val))
			} else {
				fmt.Printf(" ¬K_R(x_%d)", i)
			}
		}
		fmt.Println()
	}
	// Once R knows x_i it never un-knows it.
	fmt.Println("stable:", analysis.CheckStability(m) == nil)
	times, err := seqtx.LearnTimes(analysis, spec, seqtx.Sequence(1, 0), seqtx.ChannelDup, seqtx.FairRoundRobin(), 10)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("learning times on 1.0:", times)
	// Output:
	// nothing seen consistent inputs 5; ¬K_R(x_1) ¬K_R(x_2)
	// d:1          consistent inputs 2; K_R(x_1 = 1) ¬K_R(x_2)
	// d:1 d:0      consistent inputs 1; K_R(x_1 = 1) K_R(x_2 = 0)
	// d:1 d:1      consistent inputs 2; K_R(x_1 = 1) ¬K_R(x_2)
	// stable: true
	// learning times on 1.0: [2 10]
}

// ExampleCheckBounded_taxonomy measures the §5 taxonomy: the tight
// protocol is bounded; the AFWZ-style protocol is weakly bounded only (bar
// its single in-flight copy no extension makes progress); the hybrid is
// weakly bounded yet not bounded, and after one loss its next learning
// event recedes with |X|.
func ExampleCheckBounded_taxonomy() {
	for _, s := range []struct {
		name  string
		spec  seqtx.Spec
		input seqtx.Seq
	}{
		{"tight", seqtx.TightProtocol(8), seqtx.Sequence(3, 1, 4, 0, 5, 2)},
		{"afwz", seqtx.AFWZProtocol(2), seqtx.Sequence(0, 1, 0, 1, 0, 1)},
		{"hybrid", seqtx.HybridProtocol(2, 4), seqtx.Sequence(0, 1, 0, 1, 0, 1)},
	} {
		weak, err := seqtx.CheckBounded(s.spec, s.input, seqtx.ChannelDel,
			seqtx.BoundedConfig{Budget: 60, OldMessagesAllowed: true})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		// Definition 2: fresh messages only, from the points of a faulty run.
		strict, err := seqtx.CheckBounded(s.spec, s.input, seqtx.ChannelDel,
			seqtx.BoundedConfig{Budget: 60, Sampler: seqtx.Dropper(1, 1)})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-6s weakly bounded %v (max %d steps), bounded %v (max %d fresh steps, %d/%d points unrecoverable)\n",
			s.name, weak.Bounded(), weak.MaxRecovery, strict.Bounded(), strict.MaxRecovery, strict.Unrecovered, strict.Samples)
	}
	for _, n := range []int{4, 8, 16, 32} {
		input := make(seqtx.Seq, n)
		for i := range input {
			input[i] = seqtx.Item(i % 2)
		}
		res, err := seqtx.Transmit(seqtx.HybridProtocol(2, 4), input, seqtx.ChannelDel, seqtx.Dropper(0, 1))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("hybrid, one loss, n = %d: largest learning gap %d steps\n", n, largestGap(res.LearnTimes))
	}
	// Output:
	// tight  weakly bounded true (max 3 steps), bounded true (max 5 fresh steps, 0/25 points unrecoverable)
	// afwz   weakly bounded true (max 20 steps), bounded false (max 20 fresh steps, 1599/1600 points unrecoverable)
	// hybrid weakly bounded true (max 3 steps), bounded false (max 25 fresh steps, 18/39 points unrecoverable)
	// hybrid, one loss, n = 4: largest learning gap 30 steps
	// hybrid, one loss, n = 8: largest learning gap 46 steps
	// hybrid, one loss, n = 16: largest learning gap 78 steps
	// hybrid, one loss, n = 32: largest learning gap 142 steps
}

// largestGap is the longest stretch between consecutive learning times.
func largestGap(times []int) int {
	gap, prev := 0, 0
	for _, t := range times {
		gap, prev = max(gap, t-prev), t
	}
	return gap
}

// ExampleMonteCarlo answers the paper's closing question (§6): modseq
// (sequence numbers mod M) carries every sequence over a finite alphabet,
// so the model checker finds a failing run for every window, yet under
// random rather than adversarial schedules a wider window buys a lower
// violation rate.
func ExampleMonteCarlo() {
	input := seqtx.Sequence(0, 1, 2, 0, 1, 2, 1, 0)
	spec2, err := seqtx.ModseqProtocol(3, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ex, err := seqtx.Explore(spec2, input[:4], seqtx.ChannelDup,
		seqtx.ExploreConfig{MaxDepth: 14, MaxStates: 1 << 17})
	if err != nil || ex.Violation == nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("window 2, adversarial: violation in %d steps\n", len(ex.Violation.Actions))
	for _, window := range []int{1, 2, 4, 6, 8} {
		spec, err := seqtx.ModseqProtocol(3, window)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		est, err := seqtx.MonteCarlo(spec, input, seqtx.ChannelDup, seqtx.MonteCarloConfig{
			Trials: 200,
			Seed:   11,
			NewAdversary: func(trial int) seqtx.Adversary {
				return seqtx.Replayer(int64(trial), 3)
			},
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("window %d, |M^S| = %2d, random replays: %5.1f%% of 200 runs violate\n",
			window, 3*window, 100*est.ViolationRate())
	}
	// Output:
	// window 2, adversarial: violation in 6 steps
	// window 1, |M^S| =  3, random replays: 100.0% of 200 runs violate
	// window 2, |M^S| =  6, random replays: 100.0% of 200 runs violate
	// window 4, |M^S| = 12, random replays:  95.5% of 200 runs violate
	// window 6, |M^S| = 18, random replays:  81.5% of 200 runs violate
	// window 8, |M^S| = 24, random replays:   0.0% of 200 runs violate
}

// Example_datalink races the data-link family the paper's introduction
// situates STP in on one lossy FIFO link, then lets the channel reorder:
// every finite-numbered scheme breaks once the input outgrows its number
// space, and only Stenning's unbounded numbers survive.
func Example_datalink() {
	input := make(seqtx.Seq, 16)
	for i := range input {
		input[i] = seqtx.Item(i % 2)
	}
	gbn, err1 := seqtx.GoBackNProtocol(2, 4)
	sr, err2 := seqtx.SelRepeatProtocol(2, 4)
	if err1 != nil || err2 != nil {
		fmt.Println("error:", err1, err2)
		return
	}
	for _, spec := range []seqtx.Spec{seqtx.ABProtocol(2), gbn, sr, seqtx.StenningProtocol()} {
		steps := 0
		for seed := int64(0); seed < 20; seed++ {
			res, err := seqtx.Transmit(spec, input, seqtx.ChannelFIFO, seqtx.Dropper(seed, 3))
			if err != nil || res.SafetyViolation != nil || !res.OutputComplete {
				fmt.Println("failed on FIFO:", spec.Name, err)
				return
			}
			steps += res.Steps
		}
		fmt.Printf("FIFO, 3 losses: %-18s %.2f steps an item\n", spec.Name, float64(steps)/20/float64(len(input)))
	}
	gbn, err1 = seqtx.GoBackNProtocol(1, 1)
	sr, err2 = seqtx.SelRepeatProtocol(1, 1)
	if err1 != nil || err2 != nil {
		fmt.Println("error:", err1, err2)
		return
	}
	for _, spec := range []seqtx.Spec{seqtx.ABProtocol(1), gbn, sr, seqtx.StenningProtocol()} {
		res, err := seqtx.Explore(spec, seqtx.Sequence(0, 0, 0), seqtx.ChannelDel,
			seqtx.ExploreConfig{MaxDepth: 22, MaxStates: 1 << 19})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if res.Violation != nil {
			fmt.Printf("reordering: %-18s broken in %d steps, Y = %s\n", spec.Name, len(res.Violation.Actions), res.Violation.Output)
		} else {
			fmt.Printf("reordering: %-18s no violation within bounds\n", spec.Name)
		}
	}
	// Output:
	// FIFO, 3 losses: abp(m=2)           4.44 steps an item
	// FIFO, 3 losses: gobackn(m=2,W=4)   5.44 steps an item
	// FIFO, 3 losses: selrepeat(m=2,W=4) 5.19 steps an item
	// FIFO, 3 losses: stenning           4.44 steps an item
	// reordering: abp(m=1)           broken in 9 steps, Y = 0.0.0.0
	// reordering: gobackn(m=1,W=1)   broken in 16 steps, Y = 0.0.0.0
	// reordering: selrepeat(m=1,W=1) broken in 16 steps, Y = 0.0.0.0
	// reordering: stenning           no violation within bounds
}

// ExampleHybridProtocol moves arbitrary bytes across a deleting channel
// with the §5 hybrid: its alphabet (4·256+2 messages) is finite and
// independent of the payload, and it pays for that with unbounded
// recovery: one lost message sends the rest of the payload the long way.
func ExampleHybridProtocol() {
	payload := "tight bounds for the sequence transmission problem"
	input := make(seqtx.Seq, len(payload))
	for i := range input {
		input[i] = seqtx.Item(payload[i])
	}
	spec := seqtx.HybridProtocol(256, 6)
	for _, run := range []struct {
		label string
		adv   seqtx.Adversary
	}{
		{"clean link", seqtx.FairRoundRobin()},
		{"one loss", seqtx.Dropper(3, 1)},
	} {
		res, err := seqtx.Transmit(spec, input, seqtx.ChannelDel, run.adv)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		got := make([]byte, len(res.Output))
		for i, it := range res.Output {
			got[i] = byte(it)
		}
		fmt.Printf("%-10s steps %d, largest learning gap %d, delivered %q\n",
			run.label, res.Steps, largestGap(res.LearnTimes), got)
	}
	// Output:
	// clean link steps 198, largest learning gap 4, delivered "tight bounds for the sequence transmission problem"
	// one loss   steps 219, largest learning gap 218, delivered "tight bounds for the sequence transmission problem"
}
