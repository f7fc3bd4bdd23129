// Package frontier sweeps protocols across quantitative channel models
// and charts the empirical capacity frontier: goodput (delivered items
// per scheduler step) and completion rate as a function of the channel
// parameter, protocol, and alphabet size m — set against the lock-step
// goodput ceiling and the paper's alpha(m) information bound.
//
// The sweep only pairs protocols with channel kinds they are safe on
// (see SafeOn): afwz and hybrid assume a del channel — Theorem 1's
// replayed acknowledgements break their gating on dup channels — so on
// the iid-dup family they are skipped, not run-and-failed. Under the
// loss families they never retransmit data, so they stall safely;
// their low completion rate IS frontier data, not an error. A cell
// with a prefix-safety violation is a hard failure of the whole sweep.
package frontier

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"

	"seqtx/internal/alpha"
	"seqtx/internal/chanmodel"
	"seqtx/internal/channel"
	"seqtx/internal/prob"
	"seqtx/internal/protocol/hybrid"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
)

// safeKinds records, for each protocol the frontier knows how to place,
// the channel kinds it is safe on (zero safety violations in every
// run). Protocols absent from the table are rejected by Run: charting
// a frontier for a protocol that can violate safety under the model
// would conflate "slow" with "wrong" on the same axis. Use stpsim or
// stpexp to study unsafe protocols.
var safeKinds = map[string][]channel.Kind{
	// The paper's protocol retransmits and tolerates both duplication
	// and deletion (it is exactly the X-STP(dup)/X-STP(del) solution).
	"alpha": {channel.KindDup, channel.KindDel},
	// Unbounded sequence numbers: safe and live on dup and del.
	"stenning": {channel.KindDup, channel.KindDel},
	// Del-channel-only: replayed acks break the gating premise on dup
	// (Theorem 1). Never retransmits data, so genuine loss stalls it
	// safely — expect completion < 1 under the loss families.
	"afwz": {channel.KindDel},
	// Same del-only premise as afwz (its §5 alternation partner).
	"hybrid": {channel.KindDel},
	// FIFO-only sliding windows: frame numbers modulo a small space are
	// safe exactly because the link preserves order. The frontier
	// realizes their models on channel.KindFIFO and additionally gates
	// them (see fifoFamilies) to the per-copy loss families — never the
	// dup or k-del families, whose realizations reorder.
	"gobackn":   {channel.KindFIFO},
	"selrepeat": {channel.KindFIFO},
}

// fifoOnly marks the windowed protocols whose safety argument requires
// an order-preserving link. Their cells carry a window-depth axis (see
// Config.Windows) and run on the FIFO realization of the model.
var fifoOnly = map[string]bool{"gobackn": true, "selrepeat": true}

// fifoFamilies are the model families whose decision streams the FIFO
// realization preserves order for: per-copy loss only, no duplication
// and no reordering. k-del is excluded — its frontier realization
// deletes by position over a reordering del half — as is iid-dup.
var fifoFamilies = map[string]bool{"iid-loss": true, "ge": true}

// repFree marks protocols whose allowable set X is the repetition-free
// sequences, constraining Items to at most min(Ms). Everything else in
// the safe table accepts arbitrary in-domain tapes, so the pipelined
// sweeps can use tapes much longer than the domain (items i mod m).
var repFree = map[string]bool{"alpha": true}

// SafeOn reports whether the named protocol is in the frontier's
// verified-safe table for the given channel kind.
func SafeOn(proto string, kind channel.Kind) bool {
	for _, k := range safeKinds[proto] {
		if k == kind {
			return true
		}
	}
	return false
}

// FrontierProtocols lists the protocols the frontier can place on at
// least one channel kind, sorted.
func FrontierProtocols() []string {
	names := make([]string, 0, len(safeKinds))
	for n := range safeKinds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultModels returns the standard evaluation grid: four parameter
// points in each of the four model families.
func DefaultModels() []chanmodel.Model {
	specs := []string{
		"iid-loss(p=0.05)", "iid-loss(p=0.1)", "iid-loss(p=0.2)", "iid-loss(p=0.4)",
		"ge(pgb=0.02,pbg=0.5,lg=0.01,lb=0.5)",
		"ge(pgb=0.05,pbg=0.5,lg=0.01,lb=0.5)",
		"ge(pgb=0.1,pbg=0.5,lg=0.01,lb=0.5)",
		"ge(pgb=0.2,pbg=0.25,lg=0.01,lb=0.5)",
		"k-del(k=1,n=16)", "k-del(k=2,n=16)", "k-del(k=4,n=16)", "k-del(k=8,n=16)",
		"iid-dup(p=0.1)", "iid-dup(p=0.25)", "iid-dup(p=0.5)", "iid-dup(p=0.75)",
	}
	models := make([]chanmodel.Model, len(specs))
	for i, s := range specs {
		models[i] = chanmodel.MustParse(s)
	}
	return models
}

// Config describes one frontier sweep.
type Config struct {
	// Protos are registry protocol names; each must appear in the
	// verified-safe table (see SafeOn).
	Protos []string
	// Models is the channel-model axis (default: DefaultModels()).
	Models []chanmodel.Model
	// Ms is the alphabet-size axis (default: 4, 8).
	Ms []int
	// Items per session input. For repetition-free protocols (alpha)
	// this is capped at min(Ms); the other protocols take the tape
	// 0,1,...,Items-1 reduced mod m, so Items may exceed m (the
	// pipelined window sweeps need long tapes).
	Items int
	// Windows is the window-depth axis for the FIFO-only windowed
	// protocols (gobackn, selrepeat); other protocols ignore it.
	// Default: {4}.
	Windows []int
	// Trials per cell (default 20).
	Trials int
	// MaxSteps bounds each trial (default: prob's 600 + 200·Items).
	MaxSteps int
	// Seed is the base seed; cell c trial i derives from
	// Seed + c·10007 + i, so cells draw disjoint schedule streams.
	Seed int64
	// Parallelism is forwarded to prob.Run (default: GOMAXPROCS).
	Parallelism int
	// Timeout is the hybrid protocol's timeout parameter (0 = default).
	Timeout int
	// Logf, when non-nil, receives per-cell progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) normalize() error {
	if len(c.Protos) == 0 {
		return fmt.Errorf("frontier: no protocols")
	}
	for _, p := range c.Protos {
		if _, ok := safeKinds[p]; !ok {
			return fmt.Errorf("frontier: protocol %q is not in the verified-safe table (have %s); use stpsim/stpexp to study it",
				p, strings.Join(FrontierProtocols(), ", "))
		}
	}
	if len(c.Models) == 0 {
		c.Models = DefaultModels()
	}
	if len(c.Ms) == 0 {
		c.Ms = []int{4, 8}
	}
	minM := c.Ms[0]
	for _, m := range c.Ms {
		if m < 2 {
			return fmt.Errorf("frontier: alphabet size %d < 2", m)
		}
		if m < minM {
			minM = m
		}
	}
	if c.Items <= 0 {
		c.Items = minM
	}
	for _, p := range c.Protos {
		if repFree[p] && c.Items > minM {
			return fmt.Errorf("frontier: %s needs repetition-free inputs, so %d items exceed min m = %d", p, c.Items, minM)
		}
	}
	if len(c.Windows) == 0 {
		c.Windows = []int{4}
	}
	for _, w := range c.Windows {
		if w < 1 {
			return fmt.Errorf("frontier: window depth %d < 1", w)
		}
	}
	if c.Trials <= 0 {
		c.Trials = 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Cell is one (protocol, model, m) point of the frontier.
type Cell struct {
	Proto  string  `json:"proto"`
	Model  string  `json:"model"`  // canonical spec
	Family string  `json:"family"` // model family name
	Kind   string  `json:"kind"`   // channel kind the model realizes
	Param  float64 `json:"param"`  // family's primary parameter
	M      int     `json:"m"`
	// Window is the sliding-window depth for the windowed protocols
	// (0 for the stop-and-wait family).
	Window int `json:"window,omitempty"`
	Items  int `json:"items"`
	Trials int `json:"trials"`

	Completed  int `json:"completed"`
	Stalled    int `json:"stalled"`
	Violations int `json:"violations"`
	Steps      int `json:"steps"`
	Delivered  int `json:"delivered"`

	// Goodput is delivered items per scheduler step over all trials.
	Goodput        float64 `json:"goodput"`
	CompletionRate float64 `json:"completion_rate"`
	// Ceiling is the asymptotic lock-step rate: an ideal protocol
	// moves one item per 4 steps (tick S, deliver data, tick R,
	// deliver ack), degraded by the expected drop rate and diluted by
	// duplicates. It is a reference curve, not a hard bound — short
	// runs end right after the last delivery (truncating the final
	// cycle) and lucky seeds see fewer drops than the expectation, so
	// finite-run goodput can sit slightly above it. The hard
	// structural bound is one delivery per 4-step cycle:
	// Delivered <= (Steps + 2·Trials) / 4.
	Ceiling float64 `json:"ceiling"`
	// Efficiency is Goodput / Ceiling (0 when the ceiling is 0; can
	// exceed 1 for the finite-run reasons above).
	Efficiency float64 `json:"efficiency"`
	// AlphaBits is log2(alpha(m)) — the paper's bound on how much
	// sequence information a bounded-alphabet protocol can pin down.
	AlphaBits float64 `json:"alpha_bits"`
}

// Doc is the frontier bench document.
type Doc struct {
	Tool    string   `json:"tool"`
	Protos  []string `json:"protos"`
	Models  []string `json:"models"`
	Ms      []int    `json:"ms"`
	Windows []int    `json:"windows,omitempty"`
	Items   int      `json:"items"`
	Trials  int      `json:"trials"`
	Seed    int64    `json:"seed"`
	Cells   []Cell   `json:"cells"`
	Skipped []string `json:"skipped,omitempty"`

	TotalCells      int `json:"total_cells"`
	TotalViolations int `json:"total_violations"`
}

// Run executes the sweep. Cells run sequentially (each cell's trials
// run in parallel inside prob.Run); results are deterministic for a
// fixed Seed. An error from any cell aborts the sweep; safety
// violations do NOT error — they are tallied so the caller can fail
// the run with the full document in hand.
func Run(cfg Config) (*Doc, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	doc := &Doc{
		Tool:   "stpfrontier",
		Protos: append([]string(nil), cfg.Protos...),
		Ms:     append([]int(nil), cfg.Ms...),
		Items:  cfg.Items,
		Trials: cfg.Trials,
		Seed:   cfg.Seed,
	}
	for _, p := range cfg.Protos {
		if fifoOnly[p] {
			doc.Windows = append([]int(nil), cfg.Windows...)
			break
		}
	}
	for _, m := range cfg.Models {
		doc.Models = append(doc.Models, m.Spec())
	}

	cellIdx := 0
	for _, proto := range cfg.Protos {
		windows := []int{0}
		if fifoOnly[proto] {
			windows = cfg.Windows
		}
		for _, model := range cfg.Models {
			// Realization kind: the model's own kind, except that the
			// FIFO-only windowed protocols run the model's loss stream
			// over an order-preserving FIFO half — and only for the
			// families whose decisions that realization makes sense for.
			kind := model.Kind()
			if fifoOnly[proto] {
				if !fifoFamilies[model.Family()] {
					doc.Skipped = append(doc.Skipped, fmt.Sprintf(
						"%s × %s: FIFO-only protocol is charted only on the order-preserving loss families (iid-loss, ge)",
						proto, model.Spec()))
					continue
				}
				kind = channel.KindFIFO
			}
			if !SafeOn(proto, kind) {
				doc.Skipped = append(doc.Skipped, fmt.Sprintf(
					"%s × %s: %s is not safe on %s channels", proto, model.Spec(), proto, kind))
				continue
			}
			for _, m := range cfg.Ms {
				// Input tape: 0..Items-1 for the repetition-free
				// protocols (identity stays in-domain because normalize
				// capped Items at min m); the same ramp reduced mod m
				// for everyone else — identical across cells at the same
				// m, so only channel, protocol, and window vary.
				input := make(seq.Seq, cfg.Items)
				for i := range input {
					if repFree[proto] {
						input[i] = seq.Item(i)
					} else {
						input[i] = seq.Item(i % m)
					}
				}
				for _, w := range windows {
					cell, err := runCell(cfg, proto, model, kind, m, w, input, cellIdx)
					if err != nil {
						return nil, err
					}
					cellIdx++
					doc.Cells = append(doc.Cells, cell)
					doc.TotalViolations += cell.Violations
					cfg.Logf("cell %s × %s × m=%d w=%d: goodput=%.4f (ceiling %.4f) complete=%d/%d violations=%d",
						proto, model.Spec(), m, w, cell.Goodput, cell.Ceiling,
						cell.Completed, cell.Trials, cell.Violations)
				}
			}
		}
	}
	doc.TotalCells = len(doc.Cells)
	return doc, nil
}

func runCell(cfg Config, proto string, model chanmodel.Model, kind channel.Kind, m, window int, input seq.Seq, cellIdx int) (Cell, error) {
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = hybrid.DefaultTimeout
	}
	spec, err := registry.Protocol(proto, registry.Params{M: m, Timeout: timeout, Window: window})
	if err != nil {
		return Cell{}, fmt.Errorf("frontier: %w", err)
	}
	est, err := prob.Run(spec, input, kind, prob.Config{
		Trials:      cfg.Trials,
		MaxSteps:    cfg.MaxSteps,
		Seed:        cfg.Seed + int64(cellIdx)*10007,
		Parallelism: cfg.Parallelism,
		Model:       model,
	})
	if err != nil {
		return Cell{}, fmt.Errorf("frontier: %s × %s × m=%d: %w", proto, model.Spec(), m, err)
	}
	cell := Cell{
		Proto: proto, Model: model.Spec(), Family: model.Family(),
		Kind: kind.String(), Param: model.Param(),
		M: m, Window: window, Items: cfg.Items, Trials: est.Trials,
		Completed: est.Completed, Stalled: est.Stalled, Violations: est.Violations,
		Steps: est.Steps, Delivered: est.Items,
		Goodput:        est.Goodput(),
		CompletionRate: est.CompletionRate(),
		Ceiling:        Ceiling(model),
		AlphaBits:      AlphaBits(m),
	}
	if cell.Ceiling > 0 {
		cell.Efficiency = cell.Goodput / cell.Ceiling
	}
	return cell, nil
}

// Ceiling returns the asymptotic lock-step rate for a model: 0.25
// items per step for an ideal stop-and-wait exchange, scaled by the
// fraction of data transmissions that survive and diluted by
// duplicate deliveries burning scheduler steps. See Cell.Ceiling for
// why finite runs can exceed it slightly.
func Ceiling(m chanmodel.Model) float64 {
	return 0.25 * (1 - m.DropRate()) / (1 + m.DupRate())
}

// AlphaBits returns log2(alpha(m)), the information content of the
// paper's bound. Exact via big integers, converted to float at the
// end; +Inf only for astronomically large m.
func AlphaBits(m int) float64 {
	a, err := alpha.AlphaBig(m)
	if err != nil || a.Sign() <= 0 {
		return 0
	}
	// log2(a) = exponent offset + log2 of the mantissa: extract via
	// big.Float to stay exact for m well past float64 range.
	f := new(big.Float).SetInt(a)
	mant := new(big.Float)
	exp := f.MantExp(mant)
	mf, _ := mant.Float64()
	return float64(exp) + math.Log2(mf)
}

// Markdown renders the document as a GitHub-flavored table, grouped by
// model family, for pasting into EXPERIMENTS.md.
func (d *Doc) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Frontier sweep: %d cells, %d trials × %d items each, seed %d.\n",
		d.TotalCells, d.Trials, d.Items, d.Seed)
	fmt.Fprintf(&b, "Goodput = delivered items per scheduler step; ceiling = 0.25·(1−drop)/(1+dup).\n\n")

	byFamily := map[string][]Cell{}
	var families []string
	for _, c := range d.Cells {
		if _, ok := byFamily[c.Family]; !ok {
			families = append(families, c.Family)
		}
		byFamily[c.Family] = append(byFamily[c.Family], c)
	}
	for _, fam := range families {
		fmt.Fprintf(&b, "### %s\n\n", fam)
		b.WriteString("| protocol | model | m | W | alpha bits | complete | goodput | ceiling | efficiency | violations |\n")
		b.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		cells := byFamily[fam]
		sort.SliceStable(cells, func(i, j int) bool {
			if cells[i].Param != cells[j].Param {
				return cells[i].Param < cells[j].Param
			}
			if cells[i].Proto != cells[j].Proto {
				return cells[i].Proto < cells[j].Proto
			}
			if cells[i].M != cells[j].M {
				return cells[i].M < cells[j].M
			}
			return cells[i].Window < cells[j].Window
		})
		for _, c := range cells {
			w := "-"
			if c.Window > 0 {
				w = fmt.Sprintf("%d", c.Window)
			}
			fmt.Fprintf(&b, "| %s | `%s` | %d | %s | %.1f | %d/%d | %.4f | %.4f | %.0f%% | %d |\n",
				c.Proto, c.Model, c.M, w, c.AlphaBits, c.Completed, c.Trials,
				c.Goodput, c.Ceiling, 100*c.Efficiency, c.Violations)
		}
		b.WriteString("\n")
	}
	if len(d.Skipped) > 0 {
		b.WriteString("Skipped (protocol unsafe on the model's channel kind):\n\n")
		for _, s := range d.Skipped {
			fmt.Fprintf(&b, "- %s\n", s)
		}
	}
	return b.String()
}
