package soak

import "fmt"

// RunReport is the audited outcome of one case.
type RunReport struct {
	Protocol  string `json:"protocol"`
	Channel   string `json:"channel"`
	Adversary string `json:"adversary"`
	Plan      string `json:"plan"`
	Seed      int64  `json:"seed"`
	Fair      bool   `json:"fair"`
	MayFail   bool   `json:"may_fail"`
	// InModel mirrors the plan's classification (false for corruption and
	// crash-restart plans).
	InModel bool `json:"in_model"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Violation is the violated invariant class ("" when none).
	Violation string `json:"violation,omitempty"`
	// Expected reports whether this outcome is acceptable for the cell: a
	// clean run always is; a violation only on MayFail cells.
	Expected bool `json:"expected"`
	Steps    int  `json:"steps"`
	// CutStep is the step at which the wall-clock watchdog cut the run
	// (set only for OutcomeWallClock): a replay of the same case with
	// MaxSteps = CutStep reproduces the exact prefix that was observed.
	CutStep int    `json:"cut_step,omitempty"`
	Output  string `json:"output,omitempty"`
	// Audit is the conservation auditor's verdict: "ok", "skipped", or the
	// first violation found.
	Audit string `json:"audit,omitempty"`
	Error string `json:"error,omitempty"`
	// Counterexample is the shrunk failing trace (safety violations only).
	Counterexample *Counterexample `json:"counterexample,omitempty"`
}

// ID renders the cell coordinates compactly.
func (r RunReport) ID() string {
	return fmt.Sprintf("%s/%s/%s/%s/seed=%d", r.Protocol, r.Channel, r.Adversary, r.Plan, r.Seed)
}

// Summary aggregates a campaign.
type Summary struct {
	Total    int `json:"total"`
	Complete int `json:"complete"`
	// ExpectedViolations counts violations on MayFail cells — the campaign
	// working as designed (out-of-model faults breaking weak protocols).
	ExpectedViolations int `json:"expected_violations"`
	// UnexpectedViolations counts violations on cells that promised to
	// survive — each one is a bug (in the protocol or the harness).
	UnexpectedViolations int `json:"unexpected_violations"`
	// Inconclusive counts runs cut short without a verdict (unfair stalls,
	// step/wall-clock budget exhaustion).
	Inconclusive int `json:"inconclusive"`
	// Shrunk counts captured counterexamples whose shrunk replay
	// reproduces the violation.
	Shrunk int `json:"shrunk"`
}

// Report is the JSON artifact of a campaign run.
type Report struct {
	Campaign string      `json:"campaign"`
	Runs     []RunReport `json:"runs"`
	Summary  Summary     `json:"summary"`
}

// Finalize (re)computes the summary from the runs. Campaign.Run calls it;
// callers that assemble reports from partial runs (a budget-limited CLI
// invocation) call it again before rendering.
func (r *Report) Finalize() { r.summarize() }

func (r *Report) summarize() {
	s := Summary{Total: len(r.Runs)}
	for _, run := range r.Runs {
		switch {
		case run.Violation != "" && run.Expected:
			s.ExpectedViolations++
		case run.Violation != "":
			s.UnexpectedViolations++
		case run.Outcome == OutcomeComplete:
			s.Complete++
		default:
			s.Inconclusive++
		}
		if run.Counterexample != nil && run.Counterexample.ReplayOK {
			s.Shrunk++
		}
	}
	r.Summary = s
}

// Ok reports whether the campaign met its expectations: no cell that
// promised to survive violated anything.
func (r *Report) Ok() bool { return r.Summary.UnexpectedViolations == 0 }

// Unexpected returns the runs that violated without permission.
func (r *Report) Unexpected() []RunReport {
	var out []RunReport
	for _, run := range r.Runs {
		if run.Violation != "" && !run.Expected {
			out = append(out, run)
		}
	}
	return out
}
