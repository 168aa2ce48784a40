package hypotheses

import (
	"fmt"
	"strings"

	"soemt/internal/core"
	"soemt/internal/experiments"
	"soemt/internal/sim"
	"soemt/internal/stats"
)

// groupedMix is the starvation mix from the golden suite: one missy
// thread (gcc, CPM ≈ 1k) against three cache-friendly hogs (gzip ≈ 5k,
// eon ≈ 11k, crafty ≈ 21k). Seeds are the profiles' pinned seeds; the
// N-sweep takes prefixes of this list.
func groupedMix() []string { return []string{"gcc", "eon", "gzip", "crafty"} }

func groupedFairnessExperiment() Experiment {
	return Experiment{
		Name:   "grouped-fairness",
		Policy: "grouped-fairness",
		Hypothesis: "On a mixed workload of one missy thread and N-1 cache-friendly " +
			"hogs, GroupedFairness at F=1 (LFOC-style CPM grouping, 2:1 missy grant " +
			"boost) reaches at least the min-over-pairs fairness of the paper's plain " +
			"Fairness policy at F=1 while forcing at most half as many quota switches " +
			"— group-local Eq. 9 floors relax the hogs' budgets, and the weighted " +
			"grant path (not quota churn) protects the missy thread.",
		Method: []string{
			"Mix gcc:eon:gzip:crafty (pinned profile seeds), prefixes N=2..4.",
			"Three arms per N: event-only (F=0 baseline), Fairness{F:1}, GroupedFairness{F:1, MissyWeight:2, FriendlyWeight:1} with the adaptive CPM split.",
			"Fairness is the Eq. 4 min-over-pairs metric over Eq. 3 speedups vs event-only single-thread references.",
			"Checks apply to the full N=4 mix; the sweep table shows N=2..3 for trend.",
			"CLI equivalent: soesweep -sweep threads -threads gcc:eon:gzip:crafty -policy grouped-fairness -F 1",
		},
		Run: runGroupedFairness,
	}
}

func runGroupedFairness(env Env) (*Outcome, error) {
	o := &Outcome{Table: stats.NewTable("N", "mix", "policy", "fairness", "forced", "IPC")}
	type arm struct {
		label  string
		policy core.Policy
	}
	arms := []arm{
		{"event-only", core.EventOnly{}},
		{"fairness", core.Fairness{F: 1}},
		{"grouped", core.GroupedFairness{F: 1, MissyWeight: 2, FriendlyWeight: 1}},
	}
	// fair[label] and forced[label] hold the full-mix (N=4) values the
	// checks run against.
	fair := map[string]float64{}
	forced := map[string]uint64{}
	for n := 2; n <= len(groupedMix()); n++ {
		names := groupedMix()[:n]
		specs, err := experiments.MixSpecs(names)
		if err != nil {
			return nil, err
		}
		for _, a := range arms {
			m := sim.DefaultMachine()
			m.Controller.Policy = a.policy
			res, sp, err := experiments.RunMix(env.Ctx, env.Cache,
				sim.Spec{Machine: m, Threads: specs, Scale: env.Scale, Watchdog: env.Watchdog})
			if err != nil {
				return nil, err
			}
			f := core.FairnessMetric(sp)
			o.Table.AddRow(fmt.Sprintf("%d", n), strings.Join(names, ":"), a.label,
				fmt.Sprintf("%.3f", f),
				fmt.Sprintf("%d", res.Switches.Forced()),
				fmt.Sprintf("%.3f", res.IPCTotal))
			if n == len(groupedMix()) {
				fair[a.label] = f
				forced[a.label] = res.Switches.Forced()
			}
		}
	}

	o.check("fairness >= plain Fairness", fair["grouped"] >= fair["fairness"],
		"grouped %.3f vs plain %.3f (event-only floor %.3f)",
		fair["grouped"], fair["fairness"], fair["event-only"])
	o.check("forced switches <= half of plain", forced["grouped"]*2 <= forced["fairness"],
		"grouped %d vs plain %d", forced["grouped"], forced["fairness"])
	o.check("clears the Table 2 F=0 floor", fair["grouped"] > 0.11,
		"grouped %.3f > 0.11", fair["grouped"])
	o.note("The grant path does the heavy lifting: WFQ credit ordering inherently " +
		"favors the short-visit missy thread (its visits accrue ~20-30x less credit " +
		"than a hog's), so the missy boost compounds an already-preferential order " +
		"while the group-local floors cut quota churn on the hogs.")
	o.note("The golden suite's TestGoldenQuadDetectsMisgrouping shows the inverse: " +
		"swapping the groups at a decisive weight ratio re-starves gcc to the " +
		"event-only floor.")
	return o, nil
}
