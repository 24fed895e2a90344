// Command fpmrun executes one fault-injection experiment against a proxy
// application and reports everything the framework observes: the applied
// fault, the outcome class, the contamination profile of the injected rank,
// the cross-rank spread, and the fitted propagation model.
//
// Usage:
//
//	fpmrun -app LULESH [-seed N] [-ranks N] [-size N] [-steps N]
//	       [-rank R -site S -bit B]   (explicit fault instead of a random one)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/model"
	"repro/internal/transform"
	"repro/internal/xrand"
)

func main() {
	appName := flag.String("app", "LULESH", "application: LULESH, LAMMPS, miniFE, AMG2013, MCB")
	seed := flag.Uint64("seed", 1, "random fault selection seed")
	ranks := flag.Int("ranks", 0, "override MPI ranks")
	size := flag.Int("size", 0, "override per-rank problem size")
	steps := flag.Int("steps", 0, "override timesteps / iteration cap")
	fRank := flag.Int("rank", -1, "explicit fault: target rank")
	fSite := flag.Uint64("site", 0, "explicit fault: dynamic site index")
	fBit := flag.Uint("bit", 0, "explicit fault: bit to flip")
	flag.Parse()

	app := apps.ByName(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(2)
	}
	params := app.DefaultParams()
	if *ranks > 0 {
		params.Ranks = *ranks
	}
	if *size > 0 {
		params.Size = *size
	}
	if *steps > 0 {
		params.Steps = *steps
	}
	prog, err := app.Build(params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	analyzer, err := core.NewAnalyzer(prog, params.Ranks, transform.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: ranks=%d size=%d steps=%d\n", app.Name(), params.Ranks, params.Size, params.Steps)
	fmt.Printf("golden: %d cycles, %d outputs, sites per rank %v\n",
		analyzer.Golden().Cycles, len(analyzer.Golden().Outputs), analyzer.SiteCounts())

	var plan inject.Plan
	if *fRank >= 0 {
		plan = inject.Plan{Faults: []inject.Fault{{Rank: *fRank, Site: *fSite, Bit: *fBit}}}
	} else {
		plan, err = analyzer.PlanUniform(xrand.New(*seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("fault: %v\n", plan.Faults[0])
	out := analyzer.Analyze(plan)
	fmt.Printf("outcome: %v\n", out.Class)
	if out.Run.Err != nil {
		fmt.Printf("failure: %v\n", out.Run.Err)
	}
	// Casualty ranks are excluded from the aggregates; when every rank is one
	// (every deadlock) there is no state to take a percentage of.
	var contamPct float64
	if out.Run.AllocatedTotal > 0 {
		contamPct = 100 * float64(out.Run.MaxCMLTotal) / float64(out.Run.AllocatedTotal)
	}
	fmt.Printf("contamination: peak %d locations over %d state words (%.2f%%), %d/%d ranks\n",
		out.Run.MaxCMLTotal, out.Run.AllocatedTotal, contamPct,
		out.Run.Spread.Count(), params.Ranks)
	if len(out.Points) > 1 {
		fmt.Println("injected rank CML profile (ms : CML):")
		step := len(out.Points)/20 + 1
		for i := 0; i < len(out.Points); i += step {
			p := out.Points[i]
			fmt.Printf("  %8.4f : %d\n", model.CyclesToSeconds(p.Cycles)*1e3, p.CML)
		}
	}
	if out.HasFit {
		fmt.Printf("propagation model: CML(t) = %.4g*t %+.4g (R²=%.3f, validation err %.2f%%)\n",
			out.Fit.A, out.Fit.B, out.Fit.R2, 100*out.Fit.ValidationErr)
	}
}
