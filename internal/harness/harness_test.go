package harness

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/transform"
)

func buildInstrumented(t testing.TB, app apps.App, p apps.Params) *ir.Program {
	t.Helper()
	prog, err := app.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestRunFaultFreeMatchesReference(t *testing.T) {
	app := apps.NewHydro()
	p := app.TestParams()
	inst := buildInstrumented(t, app, p)
	out := core.Run(inst, core.RunConfig{Ranks: p.Ranks})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	want, err := app.Reference(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Outputs) != len(want) {
		t.Fatalf("outputs = %v, want %v", out.Outputs, want)
	}
	for i := range want {
		if out.Outputs[i] != want[i] {
			t.Errorf("output %d = %v, want %v", i, out.Outputs[i], want[i])
		}
	}
	if out.AllocatedTotal == 0 {
		t.Error("no allocated words recorded")
	}
}

func TestCampaignSmokeHydro(t *testing.T) {
	app := apps.NewHydro()
	res, err := RunCampaign(CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 20, Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Total != 20 {
		t.Errorf("tally total = %d", res.Tally.Total)
	}
	if len(res.Experiments) != 20 {
		t.Errorf("experiments = %d", len(res.Experiments))
	}
	// At least some experiments should contaminate memory (the paper
	// reports >98% of CO runs contaminated).
	contaminated := 0
	for _, e := range res.Experiments {
		if e.TotalPeakCML > 0 {
			contaminated++
		}
	}
	if contaminated == 0 {
		t.Error("no experiment contaminated memory")
	}
	if len(res.GoldenSites) != app.TestParams().Ranks {
		t.Errorf("golden sites = %v", res.GoldenSites)
	}
}

func TestCampaignMultiFault(t *testing.T) {
	app := apps.NewHydro()
	res, err := RunCampaign(CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 10, Seed: 3, MultiFaultLambda: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, e := range res.Experiments {
		if len(e.Plan.Faults) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("lambda=2 produced no multi-fault plans")
	}
}

func TestCampaignRejectsBadConfig(t *testing.T) {
	if _, err := RunCampaign(CampaignConfig{App: apps.NewHydro()}); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestOutcomeDistributionHasVariety(t *testing.T) {
	// Across apps and enough runs, the campaign should produce at least
	// two distinct outcome classes (all-one-class indicates a broken
	// classifier or injector).
	app := apps.NewMD()
	res, err := RunCampaign(CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 30, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	classes := 0
	for o := classify.Vanished; o <= classify.Crashed; o++ {
		if res.Tally.Counts[o] > 0 {
			classes++
		}
	}
	if classes < 2 {
		t.Errorf("outcome distribution degenerate: %v", res.Tally.Counts)
	}
}
