package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/inject"
	"repro/internal/mpi"
	"repro/internal/transform"
	"repro/internal/vm"
	"repro/internal/xrand"
)

// knownStalls are surveyed experiments (bench/README.md, "Stalls") whose
// single bit flip leaves every rank alive and blocked in MPI at mismatched
// call sites. Before deadlocks were detected only the wall-clock timeout
// ended them.
var knownStalls = []struct {
	app      string
	campaign bool // DefaultParams instead of TestParams
	seed     uint64
	id       uint64
}{
	{"AMG2013", false, 2015, 1458},
	{"AMG2013", false, 2018, 1297},
	{"AMG2013", false, 2034, 1058},
	{"LULESH", false, 2017, 2930},
	{"LULESH", false, 2018, 2233},
	{"LULESH", true, 2016, 599},
	{"LAMMPS", false, 2023, 234},
	{"LAMMPS", false, 2024, 1953},
	{"miniFE", false, 2022, 384},
	{"miniFE", false, 2019, 4589},
	{"MCB", false, 2017, 1175},
	{"MCB", false, 2029, 338},
	{"MCB", false, 2026, 1435},
}

// TestKnownStallsEndAsDeadlocks: each surveyed stall ends in logical time,
// far below the (generous) wall-clock timeout, with every rank reporting
// the deadlock trap and the observables the timeout path gives: all ranks
// casualties, zero aggregates.
func TestKnownStallsEndAsDeadlocks(t *testing.T) {
	for _, k := range knownStalls {
		k := k
		scale := "test"
		if k.campaign {
			scale = "default"
		}
		t.Run(fmt.Sprintf("%s/%s/%d:%d", k.app, scale, k.seed, k.id), func(t *testing.T) {
			app := apps.ByName(k.app)
			p := app.TestParams()
			if k.campaign {
				p = app.DefaultParams()
			}
			prog, err := app.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := transform.Instrument(prog, transform.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			golden := Run(inst, RunConfig{Ranks: p.Ranks, SampleEvery: 256})
			if golden.Err != nil {
				t.Fatal(golden.Err)
			}
			if golden.Deadlock || golden.Timeout {
				t.Fatalf("golden run: Deadlock=%v Timeout=%v", golden.Deadlock, golden.Timeout)
			}
			plan, err := inject.UniformSinglePlan(xrand.At(k.seed, k.id), golden.SiteCounts())
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			out := Run(inst, RunConfig{
				Ranks: p.Ranks, SampleEvery: 256, CycleLimit: 4 * golden.Cycles,
				Plan: plan, Timeout: 5 * time.Second,
			})
			if d := time.Since(start); d >= time.Second {
				t.Errorf("plan %v ran %v: the stall was waited out, not detected", plan, d)
			}
			if !out.Deadlock || out.Timeout {
				t.Errorf("Deadlock=%v Timeout=%v, want a detected deadlock and no timeout", out.Deadlock, out.Timeout)
			}
			for r, rr := range out.Ranks {
				tr := vm.AsTrap(rr.Err)
				if tr == nil || tr.Kind != vm.TrapPeerFailure || !strings.HasPrefix(tr.Detail, mpi.ErrDeadlock.Error()+": ") {
					t.Errorf("rank %d: error %v, want the deadlock trap", r, rr.Err)
				}
				if !rr.Casualty {
					t.Errorf("rank %d is not a casualty", r)
				}
			}
			// One verdict for the whole job: every rank names the same waits.
			for r := 1; r < len(out.Ranks); r++ {
				if a, b := vm.AsTrap(out.Ranks[0].Err), vm.AsTrap(out.Ranks[r].Err); a != nil && b != nil && a.Detail != b.Detail {
					t.Errorf("rank 0 reports %q, rank %d %q", a.Detail, r, b.Detail)
				}
			}
			if out.Err == nil || out.MaxCMLTotal != 0 || out.Ever || out.Cycles != 0 || len(out.Outputs) != 0 {
				t.Errorf("aggregates Err=%v MaxCMLTotal=%d Ever=%v Cycles=%d Outputs=%d, want an error and zeros",
					out.Err, out.MaxCMLTotal, out.Ever, out.Cycles, len(out.Outputs))
			}
			if t.Failed() || testing.Verbose() {
				t.Logf("plan %v: %v", plan, out.Err)
			}
		})
	}
}
