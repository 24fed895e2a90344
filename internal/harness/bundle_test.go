package harness

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// countNewReuse wraps the coreNewReuse indirection — the free list's miss
// path — and counts the worker bundles allocated until the test ends.
func countNewReuse(t *testing.T) *atomic.Int32 {
	t.Helper()
	n := new(atomic.Int32)
	orig := coreNewReuse
	coreNewReuse = func(ranks int) *core.Reuse {
		n.Add(1)
		return orig(ranks)
	}
	t.Cleanup(func() { coreNewReuse = orig })
	return n
}

// dropBundles empties the process-wide free list, so that the next
// campaign's workers run on fresh bundles.
func dropBundles() {
	bundlePools.Range(func(ranks, _ any) bool {
		bundlePools.Delete(ranks)
		return true
	})
}

// TestBundleReuseAcrossPrograms is the gate for recycling worker bundles
// process-wide: it is the first time a vm.Memory, fpm.Table, recorder and
// MPI fabric that ran one program run another. For every ordered pair
// (A, B) of the five applications, campaign B run right after campaign A
// — so B's workers take the bundles A's just returned, with whatever A's
// last experiments left in them — must marshal to the very JSON B gives on
// fresh bundles; without snapshots (every run resets the bundle) and with
// them (a bundle whose delta base belongs to another pack restores by full
// copy), on one worker and on two. A follows the previous pair's B the
// same way, and is checked too.
func TestBundleReuseAcrossPrograms(t *testing.T) {
	allocated := countNewReuse(t)
	run := func(app apps.App, snapshots, workers int) string {
		t.Helper()
		res, err := RunCampaign(CampaignConfig{
			App: app, Params: app.TestParams(),
			Sampling:  Sampling{Runs: 8, Seed: 2015},
			Execution: Execution{SampleEvery: 64, Workers: workers, Snapshots: snapshots},
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, snapshots := range []int{0, 8} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("snapshots%d-workers%d", snapshots, workers), func(t *testing.T) {
				fresh := make(map[string]string)
				for _, app := range apps.All() {
					dropBundles()
					fresh[app.Name()] = run(app, snapshots, workers)
				}
				before, campaigns := allocated.Load(), 0
				for _, a := range apps.All() {
					for _, b := range apps.All() {
						for _, app := range []apps.App{a, b} {
							campaigns++
							if got := run(app, snapshots, workers); got != fresh[app.Name()] {
								t.Errorf("%s then %s: %s on recycled bundles differs from %s on fresh bundles",
									a.Name(), b.Name(), app.Name(), app.Name())
							}
						}
					}
				}
				// Not vacuous: the campaigns above did run on recycled
				// bundles. Under the race detector sync.Pool drops a share of
				// the Puts on purpose, so "none allocated" would be flaky;
				// without recycling every campaign allocates one per worker.
				if n := int(allocated.Load() - before); n >= campaigns*workers {
					t.Errorf("%d campaigns on %d workers allocated %d bundles: the free list recycled none",
						campaigns, workers, n)
				} else {
					t.Logf("%d campaigns on %d workers allocated %d bundles", campaigns, workers, n)
				}
			})
		}
	}
}
