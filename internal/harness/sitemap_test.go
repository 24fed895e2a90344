package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/transform"
	"repro/internal/vm"
)

var updateSiteMap = flag.Bool("update-sitemap", false, "rewrite testdata/sitemap.golden")

const siteMapGolden = "testdata/sitemap.golden"

// goldenSiteMap runs inst fault-free, recording its site map, and expands
// the runs into each rank's static fim_inj ordinal per dynamic site, in
// site order. The runs must tile each rank's sites, and recording must
// not take the VM out of the clean-mode interpreter.
func goldenSiteMap(t *testing.T, inst *ir.Program, ranks int) [][]int32 {
	t.Helper()
	switches := vm.CleanModeSwitches()
	out, _, runs, _ := core.RunGoldenCaptureSites(inst, core.RunConfig{Ranks: ranks}, nil, true)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if n := vm.CleanModeSwitches() - switches; n != 0 {
		t.Fatalf("recording left the clean-mode interpreter %d times", n)
	}
	statics := make([][]int32, ranks)
	for r, rr := range runs {
		for _, run := range rr {
			if run.Site != uint64(len(statics[r])) || run.N == 0 {
				t.Fatalf("rank %d: run %+v after %d sites", r, run, len(statics[r]))
			}
			for i := range run.N {
				statics[r] = append(statics[r], run.Static+int32(i))
			}
		}
		if n := out.SiteCounts()[r]; uint64(len(statics[r])) != n {
			t.Fatalf("rank %d: runs cover %d of %d sites", r, len(statics[r]), n)
		}
	}
	return statics
}

// TestSiteMapPinned pins the dyn→static site map that stratified and
// per-site campaigns attribute faults through: for the five apps at test
// scale, unprotected and with every third static site protected, the
// sha256 of each rank's (static ordinal, SiteInfo class) sequence must
// match testdata/sitemap.golden. The digests were taken from a run-time
// observer that resolved each site's class by scanning for its consumer,
// so they also pin that class to the transform's SiteInfo class.
// Regenerate with -update-sitemap.
func TestSiteMapPinned(t *testing.T) {
	var got strings.Builder
	for _, app := range apps.All() {
		params := app.TestParams()
		prog, err := app.Build(params)
		if err != nil {
			t.Fatal(err)
		}
		_, plain, err := transform.InstrumentSites(prog, transform.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []string{"none", "third"} {
			opts := transform.DefaultOptions()
			if variant == "third" {
				for s := 0; s < len(plain); s += 3 {
					opts.Protect = append(opts.Protect, s)
				}
			}
			inst, infos, err := transform.InstrumentSites(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			statics := goldenSiteMap(t, inst, params.Ranks)
			for r := range statics {
				h := sha256.New()
				var rec [5]byte
				for i, s := range statics[r] {
					if s < 0 || int(s) >= len(infos) {
						t.Fatalf("%s protect=%s rank %d site %d: static ordinal %d of %d",
							app.Name(), variant, r, i, s, len(infos))
					}
					binary.LittleEndian.PutUint32(rec[:4], uint32(s))
					rec[4] = byte(infos[s].Class)
					h.Write(rec[:])
				}
				fmt.Fprintf(&got, "%s protect=%s rank=%d sites=%d sha256=%x\n",
					app.Name(), variant, r, len(statics[r]), h.Sum(nil))
			}
		}
	}
	if *updateSiteMap {
		if err := os.WriteFile(siteMapGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(siteMapGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("site map digests moved:\n got\n%s\nwant\n%s", got.String(), want)
	}
}
