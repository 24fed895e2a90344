package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apps"
)

// TestCampaignKeysPinned pins every variant of the campaign key: the
// fingerprint of each result-determining field and the journal
// fingerprints of a range shard and an explicit-ID shard. Each value was
// measured before the key had one home; a change here orphans every
// checkpoint journal, shard spec, partial and archive entry written
// before it.
func TestCampaignKeysPinned(t *testing.T) {
	app := apps.NewHydro()
	base := CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 40, Seed: 7}}
	with := func(edit func(*CampaignConfig)) CampaignConfig {
		cfg := base
		edit(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
		want string
	}{
		{"fixed", base, "64fdd2fe141fad53"},
		{"hang default spelled out", with(func(c *CampaignConfig) { c.HangFactor = 4 }), "64fdd2fe141fad53"},
		{"scheduling and retention excluded", with(func(c *CampaignConfig) {
			c.Workers, c.Snapshots, c.KeepProfiles, c.MaxSummaries, c.StopAfter = 3, 64, 5, 9, 2
			c.Trace = "t"
		}), "64fdd2fe141fad53"},
		{"TargetCI 0.2", with(func(c *CampaignConfig) { c.TargetCI = 0.2 }), "1e76083e8f7b83b8"},
		{"TargetCI 0.2 Strata 4", with(func(c *CampaignConfig) { c.TargetCI, c.Strata = 0.2, 4 }), "1e76083e8f7b83b8"},
		{"Strata 3", with(func(c *CampaignConfig) { c.Strata = 3 }), "16daaf15af33141d"},
		{"Sites", with(func(c *CampaignConfig) { c.Sites = true }), "f343d28d728573b5"},
		{"Protect {1,4}", with(func(c *CampaignConfig) { c.Protect = []int{1, 4} }), "1a2e237841b07f0f"},
		{"MultiFaultLambda 0.5", with(func(c *CampaignConfig) { c.MultiFaultLambda = 0.5 }), "8d726a4d38ae3506"},
		{"HangFactor 8", with(func(c *CampaignConfig) { c.HangFactor = 8 }), "974233a02cbc9cf7"},
		{"SampleEvery 64", with(func(c *CampaignConfig) { c.SampleEvery = 64 }), "bb0f68bc31e521c3"},
		{"every field", with(func(c *CampaignConfig) {
			c.MultiFaultLambda, c.HangFactor, c.SampleEvery = 0.5, 8, 64
			c.TargetCI, c.Strata, c.Sites, c.Protect = 0.2, 3, true, []int{1, 4}
		}), "9b43b95ca7482fba"},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
	// The family is the same encoding without runs: one value for every
	// run count. A change orphans every family resume and archive seed.
	for _, runs := range []int{40, 80} {
		cfg := base
		cfg.Runs = runs
		if got := cfg.Family(); got != "f90224fa1636fff2" {
			t.Errorf("%d runs: family %s, want f90224fa1636fff2", runs, got)
		}
	}

	// A shard's checkpoint journal is bound to its range or ID set; the
	// whole range keeps the bare campaign fingerprint.
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		spec ShardSpec
		want string
	}{
		{"whole range", ShardSpec{Shards: 1, From: 0, To: 40}, "64fdd2fe141fad53"},
		{"shard [10,20)", ShardSpec{Index: 1, Shards: 4, From: 10, To: 20}, "64fdd2fe141fad53|shard=10-20"},
		{"IDs {3,5}", ShardSpec{Shards: 2, IDs: []int{3, 5}}, "64fdd2fe141fad53|ids=40ebf8022f214b93"},
	} {
		cfg := base
		cfg.Workers, cfg.StopAfter = 1, 1
		cfg.Checkpoint = filepath.Join(dir, tc.name+".jsonl")
		if _, err := RunShard(cfg, tc.spec); err != nil && !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f, err := os.Open(cfg.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(f).ReadBytes('\n')
		f.Close()
		var hdr struct{ Fingerprint string }
		if err != nil || json.Unmarshal(line, &hdr) != nil {
			t.Fatalf("%s: unreadable journal header %q: %v", tc.name, line, err)
		}
		if hdr.Fingerprint != tc.want {
			t.Errorf("%s: journal fingerprint %s, want %s", tc.name, hdr.Fingerprint, tc.want)
		}
	}

	// The key names each apps.Params field it encodes. A new field must be
	// added to the key on purpose, or it would re-key every campaign.
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(apps.Params{})) {
		fields = append(fields, f.Name+" "+f.Type.String())
	}
	if want := []string{"Ranks int", "Size int", "Steps int", "Seed uint64"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("apps.Params fields %v, want the key's %v: encode the new field in the campaign key", fields, want)
	}
}
