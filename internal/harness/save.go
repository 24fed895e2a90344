package harness

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/durable"
)

// Campaign results serialize to JSON (gzip-compressed when the filename
// ends in .gz) so expensive campaigns can be rendered, re-analyzed or
// compared later without re-running (cmd/figures).

// resultsFile is the on-disk envelope.
type resultsFile struct {
	// Version guards against schema drift.
	Version int               `json:"version"`
	Results []*CampaignResult `json:"results"`
}

// resultsVersion 2: ExperimentSummary gained Planned and Diag, and
// campaigns may retain a bounded subset of summaries (MaxSummaries).
// Files written by earlier versions are rejected rather than silently
// misread (v1 summaries conflate "no fault planned" with "rank 0").
// resultsVersion 3: Crashed summaries follow JournalVersion 2's failure
// semantics.
const resultsVersion = 3

// SaveResults writes campaign results to path, replacing the file whole:
// a failed encode or a kill mid-write leaves the previous file as it was.
func SaveResults(path string, results []*CampaignResult) error {
	var buf bytes.Buffer
	env := resultsFile{Version: resultsVersion, Results: results}
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(&buf)
		if err := json.NewEncoder(zw).Encode(env); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
	} else {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", " ")
		if err := enc.Encode(env); err != nil {
			return err
		}
	}
	return durable.Replace(path, buf.Bytes())
}

// LoadResults reads campaign results from path.
func LoadResults(path string) ([]*CampaignResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var env resultsFile
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		if err := json.NewDecoder(zr).Decode(&env); err != nil {
			return nil, err
		}
	} else if err := json.NewDecoder(f).Decode(&env); err != nil {
		return nil, err
	}
	if env.Version != resultsVersion {
		return nil, fmt.Errorf("harness: results file version %d, want %d", env.Version, resultsVersion)
	}
	return env.Results, nil
}
