// Command figures renders the paper's figures and tables from a saved
// campaign results file (produced with `campaign -json results.json`),
// so expensive campaigns can be re-rendered without re-running. It prints
// what campaign printed for them, less its `#` header lines and its
// recovery-policy reports: Table 1 and the study (harness.RenderStudy).
//
// Usage:
//
//	figures -in results.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
)

func main() {
	in := flag.String("in", "results.json", "saved campaign results (.json or .json.gz)")
	flag.Parse()
	if err := run(os.Stdout, os.Stderr, *in); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run renders the results saved at in to w; notes go to stderr.
func run(w, stderr io.Writer, in string) error {
	results, err := harness.LoadResults(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return errors.New("no results in file")
	}
	for _, r := range results {
		// Campaigns run with a summary cap (-max-summaries) tally every
		// run but retain only a prefix of per-experiment records; figures
		// derived from individual experiments then cover a subset.
		if r.Runs > len(r.Experiments) {
			fmt.Fprintf(stderr,
				"note: %s retained %d of %d experiment summaries; per-experiment figures (fig5, fig7f) cover that subset\n",
				r.App, len(r.Experiments), r.Runs)
		}
	}
	t1, err := harness.FormatTable1()
	if err != nil {
		return fmt.Errorf("table 1: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n%s", t1, harness.RenderStudy(results...))
	return err
}
