// Command simlint machine-checks the repository's determinism and
// correctness conventions: the invariants every golden CSV and the
// exact cycle ledger silently rely on. It is a multichecker in the
// spirit of staticcheck's analyzer architecture, built on the
// stdlib-only framework in internal/lint.
//
// Usage:
//
//	simlint [-list] [-only name,name] [-fix] [packages]
//
// With no package patterns it checks ./.... Exit status is 0 when the
// tree is clean, 1 when findings were reported, 2 on usage or load
// errors. -fix applies the suggested fixes analyzers attach to their
// findings (currently the sorted-map-keys rewrite from seedflow and
// floatdet) and rewrites the affected files in place; on a clean tree
// it is a no-op, which CI asserts. Findings are suppressed
// line-by-line with `//simlint:allow <analyzer> -- reason`.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"uvmsim/internal/lint"
	"uvmsim/internal/lint/eventseq"
	"uvmsim/internal/lint/floatdet"
	"uvmsim/internal/lint/goroleak"
	"uvmsim/internal/lint/hotalloc"
	"uvmsim/internal/lint/lockhold"
	"uvmsim/internal/lint/maporder"
	"uvmsim/internal/lint/satarith"
	"uvmsim/internal/lint/seedflow"
	"uvmsim/internal/lint/statsowner"
	"uvmsim/internal/lint/wallclock"
)

// analyzers is the full suite in output order. New analyzers register
// here and in DESIGN.md §11/§15.
func analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		eventseq.Analyzer,
		floatdet.Analyzer,
		goroleak.Analyzer,
		hotalloc.Analyzer,
		lockhold.Analyzer,
		maporder.Analyzer,
		satarith.Analyzer,
		seedflow.Analyzer,
		statsowner.Analyzer,
		wallclock.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// run is the testable entry point: args are the command-line arguments,
// dir is the directory go list resolves patterns against.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fix := fs.Bool("fix", false, "apply suggested fixes, rewriting files in place")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: simlint [-list] [-only name,name] [-fix] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analyzers()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "simlint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		suite = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	diags := lint.RunAnalyzers(pkgs, suite)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if *fix {
		if err := applyFixes(diags, stdout); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// applyFixes rewrites, in place, every file with suggested edits.
// Files are visited in sorted order so the rewrite report is
// deterministic.
func applyFixes(diags []lint.Diagnostic, stdout io.Writer) error {
	byFile := lint.EditsByFile(diags)
	names := make([]string, 0, len(byFile))
	for name := range byFile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		fixed, err := lint.ApplyEdits(src, byFile[name])
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if bytes.Equal(src, fixed) {
			continue
		}
		if err := os.WriteFile(name, fixed, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "simlint: rewrote %s\n", name)
	}
	return nil
}
