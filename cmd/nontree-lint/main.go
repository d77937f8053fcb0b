// Command nontree-lint is the repository's multichecker: it runs the
// custom analyzers that mechanically enforce the determinism contracts of
// DESIGN.md §7–§8.
//
// Usage:
//
//	go run ./cmd/nontree-lint ./...
//
// The exit status is 0 when every analyzer is clean, 1 when diagnostics
// were reported, and 2 on operational failure (unparseable or untypeable
// source, bad patterns). CI gates every PR on a clean run.
//
// Analyzers (the roster lives in internal/analysis/registry):
//
//	detordering   map iteration feeding order-sensitive computation
//	floatcmp      ==/!= on floating-point delay and score values
//	lockguard     //nontree:guardedby fields accessed without the mutex
//	nondetsource  wall clocks, math/rand, GOMAXPROCS-dependent logic
//	obsnames      metric names outside the internal/obs catalog
//
// lockguard is flow-sensitive: it runs a forward dataflow over the
// internal/analysis/cfg basic-block graph (DESIGN.md §13). detordering
// and nondetsource share one scope, analysis.DeterministicScope: every
// package a deterministic result can reach, so each nondeterminism source
// is reported where it is born rather than where its value escapes. Two
// contracts are guarded by the code rather than by lint (DESIGN.md §14):
// the incremental evaluator returns elmore.ErrStale when a probe no
// longer matches the topology it adopted, and the race tests run every
// oracle and objective concurrently on one shared receiver.
//
// Findings are suppressed only by a justified annotation:
//
//	//nontree:allow <analyzer> <justification>
//
// placed on the flagged line or the line above it (for detordering, the
// loop's `for` line also works). See DESIGN.md §8 for the sanctioned
// exemptions. -staleallow additionally reports annotations that no longer
// suppress anything (and exits 1), keeping the exemption inventory honest.
//
// Machine-readable output: -json emits one JSON object on stdout with
// every diagnostic (including suppressed ones, flagged "suppressed":
// true) and every stale allow; -annotations emits GitHub Actions
// ::error workflow commands so findings surface inline on pull-request
// diffs. Both replace the plain-text diagnostic listing. A wall-clock
// timing line goes to stderr either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nontree/internal/analysis"
	"nontree/internal/analysis/registry"
)

// Analyzers is the suite the multichecker runs, in report order.
var Analyzers = registry.Analyzers()

// jsonDiag is one diagnostic in -json output.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
}

// jsonStale is one stale //nontree:allow in -json output.
type jsonStale struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
}

// jsonReport is the -json output document.
type jsonReport struct {
	Diagnostics []jsonDiag  `json:"diagnostics"`
	StaleAllows []jsonStale `json:"stale_allows"`
	Packages    int         `json:"packages"`
	Analyzers   []string    `json:"analyzers"`
}

func toJSONDiag(d analysis.Diagnostic, suppressed bool) jsonDiag {
	return jsonDiag{
		File:       d.Pos.Filename,
		Line:       d.Pos.Line,
		Col:        d.Pos.Column,
		Analyzer:   d.Analyzer,
		Message:    d.Message,
		Suppressed: suppressed,
	}
}

// emitAnnotations writes GitHub Actions workflow commands for every
// unsuppressed diagnostic and stale allow. Newlines and the command
// metacharacters are escaped per the workflow-command grammar.
func emitAnnotations(w io.Writer, res analysis.Result) {
	esc := func(s string, property bool) string {
		var out []byte
		for _, r := range s {
			switch r {
			case '%':
				out = append(out, "%25"...)
			case '\r':
				out = append(out, "%0D"...)
			case '\n':
				out = append(out, "%0A"...)
			case ':':
				if property {
					out = append(out, "%3A"...)
					continue
				}
				out = append(out, byte(r))
			case ',':
				if property {
					out = append(out, "%2C"...)
					continue
				}
				out = append(out, byte(r))
			default:
				out = append(out, string(r)...)
			}
		}
		return string(out)
	}
	for _, d := range res.Diags {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=%s::%s\n",
			esc(d.Pos.Filename, true), d.Pos.Line, d.Pos.Column,
			esc(d.Analyzer, true), esc(d.Message, false))
	}
	for _, s := range res.Stale {
		fmt.Fprintf(w, "::error file=%s,line=%d,title=stale-allow::%s\n",
			esc(s.File, true), s.Line,
			esc(fmt.Sprintf("stale //nontree:allow %s: %s", s.Analyzer, s.Reason), false))
	}
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	staleallow := flag.Bool("staleallow", false, "also report //nontree:allow annotations that no longer suppress anything")
	jsonOut := flag.Bool("json", false, "emit one JSON document (diagnostics incl. suppressed, stale allows) instead of text")
	annotations := flag.Bool("annotations", false, "emit GitHub Actions ::error workflow commands instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: nontree-lint [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range Analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diagSink := io.Writer(os.Stdout)
	if *jsonOut || *annotations {
		diagSink = io.Discard // structured output replaces the text listing
	}
	start := time.Now()
	res, err := analysis.RunAudit(diagSink, "", Analyzers, patterns...)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nontree-lint:", err)
		os.Exit(2)
	}
	if !*staleallow {
		res.Stale = nil
	}

	switch {
	case *jsonOut:
		report := jsonReport{
			Diagnostics: []jsonDiag{},
			StaleAllows: []jsonStale{},
			Packages:    res.Packages,
		}
		for _, a := range Analyzers {
			report.Analyzers = append(report.Analyzers, a.Name)
		}
		for _, d := range res.Diags {
			report.Diagnostics = append(report.Diagnostics, toJSONDiag(d, false))
		}
		for _, d := range res.Suppressed {
			report.Diagnostics = append(report.Diagnostics, toJSONDiag(d, true))
		}
		for _, s := range res.Stale {
			report.StaleAllows = append(report.StaleAllows, jsonStale{
				File: s.File, Line: s.Line, Analyzer: s.Analyzer, Reason: s.Reason,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "nontree-lint:", err)
			os.Exit(2)
		}
	case *annotations:
		emitAnnotations(os.Stdout, res)
	default:
		for _, s := range res.Stale {
			fmt.Println(s.String())
		}
	}

	fmt.Fprintf(os.Stderr, "nontree-lint: %d analyzer(s) over %d package(s) in %s\n",
		len(Analyzers), res.Packages, elapsed.Round(time.Millisecond))
	if len(res.Diags) > 0 || len(res.Stale) > 0 {
		fmt.Fprintf(os.Stderr, "nontree-lint: %d finding(s), %d stale allow(s)\n", len(res.Diags), len(res.Stale))
		os.Exit(1)
	}
}
