// Command tracereplay verifies an exported execution trace against a fresh
// run: it re-routes the same workload through the identical code path the
// daemon used and diffs the deterministic projections event by event. Zero
// drift certifies the trace (and the routing it describes) is reproducible;
// any drift exits non-zero with a per-event report.
//
// The workload comes either from a stored /route request (the daemon's
// /traces/<id>?request=1 provenance view) or from explicit flags:
//
//	tracereplay -trace run.jsonl -request request.json
//	tracereplay -trace run.jsonl -gen 10 -seed 7 -algo ldrg -workers 4
//	curl -s $HOST/traces/t000001 | tracereplay -trace - -request request.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"nontree/internal/netlist"
	"nontree/internal/serve"
	"nontree/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracereplay: ")
	if err := realMain(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// realMain is main minus the exit: it owns its flag set and reports drift
// as an error (main turns any error into a non-zero exit), so tests can
// drive full replays in-process.
func realMain(args []string) error {
	fs := flag.NewFlagSet("tracereplay", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "trace JSONL to verify (required; \"-\" reads stdin)")
		request   = fs.String("request", "", "stored /route request JSON (the daemon's ?request=1 view)")
		netFile   = fs.String("net", "", "net file (.json or text) to route")
		genPins   = fs.Int("gen", 0, "generate a random net with this many pins")
		seed      = fs.Int64("seed", 1, "seed for -gen")
		algo      = fs.String("algo", "", "algorithm: ldrg, sldrg, taps, h1, h2, h3 (default ldrg)")
		oracle    = fs.String("oracle", "", "oracle: elmore, twopole, spice (default elmore)")
		workers   = fs.Int("workers", 0, "sweep workers (0 = one per CPU; any value replays identically)")
		maxEdges  = fs.Int("maxedges", 0, "cap added edges (0 = to convergence)")
		quiet     = fs.Bool("q", false, "suppress the success summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *tracePath == "" {
		return fmt.Errorf("need -trace FILE (the exported JSONL)")
	}
	want, err := readTrace(*tracePath)
	if err != nil {
		return fmt.Errorf("reading trace: %w", err)
	}
	if len(want) == 0 {
		return fmt.Errorf("trace %s is empty", *tracePath)
	}

	req, err := loadRequest(*request, *netFile, *genPins, *seed, serve.RouteOptions{
		Algo: *algo, Oracle: *oracle, Workers: *workers, MaxEdges: *maxEdges,
	})
	if err != nil {
		return err
	}

	ring := trace.NewRing(len(want) + 1)
	res, err := serve.Run(req.Net, req.RouteOptions, nil, ring)
	if err != nil {
		return fmt.Errorf("replay run: %w", err)
	}
	got := ring.Events()
	if ring.Dropped() > 0 {
		// The fresh run emitted more events than the stored trace holds:
		// already proof of drift, but fall through for the detailed report.
		fmt.Fprintf(os.Stderr, "replay emitted %d more events than the stored trace\n", ring.Dropped())
	}

	if drifts := trace.Diff(got, want); len(drifts) != 0 {
		fmt.Fprintf(os.Stderr, "%s\n", trace.FormatDrifts(drifts))
		return fmt.Errorf("trace drift: %d events differ", len(drifts))
	}
	if !*quiet {
		fmt.Printf("replay ok: %d events, %d accepted edges, objective %.6g → %.6g\n",
			len(got), len(res.AddedEdges), res.InitialObjective, res.FinalObjective)
	}
	return nil
}

func readTrace(path string) ([]trace.Event, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.ReadJSONL(r)
}

// loadRequest resolves the workload: a stored request file wins; otherwise
// the explicit net/generator flags are combined with the option flags.
func loadRequest(requestPath, netFile string, genPins int, seed int64, opts serve.RouteOptions) (*serve.RouteRequest, error) {
	if requestPath != "" {
		if netFile != "" || genPins > 0 {
			return nil, fmt.Errorf("-request already carries the net; drop -net/-gen")
		}
		f, err := os.Open(requestPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// The daemon's own decoder, so a replay accepts exactly the bytes
		// /route does.
		req, err := serve.ReadRouteRequest(f)
		if err != nil {
			return nil, fmt.Errorf("decoding request %s: %w", requestPath, err)
		}
		if req.Net == nil {
			return nil, fmt.Errorf("request %s has no net", requestPath)
		}
		return &req, nil
	}

	var net *netlist.Net
	var err error
	switch {
	case netFile != "" && genPins > 0:
		return nil, fmt.Errorf("use either -net or -gen, not both")
	case netFile != "":
		f, err2 := os.Open(netFile)
		if err2 != nil {
			return nil, err2
		}
		defer f.Close()
		if strings.HasSuffix(netFile, ".json") {
			net, err = netlist.ReadJSON(f)
		} else {
			net, err = netlist.ReadText(f)
		}
	case genPins >= 2:
		net, err = netlist.NewGenerator(seed).Generate(genPins)
	default:
		return nil, fmt.Errorf("need -request FILE, -net FILE, or -gen N (N ≥ 2)")
	}
	if err != nil {
		return nil, err
	}
	return &serve.RouteRequest{Net: net, RouteOptions: opts}, nil
}
