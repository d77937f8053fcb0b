// Command spicesim builds the distributed RC(L) circuit of a routing
// topology and runs a transient step-response simulation, printing per-sink
// 50% delays and optionally dumping full waveforms as CSV.
//
// Usage:
//
//	spicesim -gen 10 -seed 7                     # MST of a random net
//	spicesim -gen 10 -algo ldrg -csv waves.csv   # waveforms of the LDRG graph
//	spicesim -net my.json -inductance -segment 250
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nontree"
	"nontree/internal/rc"
	"nontree/internal/spice"
	"nontree/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spicesim: ")

	var (
		netFile    = flag.String("net", "", "net file (JSON or text)")
		genPins    = flag.Int("gen", 0, "generate a random net with this many pins")
		seed       = flag.Int64("seed", 1, "random net seed")
		algo       = flag.String("algo", "mst", "topology: mst, steiner, ert, ldrg")
		segment    = flag.Float64("segment", rc.DefaultMaxSegment, "π-segment length (µm)")
		inductance = flag.Bool("inductance", false, "include wire inductance (RLC)")
		method     = flag.String("method", "trap", "integration: trap, be")
		csvOut     = flag.String("csv", "", "write sink waveforms as CSV here")
		deckOut    = flag.String("deck", "", "write a SPICE .cir deck of the circuit here (for external SPICE validation)")
		ac         = flag.Bool("ac", false, "also run an AC sweep and report each sink's -3dB bandwidth")
	)
	flag.Parse()

	if err := run(*netFile, *genPins, *seed, *algo, *segment, *inductance, *method, *csvOut, *deckOut, *ac); err != nil {
		log.Fatal(err)
	}
}

func run(netFile string, genPins int, seed int64, algo string, segment float64, inductance bool, method, csvOut, deckOut string, ac bool) error {
	var net *nontree.Net
	var err error
	switch {
	case netFile != "":
		f, err2 := os.Open(netFile)
		if err2 != nil {
			return err2
		}
		net, err = nontree.ReadNetJSON(f)
		f.Close()
	case genPins >= 2:
		net, err = nontree.GenerateNet(seed, genPins)
	default:
		return fmt.Errorf("need -net FILE or -gen N")
	}
	if err != nil {
		return err
	}

	params := nontree.DefaultParams()
	var topo *nontree.Topology
	switch algo {
	case "mst":
		topo, err = nontree.MST(net)
	case "steiner":
		topo, err = nontree.SteinerTree(net)
	case "ert":
		topo, err = nontree.ERT(net, params)
	case "ldrg":
		seedTopo, err2 := nontree.MST(net)
		if err2 != nil {
			return err2
		}
		res, err2 := nontree.LDRG(seedTopo, nontree.Config{})
		if err2 != nil {
			return err2
		}
		topo = res.Topology
	default:
		return fmt.Errorf("unknown topology %q", algo)
	}
	if err != nil {
		return err
	}

	cm, err := rc.BuildCircuit(topo, params, rc.BuildOpts{
		MaxSegmentLength:  segment,
		IncludeInductance: inductance,
	})
	if err != nil {
		return err
	}
	r, c, l, v, i := cm.Circuit.Counts()
	fmt.Printf("circuit: %d nodes, %dR %dC %dL %dV %dI\n", cm.Circuit.NumNodes(), r, c, l, v, i)

	mo := spice.DefaultMeasureOpts()
	switch method {
	case "trap":
	case "be":
		mo.Method = spice.BackwardEuler
	default:
		return fmt.Errorf("unknown integration method %q", method)
	}
	delays, err := spice.MeasureDelays(cm.Circuit, cm.SinkNodes, mo)
	if err != nil {
		return err
	}
	var worst float64
	for idx, d := range delays {
		fmt.Printf("  sink n%-3d  50%% delay %8.4f ns\n", idx+1, d*1e9)
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("max sink delay: %.4f ns; wirelength %.0f µm\n", worst*1e9, topo.Cost())

	if ac {
		// Bracket each sink's -3dB point around the rough single-pole
		// estimate f ≈ 0.35/t50 (within a factor of ~1000 either way).
		for idx, node := range cm.SinkNodes {
			guess := 0.35 / delays[idx]
			f3db, err := spice.Bandwidth3dB(cm.Circuit, node, guess/1000, guess*1000)
			if err != nil {
				return fmt.Errorf("AC sweep sink n%d: %w", idx+1, err)
			}
			fmt.Printf("  sink n%-3d  -3dB bandwidth %8.2f MHz\n", idx+1, f3db/1e6)
		}
	}

	if deckOut != "" {
		f, err := os.Create(deckOut)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("nontree %s routing, %d pins", algo, topo.NumPins())
		if err := spice.WriteDeck(f, cm.Circuit, title, worst/500, 4*worst); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", deckOut)
	}

	if csvOut != "" {
		horizon := 4 * worst
		tr, err := spice.Transient(cm.Circuit, spice.TranOpts{
			Step:   horizon / 2000,
			Stop:   horizon,
			Method: mo.Method,
			Record: true,
		})
		if err != nil {
			return err
		}
		series := map[string][]float64{}
		var order []string
		for idx, node := range cm.SinkNodes {
			label := fmt.Sprintf("sink_n%d", idx+1)
			series[label] = tr.V[node]
			order = append(order, label)
		}
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := viz.WaveformCSV(f, tr.Times, series, order); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d samples)\n", csvOut, len(tr.Times))
	}
	return nil
}
