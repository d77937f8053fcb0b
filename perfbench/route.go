package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/serve"
)

// routeClients is route-closed's closed-loop client count: one per core of
// the two-core machines the benchmark is sized for.
const routeClients = 2

// readEvery makes every readEvery-th route-closed op a read of an earlier
// reply, alternating GET /logs?request=<id> and GET /traces/<id>.
const readEvery = 20

// inProcess prefixes request URLs; the in-process transport ignores scheme
// and host.
const inProcess = "http://in-process"

var (
	paperSizes = []int{5, 10, 20, 30}
	routeAlgos = []string{serve.AlgoLDRG, serve.AlgoTaps, serve.AlgoH3}
)

// routeOp is one route-closed op: a POST /route of request req or, when
// read is "logs" or "traces", a read of what op of's reply points to.
type routeOp struct {
	req  int
	read string
	of   int
}

// routeList is route-closed's op list and the distinct requests it sends.
type routeList struct {
	reqs []serve.RouteRequest
	ops  []routeOp
}

// routeClosedOps generates route-closed's op list from seed: ldrg, taps and
// h3, with default options and the Elmore oracle, on netsPerSize nets of
// each paper size, sent in seeded shuffles until there are n ops.
func routeClosedOps(seed int64, netsPerSize, n int) (routeList, error) {
	var l routeList
	gen := netlist.NewGenerator(seed)
	for _, size := range paperSizes {
		for k := 0; k < netsPerSize; k++ {
			net, err := gen.Generate(size)
			if err != nil {
				return l, err
			}
			net.Name = fmt.Sprintf("net%d-%d", size, k)
			for _, algo := range routeAlgos {
				l.reqs = append(l.reqs, serve.RouteRequest{Net: net, RouteOptions: serve.RouteOptions{Algo: algo}})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var perm []int
	for i := 0; i < n; i++ {
		if i%readEvery == readEvery-1 {
			kind := "logs"
			if i/readEvery%2 == 1 {
				kind = "traces"
			}
			// Ops 4 to 8 back are route ops whose traces are still retained.
			l.ops = append(l.ops, routeOp{req: -1, read: kind, of: i - 4 - rng.Intn(5)})
			continue
		}
		if len(perm) == 0 {
			perm = rng.Perm(len(l.reqs))
		}
		l.ops = append(l.ops, routeOp{req: perm[0]})
		perm = perm[1:]
	}
	return l, nil
}

// routeClosed drives an in-process daemon.
type routeClosed struct {
	list   routeList
	srv    *serve.Server
	client *http.Client
	bodies [][]byte
	// refs holds serve.Run's result for each request; every reply must
	// equal it.
	refs []*serve.RouteResult
	// seedCost is the MST wirelength of each request's net.
	seedCost []float64
}

// newRouteClosed builds the server, marshals the requests, computes the
// reference results, and warms up on the first warmUp ops.
func newRouteClosed(l routeList, warmUp int) (*routeClosed, error) {
	srv := serve.New(serve.Options{})
	r := &routeClosed{list: l, srv: srv, client: &http.Client{Transport: srv.InProcessTransport()}}
	for _, req := range l.reqs {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		ref, err := serve.Run(req.Net, req.RouteOptions, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %s on %s: %w", req.Algo, req.Net.Name, err)
		}
		seed, err := mst.Prim(req.Net.Pins)
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, body)
		r.refs = append(r.refs, ref)
		r.seedCost = append(r.seedCost, seed.Cost())
	}
	warm := l.ops[:min(warmUp, len(l.ops))]
	if p := r.replay(warm, passOrder(len(warm), readEvery, 0), nil); p.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d ops failed, the first: %w", p.failed, p.err)
	}
	return r, nil
}

// pass visits the op list in blocks of readEvery ops, so each read stays
// after the route op it reads.
func (r *routeClosed) pass(p int, tr *tracer) passResult {
	return r.replay(r.list.ops, passOrder(len(r.list.ops), readEvery, p), tr)
}

func (r *routeClosed) registries() (search, measure *obs.Registry) { return r.srv.Metrics(), nil }

// quality averages over the route ops. Every reply must equal its
// reference, so the references' ratios are the replies'.
func (r *routeClosed) quality() (delay, cost float64) {
	n := 0
	for _, op := range r.list.ops {
		if op.read != "" {
			continue
		}
		ref := r.refs[op.req]
		delay += ref.FinalObjective / ref.InitialObjective
		cost += wirelength(ref) / r.seedCost[op.req]
		n++
	}
	return delay / float64(n), cost / float64(n)
}

// reply is what later reads need from a route op's reply.
type reply struct {
	requestID, traceID string
	events             int
}

// replay sends ops, in order, from routeClients closed-loop clients; each
// takes the next unsent op once its previous one has completed.
func (r *routeClosed) replay(ops []routeOp, order []int, tr *tracer) passResult {
	n := len(ops)
	lat := make([]float64, n)
	errs := make([]error, n)
	replies := make([]reply, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < routeClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				i := order[k]
				op := ops[i]
				if op.read != "" {
					<-done[op.of]
				}
				start := time.Now()
				if op.read != "" {
					errs[i] = r.read(op, replies[op.of])
					tr.span(i, "read", "", start)
				} else {
					replies[i], errs[i] = r.route(op, tr)
					tr.span(i, "route", "", start)
				}
				lat[i] = msSince(start)
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return collect(lat, errs)
}

// route POSTs one request and checks the reply against serve.Run's result.
func (r *routeClosed) route(op routeOp, tr *tracer) (reply, error) {
	req := r.list.reqs[op.req]
	start := time.Now()
	resp, err := r.client.Post(inProcess+"/route", "application/json", bytes.NewReader(r.bodies[op.req]))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	var rr serve.RouteResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	clientMs := msSince(start)
	if err != nil || resp.StatusCode != http.StatusOK || rr.RouteResult == nil || rr.Phases == nil {
		return reply{}, fmt.Errorf("POST /route %s on %s: status %d, decoding: %v", req.Algo, req.Net.Name, resp.StatusCode, err)
	}
	rep := reply{rr.RequestID, rr.TraceID, rr.TraceEvents}
	if err := sameRoute(rr.RouteResult, r.refs[op.req]); err != nil {
		return rep, fmt.Errorf("POST /route %s on %s (%s): %w", req.Algo, req.Net.Name, rr.RequestID, err)
	}
	p := rr.Phases
	tr.observe("serve.queue", p.QueueSeconds*1e3)
	tr.observe("serve.decode", p.DecodeSeconds*1e3)
	tr.observe("serve.sweep", p.SweepSeconds*1e3)
	tr.observe("serve.oracle", p.OracleSeconds*1e3)
	tr.observe("serve.store", p.StoreSeconds*1e3)
	tr.observe("serve.reply", clientMs-p.TotalSeconds*1e3)
	tr.observe("serve.trace_events", float64(rr.TraceEvents))
	return rep, nil
}

// sameRoute reports how a reply differs from serve.Run's result.
func sameRoute(got, want *serve.RouteResult) error {
	switch {
	case math.Float64bits(got.FinalObjective) != math.Float64bits(want.FinalObjective):
		return fmt.Errorf("final_objective %x, serve.Run gives %x", got.FinalObjective, want.FinalObjective)
	case !slices.Equal(got.AddedEdges, want.AddedEdges):
		return fmt.Errorf("added_edges %v, serve.Run gives %v", got.AddedEdges, want.AddedEdges)
	case !reflect.DeepEqual(got, want):
		return fmt.Errorf("reply differs from serve.Run's result")
	}
	return nil
}

// read fetches the wide event or the trace of an earlier reply and checks
// that it belongs to that reply.
func (r *routeClosed) read(op routeOp, of reply) error {
	url := inProcess + "/logs?request=" + of.requestID
	if op.read == "traces" {
		url = inProcess + "/traces/" + of.traceID
	}
	resp, err := r.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d, reading: %v", url, resp.StatusCode, err)
	}
	if op.read == "traces" {
		if lines := bytes.Count(body, []byte("\n")); lines != of.events {
			return fmt.Errorf("GET %s: %d events, the reply counted %d", url, lines, of.events)
		}
		return nil
	}
	var ev struct {
		RequestID string `json:"request_id"`
		TraceID   string `json:"trace_id"`
		Outcome   string `json:"outcome"`
	}
	if err := json.Unmarshal(body, &ev); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	if ev.RequestID != of.requestID || ev.TraceID != of.traceID || ev.Outcome != "ok" {
		return fmt.Errorf("GET %s: event %+v does not match the reply", url, ev)
	}
	return nil
}

// wirelength is the reply topology's Manhattan wirelength, summed in edge
// order as graph.Topology.Cost sums it.
func wirelength(res *serve.RouteResult) float64 {
	var sum float64
	for _, e := range res.Edges {
		u, v := res.Nodes[e.U], res.Nodes[e.V]
		sum += math.Abs(u.X-v.X) + math.Abs(u.Y-v.Y)
	}
	return sum
}
