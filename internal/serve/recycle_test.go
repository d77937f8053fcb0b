package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// inProcessRoute POSTs body through client and returns the decoded reply.
func inProcessRoute(client *http.Client, body []byte) (RouteResponse, error) {
	var out RouteResponse
	resp, err := client.Post("http://nontree/route", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("POST /route: status %d, %v: %s", resp.StatusCode, err, raw)
	}
	return out, json.Unmarshal(raw, &out)
}

// TestRouteSteadyStateOpensNoChunk: once more requests than MaxTraces have
// run, every eviction refills the free list, so a 10-pin /route runs its
// trace on recycled chunks and opens none.
func TestRouteSteadyStateOpensNoChunk(t *testing.T) {
	const maxTraces = 4
	s := New(Options{MaxTraces: maxTraces})
	client := &http.Client{Transport: s.InProcessTransport()}
	body, err := json.Marshal(RouteRequest{Net: testNet(t, 7, 10), RouteOptions: RouteOptions{Algo: AlgoLDRG}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxTraces+2; i++ {
		if _, err := inProcessRoute(client, body); err != nil {
			t.Fatal(err)
		}
	}
	before := s.chunks.Opened()
	if before == 0 {
		t.Fatal("warm-up opened no chunk: the requests were not traced through the pool")
	}
	for i := 0; i < 3; i++ {
		if out, err := inProcessRoute(client, body); err != nil || out.TraceEvents == 0 {
			t.Fatalf("steady-state request: %v, %d trace events", err, out.TraceEvents)
		}
	}
	if n := s.chunks.Opened() - before; n != 0 {
		t.Fatalf("three steady-state 10-pin requests opened %d ring chunks, want 0", n)
	}
}

// TestTraceReadsRaceEvictions: with MaxTraces 2, reads of /traces/<id>
// race the evictions that recycle the traces' chunks into later requests'
// rings. Every read must be byte-identical to the full read taken while
// the trace was surely retained, or a 404: never a mix of recycled slots.
// Run under -race, it also checks the release against the encode.
func TestTraceReadsRaceEvictions(t *testing.T) {
	s := New(Options{MaxTraces: 2})
	client := &http.Client{Transport: s.InProcessTransport()}
	var bodies [][]byte
	for i, pins := range []int{10, 20, 6} {
		b, err := json.Marshal(RouteRequest{Net: testNet(t, int64(i+1), pins), RouteOptions: RouteOptions{Algo: AlgoTaps}})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	read := func(id string) (int, []byte) {
		resp, err := client.Get("http://nontree/traces/" + id)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	const routes = 24
	var (
		mu    sync.Mutex
		full  = map[string][]byte{} // trace id → its read while retained
		ids   []string
		done  = make(chan struct{})
		wg    sync.WaitGroup
		reads int
	)
	wg.Add(1)
	go func() {
		// The only writer: its trace stays retained until its next POST.
		defer wg.Done()
		defer close(done)
		for i := 0; i < routes; i++ {
			out, err := inProcessRoute(client, bodies[i%len(bodies)])
			if err != nil {
				t.Error(err)
				return
			}
			status, raw := read(out.TraceID)
			if status != http.StatusOK || bytes.Count(raw, []byte("\n")) != out.TraceEvents {
				t.Errorf("%s read while retained: status %d, %d lines, want 200 and %d",
					out.TraceID, status, bytes.Count(raw, []byte("\n")), out.TraceEvents)
				return
			}
			mu.Lock()
			full[out.TraceID] = raw
			ids = append(ids, out.TraceID)
			mu.Unlock()
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				if len(ids) == 0 {
					mu.Unlock()
					continue
				}
				id := ids[len(ids)-1-k%min(len(ids), 3)]
				want := full[id]
				reads++
				mu.Unlock()
				status, raw := read(id)
				switch {
				case status == http.StatusNotFound:
				case status != http.StatusOK:
					t.Errorf("GET /traces/%s: status %d", id, status)
				case !bytes.Equal(raw, want):
					t.Errorf("GET /traces/%s: %d bytes differ from the %d read while retained", id, len(raw), len(want))
				}
			}
		}()
	}
	wg.Wait()
	if reads == 0 {
		t.Fatal("no read raced the evictions")
	}
}
