package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// TestRouteAllocationPerRequest bounds what one /route request allocates
// with default Options. Trace rings grow with the events a run emits, so a
// 10-pin LDRG request must cost well under the 10 MB a preallocated
// DefaultTraceCapacity-event ring would.
func TestRouteAllocationPerRequest(t *testing.T) {
	body, err := json.Marshal(RouteRequest{Net: testNet(t, 7, 10), RouteOptions: RouteOptions{Algo: AlgoLDRG}})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: New(Options{}).InProcessTransport()}
	var failure error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := client.Post("http://nontree/route", "application/json", bytes.NewReader(body))
			if err != nil {
				failure = err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failure = fmt.Errorf("POST /route: status %d", resp.StatusCode)
				return
			}
		}
	})
	if failure != nil {
		t.Fatal(failure)
	}
	const limit = 1 << 20
	if got := res.AllocedBytesPerOp(); got >= limit {
		t.Fatalf("a /route request allocates %d bytes, want under %d", got, limit)
	}
}
