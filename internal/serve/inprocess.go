package serve

import (
	"bytes"
	"net/http"
	"sync"

	"nontree/internal/scratch"
)

// InProcessTransport returns an http.RoundTripper that dispatches requests
// directly to the server's Handler without opening a socket — the hermetic
// in-process mode behind nontree-sim -inprocess and the sim package's
// tests. The request URL's scheme and host are ignored; everything else
// (path, query, body, headers) behaves exactly as over the wire, including
// the /route timeout wrapper and the concurrency limiter.
func (s *Server) InProcessTransport() http.RoundTripper {
	return inProcessTransport{s.Handler()}
}

type inProcessTransport struct {
	h http.Handler
}

// RoundTrip implements http.RoundTripper by running the handler inline and
// packaging its buffered output as a response. The output is buffered in
// storage taken from replyBuffers, which the response body returns there
// when it is closed.
func (t inProcessTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	buf := replyBuffers.Get()
	buf.Reset()
	rec := &bufferedResponse{header: make(http.Header), body: buf}
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	n := buf.Len()
	return &http.Response{
		Status:        http.StatusText(rec.code),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          &replyBody{buf: buf},
		ContentLength: int64(n),
		Request:       req,
	}, nil
}

// replyBuffers holds idle reply buffers, one slot per processor, so a
// client that closes each reply's body before it sends the next request
// reuses one buffer instead of growing a fresh one per reply.
var replyBuffers = scratch.New[bytes.Buffer]()

// maxKeptReply is the largest reply buffer, in bytes, that goes back to
// replyBuffers; a larger one, such as a long trace export's, is left to
// the collector rather than kept for the life of the process.
const maxKeptReply = 1 << 20

// replyBody is an in-process reply's body: it reads the reply out of a
// buffer from replyBuffers, which Close hands back. Read and Close may be
// called from different goroutines. After Close, Read fails with
// http.ErrBodyReadAfterClose and never reaches the buffer, which by then
// may hold another reply.
type replyBody struct {
	mu sync.Mutex
	// buf holds the reply's unread bytes, nil once the body is closed.
	//nontree:guardedby mu
	buf *bytes.Buffer
}

func (b *replyBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.buf.Read(p)
}

// Close returns the reply's buffer for reuse. Closing twice is a no-op.
func (b *replyBody) Close() error {
	b.mu.Lock()
	buf := b.buf
	b.buf = nil
	b.mu.Unlock()
	if buf != nil && buf.Cap() <= maxKeptReply {
		replyBuffers.Put(buf)
	}
	return nil
}

// bufferedResponse is a minimal in-memory http.ResponseWriter. Handlers
// behind http.TimeoutHandler only ever write to it from one goroutine (the
// timeout wrapper serializes the winner), so no locking is needed.
type bufferedResponse struct {
	header http.Header
	body   *bytes.Buffer
	code   int
}

func (r *bufferedResponse) Header() http.Header { return r.header }

func (r *bufferedResponse) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *bufferedResponse) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}
