package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abndp/internal/serve"
)

// proxySelf returns, per traced request, the time the proxy's handlers
// spent outside the backend handlers they called: the proxy spans of the
// request's route key within the request's lifetime, minus the backend
// spans of that key in the same window. Callers never share a key, so the
// spans of one window belong to one request.
func proxySelf(tr *tracer, records []opRecord) []float64 {
	byKey := map[string][]span{}
	for _, s := range tr.snapshot() {
		if s.Key != "" && !strings.HasPrefix(s.Name, "client") {
			byKey[s.Key] = append(byKey[s.Key], s)
		}
	}
	var out []float64
	for _, rec := range records {
		from := rec.start.Sub(tr.t0).Microseconds()
		to := from + rec.lat.Microseconds()
		var proxy, backend int64
		for _, s := range byKey[rec.key] {
			if s.Start < from || s.Start+s.Dur > to {
				continue
			}
			if strings.HasPrefix(s.Name, "proxy ") {
				proxy += s.Dur
			} else {
				backend += s.Dur
			}
		}
		if proxy > 0 {
			out = append(out, float64(proxy-backend)/1e3)
		}
	}
	return out
}

// opKeyCtx carries a request's route key from the caller to the traced
// transport.
type opKeyCtx struct{}

// wireTrace records spans at the HTTP boundaries of fleet-mix: the client
// transport, the proxy handler and each backend handler. Spans are keyed
// by the request's route key; handlers learn it from the submit body and
// from the run IDs their submit responses hand out.
type wireTrace struct {
	tr  atomic.Pointer[tracer] // nil: pass through
	mu  sync.Mutex
	ids map[string]string // tier + "/" + run ID -> route key
}

// wrap returns h with a span recorded around every /v1/runs call while a
// tracer is installed. A nil wireTrace returns h itself.
func (w *wireTrace) wrap(tier string, h http.Handler) http.Handler {
	if w == nil {
		return h
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil || !strings.HasPrefix(r.URL.Path, "/v1/runs") {
			h.ServeHTTP(rw, r)
			return
		}
		var key string
		var rec *recorder
		name := tier + " " + r.Method + " /v1/runs"
		if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var req serve.RunRequest
				if json.Unmarshal(body, &req) == nil {
					key = serve.RouteKey(&req)
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			rec = &recorder{ResponseWriter: rw}
			rw = rec
		} else {
			name += "/{id}"
			w.mu.Lock()
			key = w.ids[tier+"/"+strings.TrimPrefix(r.URL.Path, "/v1/runs/")]
			w.mu.Unlock()
		}
		start := time.Now()
		h.ServeHTTP(rw, r)
		dur := time.Since(start)
		if rec != nil && key != "" {
			var st serve.RunStatus
			if json.Unmarshal(rec.body.Bytes(), &st) == nil && st.ID != "" {
				w.mu.Lock()
				w.ids[tier+"/"+st.ID] = key
				w.mu.Unlock()
			}
		}
		tr.add(span{Op: -1, Name: name, Key: key}, start, dur)
	})
}

// recorder passes a response through while keeping a copy of its body.
type recorder struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (r *recorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

// tracedTransport records a span per client call.
type tracedTransport struct {
	base http.RoundTripper
	wire *wireTrace
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := t.wire.tr.Load()
	if tr == nil {
		return t.base.RoundTrip(r)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	name := "client " + r.Method + " /v1/runs"
	if r.Method == http.MethodGet {
		name += "/{id}"
	}
	key, _ := r.Context().Value(opKeyCtx{}).(string)
	tr.add(span{Op: -1, Name: name, Key: key}, start, time.Since(start))
	return resp, err
}

// CloseIdleConnections lets client.Client's http.Client close the pooled
// connections of the wrapped transport.
func (t *tracedTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}
