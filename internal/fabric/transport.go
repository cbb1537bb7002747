package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Transport is the worker's view of a coordinator: the four protocol
// exchanges. Local binds directly to an in-process Hub; HTTPTransport
// speaks the JSON protocol to a remote one; the fault-injection harness
// wraps either to inject worker loss, dropped responses, stalled
// heartbeats, and duplicate deliveries.
type Transport interface {
	Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error)
	Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error)
	Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
	Submit(ctx context.Context, req ResultRequest) (ResultResponse, error)
}

// Local is the in-process transport: direct method calls on a Hub. The
// multi-worker test harness and single-process "fabric mode" use it.
type Local struct {
	Hub *Hub
}

// Register implements Transport.
func (t Local) Register(_ context.Context, req RegisterRequest) (RegisterResponse, error) {
	return t.Hub.Register(req)
}

// Lease implements Transport.
func (t Local) Lease(_ context.Context, req LeaseRequest) (LeaseResponse, error) {
	return t.Hub.Lease(req)
}

// Heartbeat implements Transport.
func (t Local) Heartbeat(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return t.Hub.Heartbeat(req)
}

// Submit implements Transport.
func (t Local) Submit(_ context.Context, req ResultRequest) (ResultResponse, error) {
	return t.Hub.Result(req)
}

// HTTPTransport speaks the fabric JSON protocol to a remote coordinator.
type HTTPTransport struct {
	// Base is the coordinator's base URL, e.g. "http://127.0.0.1:8791".
	Base string
	// Client overrides http.DefaultClient when set.
	Client *http.Client
}

func (t *HTTPTransport) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fabric: encode %s: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(t.Base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	hresp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return fmt.Errorf("fabric: %s: %s: %s", path, hresp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(hresp.Body).Decode(resp)
}

// Register implements Transport.
func (t *HTTPTransport) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := t.post(ctx, "/fabric/v1/register", req, &resp)
	return resp, err
}

// Lease implements Transport.
func (t *HTTPTransport) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := t.post(ctx, "/fabric/v1/lease", req, &resp)
	return resp, err
}

// Heartbeat implements Transport.
func (t *HTTPTransport) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := t.post(ctx, "/fabric/v1/heartbeat", req, &resp)
	return resp, err
}

// Submit implements Transport.
func (t *HTTPTransport) Submit(ctx context.Context, req ResultRequest) (ResultResponse, error) {
	var resp ResultResponse
	err := t.post(ctx, "/fabric/v1/result", req, &resp)
	return resp, err
}

// Handler returns the coordinator's HTTP surface: the four protocol POSTs
// plus GET /fabric/v1/stats. Mount it on any mux (vlqserve serves it on
// the -fabric-listen address).
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/v1/register", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, r, func(req RegisterRequest) (RegisterResponse, error) { return h.Register(req) })
	})
	mux.HandleFunc("POST /fabric/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, r, func(req LeaseRequest) (LeaseResponse, error) { return h.Lease(req) })
	})
	mux.HandleFunc("POST /fabric/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, r, func(req HeartbeatRequest) (HeartbeatResponse, error) { return h.Heartbeat(req) })
	})
	mux.HandleFunc("POST /fabric/v1/result", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, r, func(req ResultRequest) (ResultResponse, error) { return h.Result(req) })
	})
	mux.HandleFunc("GET /fabric/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(h.Stats())
	})
	return mux
}

func serveJSON[Req, Resp any](w http.ResponseWriter, r *http.Request, fn func(Req) (Resp, error)) {
	var req Req
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := fn(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
