package cluster

// Streaming-ingest routing: the gateway face of internal/ingest's
// resumable upload sessions. A session is stateful and node-local —
// detector shadow state, the incremental decoder, and the chunk ledger all
// live on one backend — so the routing rule is the session-ID namespace:
// POST /v1/traces picks a backend (rotating over the ring so concurrent
// uploads spread) and returns its session ID namespaced "<backend>:<id>";
// every later chunk, status, commit, and partial call splits that prefix
// and goes to the owner with no failover. Retry-After and the typed
// 409/413 protocol errors relay untouched, so a client streaming through
// ddgate sees exactly the single-node protocol.

import (
	"fmt"
	"net/http"
)

// handleTraceOpen opens a session on a ring-chosen backend. The rotation
// key spreads concurrent uploads; failover is safe here because no state
// exists until some backend answers 201.
func (g *Gateway) handleTraceOpen(w http.ResponseWriter, r *http.Request) {
	// A session spends one edge admission token up front, same as a batch
	// POST; chunks then stream inside the already-admitted session.
	if _, ok := g.api.AdmitTenant(w, r); !ok {
		return
	}
	key := fmt.Sprintf("ingest-session-%d", g.sessionSeq.Add(1))
	up, ok := g.routeByKey(w, r, key, nil)
	if !ok {
		return
	}
	g.log.Info("ingest session routed", "backend", up.backend, "status", up.status)
	g.relay(w, up, true)
}

// handleTraceChunk forwards one chunk to the session's owner. No failover:
// the session exists on exactly one node, and a replayed body elsewhere
// could only 404.
func (g *Gateway) handleTraceChunk(w http.ResponseWriter, r *http.Request) {
	if body, ok := g.readBody(w, r); ok {
		g.proxyOwner(w, r, body)
	}
}
