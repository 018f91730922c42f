package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"demandrace/internal/obs/tracectx"
	"demandrace/internal/tenant"
)

// Options is the client-side timeout/retry policy, shared by everything
// that calls a ddserved node over HTTP: `ddrace -submit`, the ddgate
// gateway's per-backend forwards, and the gateway's stats aggregation.
// It lives here — next to the Client — so retry behavior has exactly one
// implementation.
//
// The zero value means "one attempt, no per-attempt deadline", which is
// the pre-Options behavior.
type Options struct {
	// Timeout bounds each individual attempt (0 = no per-attempt bound;
	// the caller's context still applies).
	Timeout time.Duration
	// Retries is the number of extra attempts after the first when an
	// attempt fails transiently (0 = fail fast).
	Retries int
	// Backoff is the delay before the first retry, doubling per retry
	// with ±50% jitter (default 100ms when Retries > 0).
	Backoff time.Duration
}

// BackoffFor returns the jittered delay before retry attempt (0-based):
// base<<attempt, scaled by a random factor in [0.5, 1.5). Jitter is
// wall-clock operational behavior, so math/rand is fine here — nothing in
// the retry path feeds deterministic exports.
func (o Options) BackoffFor(attempt int) time.Duration {
	base := o.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if attempt > 10 {
		attempt = 10 // cap the doubling well short of overflow
	}
	d := base << uint(attempt)
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Sleep waits out BackoffFor(attempt), honoring a floor (e.g. an upstream
// Retry-After) and ctx cancellation.
func (o Options) Sleep(ctx context.Context, attempt int, floor time.Duration) error {
	d := o.BackoffFor(attempt)
	if floor > d {
		d = floor
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retryable reports whether an attempt outcome warrants another try:
// transport errors (when the caller's context is still live) and the
// upstream-overload status codes. 429 is retryable from a client's point
// of view — the queue will drain — which is why the returned APIError
// carries Retry-After for Sleep's floor.
func (o Options) Retryable(ctx context.Context, err error, status int) bool {
	if err != nil {
		return ctx.Err() == nil
	}
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Client talks to a ddserved daemon or a ddgate gateway — the API surface
// is identical, so the same client works against either. The zero value
// is not usable; set BaseURL (e.g. "http://127.0.0.1:8318").
type Client struct {
	// BaseURL is the daemon's root URL, without a trailing slash.
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Options is the timeout/retry policy for every call this client
	// makes. Retrying a submission is safe: jobs are content-addressed
	// and pure, so a duplicate submit is at worst a cache hit.
	Options Options
	// APIKey, when set, is sent as X-API-Key on every request. Required
	// against daemons running with -tenants; ignored otherwise.
	APIKey string
}

// APIError is a non-2xx daemon response.
type APIError struct {
	Code    int
	Message string
	// RetryAfter echoes the Retry-After header on 429/503 (seconds, 0 if
	// absent), so callers can implement backoff.
	RetryAfter int
	// Tenant echoes the X-DD-Tenant header a multi-tenant daemon stamps
	// on its answers — on a 429 it names whose admission budget ran out.
	Tenant string
}

func (e *APIError) Error() string {
	// Surface the server's pacing hint in the message itself: when a 413
	// or 429 bubbles all the way to a user, "retry after Ns" is the
	// actionable part — and under -tenants, whose budget it was.
	if e.Code == http.StatusTooManyRequests && e.Tenant != "" {
		return fmt.Sprintf("service: daemon returned %d for tenant %q: %s (retry after %ds)",
			e.Code, e.Tenant, e.Message, e.RetryAfter)
	}
	if e.RetryAfter > 0 {
		return fmt.Sprintf("service: daemon returned %d: %s (retry after %ds)",
			e.Code, e.Message, e.RetryAfter)
	}
	return fmt.Sprintf("service: daemon returned %d: %s", e.Code, e.Message)
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// reply is one fully-read HTTP response.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// err maps a non-2xx reply onto an *APIError.
func (r reply) err() error {
	var body struct {
		Error string `json:"error"`
	}
	json.Unmarshal(r.body, &body)
	if body.Error == "" {
		body.Error = http.StatusText(r.status)
	}
	return &APIError{
		Code:       r.status,
		Message:    body.Error,
		RetryAfter: retryAfterSeconds(r.header),
		Tenant:     r.header.Get("X-DD-Tenant"),
	}
}

// retryAfterSeconds parses a Retry-After header, which HTTP allows in two
// forms: delta-seconds ("2") or an HTTP-date ("Mon, 02 Jan 2006 15:04:05
// GMT"). Dates become the whole seconds remaining until that instant,
// rounded up so a sub-second wait still registers; past dates and
// unparseable values yield 0.
func retryAfterSeconds(h http.Header) int {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if n, err := strconv.Atoi(v); err == nil {
		if n < 0 {
			return 0
		}
		return n
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t)
		if d <= 0 {
			return 0
		}
		return int((d + time.Second - 1) / time.Second)
	}
	return 0
}

// roundTrip issues build's request under the client's Options: each
// attempt gets its own per-attempt deadline, transient failures back off
// (honoring Retry-After) and retry, and the final response is returned
// fully read. build is called once per attempt so request bodies replay.
func (c *Client) roundTrip(ctx context.Context, build func(ctx context.Context) (*http.Request, error)) (reply, error) {
	var (
		last    reply
		lastErr error
	)
	for attempt := 0; ; attempt++ {
		last, lastErr = c.attempt(ctx, build)
		if lastErr == nil && last.status < 300 {
			return last, nil
		}
		if attempt >= c.Options.Retries || !c.Options.Retryable(ctx, lastErr, last.status) {
			break
		}
		floor := time.Duration(retryAfterSeconds(last.header)) * time.Second
		if err := c.Options.Sleep(ctx, attempt, floor); err != nil {
			break
		}
	}
	if lastErr != nil {
		return reply{}, lastErr
	}
	return last, last.err()
}

// attempt performs one request/response cycle, reading the body in full.
func (c *Client) attempt(ctx context.Context, build func(ctx context.Context) (*http.Request, error)) (reply, error) {
	actx := ctx
	cancel := func() {}
	if c.Options.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.Options.Timeout)
	}
	defer cancel()
	req, err := build(actx)
	if err != nil {
		return reply{}, err
	}
	if c.APIKey != "" {
		req.Header.Set(tenant.HeaderAPIKey, c.APIKey)
	}
	// Propagate the caller's trace context, one child span per attempt, so
	// retries are distinguishable hops under the same trace ID.
	if tc, ok := tracectx.From(ctx); ok {
		req.Header.Set(tracectx.Header, tc.Child().String())
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("service: reading daemon response: %w", err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// doStatus runs a request whose success body is a Status document.
func (c *Client) doStatus(ctx context.Context, build func(ctx context.Context) (*http.Request, error)) (Status, error) {
	r, err := c.roundTrip(ctx, build)
	if err != nil {
		return Status{}, err
	}
	var st Status
	if err := json.Unmarshal(r.body, &st); err != nil {
		return Status{}, fmt.Errorf("service: decoding daemon response: %w", err)
	}
	return st, nil
}

// Submit posts a kernel-analysis request.
func (c *Client) Submit(ctx context.Context, r Request) (Status, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return Status{}, err
	}
	return c.doStatus(ctx, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
}

// SubmitTrace posts a binary trace for offline replay. The trace is read
// into memory up front so retries can replay the body.
func (c *Client) SubmitTrace(ctx context.Context, tr io.Reader, opts TraceOptions) (Status, error) {
	raw, err := io.ReadAll(tr)
	if err != nil {
		return Status{}, fmt.Errorf("service: reading trace: %w", err)
	}
	u := c.BaseURL + "/v1/jobs"
	if q := traceOptionsQuery(opts); q != "" {
		u += "?" + q
	}
	return c.doStatus(ctx, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", TraceContentType)
		return req, nil
	})
}

// get builds a plain GET against path (already escaped).
func (c *Client) get(path string) func(ctx context.Context) (*http.Request, error) {
	return func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	}
}

// Result fetches a done job's result JSON.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	r, err := c.roundTrip(ctx, c.get("/v1/results/"+url.PathEscape(id)))
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, r.err()
	}
	return r.body, nil
}

// JobTrace fetches a job's recorded waterfall — the Chrome trace-event
// JSON served at GET /v1/jobs/{id}/trace — as raw bytes, ready to save
// for chrome://tracing or Perfetto.
func (c *Client) JobTrace(ctx context.Context, id string) ([]byte, error) {
	r, err := c.roundTrip(ctx, c.get("/v1/jobs/"+url.PathEscape(id)+"/trace"))
	if err != nil {
		return nil, err
	}
	return r.body, nil
}

// Wait long-polls until the job reaches a terminal state or ctx expires.
// Each GET /v1/jobs/{id}?wait= is held by the daemon until the job ends
// or the daemon's bound passes; the next one goes out at once, so the
// answer arrives as soon as the job ends. The wait asked for is the
// daemon's bound, or half of Options.Timeout when that is shorter, so an
// attempt is never cut by its own deadline.
func (c *Client) Wait(ctx context.Context, id string) (Status, error) {
	wait := maxWait
	if t := c.Options.Timeout; t > 0 && t/2 < wait {
		wait = t / 2
	}
	poll := c.get("/v1/jobs/" + url.PathEscape(id) + "?wait=" + wait.String())
	for {
		st, err := c.doStatus(ctx, poll)
		if err != nil || st.State.Terminal() {
			return st, err
		}
	}
}

// Run submits a request, waits for completion, and fetches the result —
// the whole ddrace -submit round trip. A failed or canceled job returns
// its terminal Status alongside the error.
func (c *Client) Run(ctx context.Context, r Request) ([]byte, Status, error) {
	st, err := c.Submit(ctx, r)
	if err != nil {
		return nil, st, err
	}
	// A cache hit is born done: only a queued job needs waiting for.
	if !st.State.Terminal() {
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return nil, st, err
		}
	}
	if st.State != StateDone {
		return nil, st, fmt.Errorf("service: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	data, err := c.Result(ctx, st.ID)
	return data, st, err
}
