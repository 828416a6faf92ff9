package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// Transport is the pluggable wire layer every node-to-node call goes
// through. The production implementation is HTTPTransport (per-request
// deadlines, bounded retries with backoff, per-peer circuit breaking);
// tests inject the deterministic fault-injecting transport from
// internal/node/chaos. A 404 reply surfaces as ErrNotFound so callers can
// distinguish absence from failure.
type Transport interface {
	GetJSON(ctx context.Context, url string, out any) error
	PostJSON(ctx context.Context, url string, in, out any) error
}

// ErrNotFound is returned by a Transport when the remote answered 404:
// the peer is healthy but the resource does not exist. It is never
// retried and never trips the circuit breaker.
var ErrNotFound = errNotFound

// ErrPeerDown is returned by HTTPTransport when a peer's circuit breaker
// is open: recent calls to it failed consecutively and the cooldown has
// not elapsed, so the call is refused without touching the network.
var ErrPeerDown = errors.New("node: peer circuit open")

// ErrShed is returned by a Transport when the remote answered 429: the
// peer is alive but deliberately shedding load. A shed is never retried
// against the same peer (the caller falls through the beacon → sibling
// → origin degradation chain instead), never trips the circuit breaker
// (the peer responded), and its Retry-After hint is honored: further
// calls to that peer fail fast with ErrShed until the hint elapses.
var ErrShed = errors.New("node: peer shedding load")

// peerShedError is a 429 reply (or a fail-fast repeat of one within its
// Retry-After window).
type peerShedError struct {
	url        string
	retryAfter time.Duration
}

func (e *peerShedError) Error() string {
	return fmt.Sprintf("node: %s: peer shedding load (retry after %v)", e.url, e.retryAfter)
}

// Is makes errors.Is(err, ErrShed) true for every *peerShedError.
func (e *peerShedError) Is(target error) bool { return target == ErrShed }

// ShedRetryAfter extracts the Retry-After hint from a transport shed
// error (ok is false for any other error).
func ShedRetryAfter(err error) (time.Duration, bool) {
	var se *peerShedError
	if errors.As(err, &se) {
		return se.retryAfter, true
	}
	return 0, false
}

// maxShedRetryAfter caps how long a peer's Retry-After hint can keep the
// fail-fast window open, so a bogus hint cannot poison a peer for long.
const maxShedRetryAfter = 2 * time.Second

// TransportOptions tunes HTTPTransport. The zero value selects the
// defaults noted on each field.
type TransportOptions struct {
	// RequestTimeout bounds each attempt (default 5s). Callers can impose
	// a tighter overall budget through the context.
	RequestTimeout time.Duration
	// MaxRetries is the number of re-attempts after the first failure
	// (default 2; 0 keeps the default, use NoRetries to disable).
	MaxRetries int
	// NoRetries disables retries entirely (single attempt per call).
	NoRetries bool
	// BackoffBase is the first retry delay (default 25ms); each further
	// retry doubles it up to BackoffMax (default 500ms), with ±50% jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the number of consecutive failures to one peer
	// that opens its circuit (default 4; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit refuses calls before
	// letting a probe through (default 1s).
	BreakerCooldown time.Duration
	// JitterSeed seeds the backoff jitter source; 0 derives a seed from
	// the wall clock. Fix it for reproducible retry schedules in tests.
	JitterSeed int64
	// OnBreakerOpen, when non-nil, is called each time a peer's circuit
	// transitions from closed to open (observability hook). It is invoked
	// outside the transport's lock and must be safe for concurrent use.
	OnBreakerOpen func(host string)
	// Clock is the time source for breaker cooldowns and retry backoffs
	// (nil selects the wall clock). Tests inject a manual clock to step
	// through cooldown windows without sleeping.
	Clock Clock
}

// breaker is the per-peer circuit state.
type breaker struct {
	fails    int       // consecutive failures
	openedAt time.Time // when the circuit opened (zero = closed)
	probing  bool      // a half-open probe is in flight
	// shedUntil is the end of the peer's Retry-After window: calls
	// before it fail fast with ErrShed instead of hitting a peer that
	// just said it is overloaded.
	shedUntil time.Time
}

// HTTPTransport is the production Transport: JSON over HTTP with
// per-request context deadlines, bounded retries with exponential backoff
// and jitter, and a per-peer circuit breaker keyed by URL host. Calls go
// straight to http.DefaultTransport's RoundTrip: node RPCs never
// redirect, so http.Client's redirect and header-copy machinery would be
// pure overhead.
type HTTPTransport struct {
	opts  TransportOptions
	rt    http.RoundTripper
	clock Clock

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[string]*breaker
}

// NewHTTPTransport builds the production transport.
func NewHTTPTransport(opts TransportOptions) *HTTPTransport {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 2
	}
	if opts.NoRetries {
		opts.MaxRetries = 0
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 25 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 500 * time.Millisecond
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 4
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = time.Second
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &HTTPTransport{
		opts:     opts,
		rt:       http.DefaultTransport,
		clock:    clockOrReal(opts.Clock),
		rng:      rand.New(rand.NewSource(seed)),
		breakers: make(map[string]*breaker),
	}
}

// GetJSON implements Transport.
func (t *HTTPTransport) GetJSON(ctx context.Context, url string, out any) error {
	return t.do(ctx, http.MethodGet, url, nil, out)
}

// PostJSON implements Transport.
func (t *HTTPTransport) PostJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("node: marshal %s: %w", url, err)
	}
	return t.do(ctx, http.MethodPost, url, body, out)
}

// do runs the retry loop around one logical call. The URL is parsed
// once: the breaker key is its host and every attempt reuses it.
func (t *HTTPTransport) do(ctx context.Context, method, rawurl string, body []byte, out any) error {
	u, err := url.Parse(rawurl)
	if err != nil {
		return fmt.Errorf("node: %s %s: %w", method, rawurl, err)
	}
	host := u.Host
	if host == "" {
		host = rawurl
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		switch err := t.admit(host); {
		case errors.Is(err, ErrShed):
			// The peer shed a recent call and its Retry-After window is
			// still open: fail fast without touching the network so the
			// caller can fall through the degradation chain.
			return err
		case err != nil:
			// An open circuit fails fast; it still counts as this
			// attempt's outcome so callers see a stable error.
			lastErr = fmt.Errorf("%w: %s", ErrPeerDown, host)
		default:
			err := doJSON(ctx, t.rt, method, rawurl, u, body, out, t.opts.RequestTimeout)
			if errors.Is(err, ErrShed) {
				// A shed is a deliberate, non-retryable refusal from a
				// live peer: remember its Retry-After window and count
				// the reply as the peer being up (never a breaker
				// failure — shedding must not amplify into retries or a
				// tripped circuit).
				if ra, ok := ShedRetryAfter(err); ok {
					t.noteShed(host, ra)
				}
				t.observe(host, true)
				return err
			}
			if err == nil || !retryable(err) {
				t.observe(host, err == nil || errors.Is(err, errNotFound))
				return err
			}
			t.observe(host, false)
			lastErr = err
		}
		if attempt >= t.opts.MaxRetries || ctx.Err() != nil {
			return lastErr
		}
		if err := t.sleep(ctx, attempt); err != nil {
			return lastErr
		}
	}
}

// noteShed records a peer's Retry-After window (capped) so subsequent
// calls fail fast until it elapses.
func (t *HTTPTransport) noteShed(host string, retryAfter time.Duration) {
	if retryAfter <= 0 {
		return
	}
	if retryAfter > maxShedRetryAfter {
		retryAfter = maxShedRetryAfter
	}
	t.mu.Lock()
	b := t.breakers[host]
	if b == nil {
		b = &breaker{}
		t.breakers[host] = b
	}
	until := t.clock.Now().Add(retryAfter)
	if until.After(b.shedUntil) {
		b.shedUntil = until
	}
	t.mu.Unlock()
}

// PeerShedding reports whether the peer's Retry-After window is open.
func (t *HTTPTransport) PeerShedding(baseURL string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.breakers[hostOf(baseURL)]
	return b != nil && b.shedUntil.After(t.clock.Now())
}

// admit consults the peer's shed window and circuit breaker; nil means
// the call may proceed.
func (t *HTTPTransport) admit(host string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.breakers[host]
	if b == nil {
		return nil
	}
	if remain := b.shedUntil.Sub(t.clock.Now()); remain > 0 {
		return &peerShedError{url: host, retryAfter: remain}
	}
	if t.opts.BreakerThreshold < 0 || b.openedAt.IsZero() {
		return nil
	}
	if t.clock.Since(b.openedAt) >= t.opts.BreakerCooldown && !b.probing {
		b.probing = true // half-open: let exactly one probe through
		return nil
	}
	return ErrPeerDown
}

// observe records a call outcome against the peer's breaker.
func (t *HTTPTransport) observe(host string, ok bool) {
	if t.opts.BreakerThreshold < 0 {
		return
	}
	t.mu.Lock()
	b := t.breakers[host]
	if b == nil {
		b = &breaker{}
		t.breakers[host] = b
	}
	opened := false
	if ok {
		b.fails = 0
		b.openedAt = time.Time{}
		b.probing = false
	} else {
		b.fails++
		b.probing = false
		if b.fails >= t.opts.BreakerThreshold {
			opened = b.openedAt.IsZero()
			b.openedAt = t.clock.Now()
		}
	}
	t.mu.Unlock()
	if opened && t.opts.OnBreakerOpen != nil {
		t.opts.OnBreakerOpen(host)
	}
}

// PeerDown reports whether the peer's circuit is currently open.
func (t *HTTPTransport) PeerDown(baseURL string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.breakers[hostOf(baseURL)]
	return b != nil && !b.openedAt.IsZero() && t.clock.Since(b.openedAt) < t.opts.BreakerCooldown
}

// sleep waits for the attempt's backoff (exponential with ±50% jitter),
// aborting early when the context is cancelled.
func (t *HTTPTransport) sleep(ctx context.Context, attempt int) error {
	d := t.opts.BackoffBase << uint(attempt)
	if d > t.opts.BackoffMax {
		d = t.opts.BackoffMax
	}
	t.mu.Lock()
	jitter := 0.5 + t.rng.Float64() // [0.5, 1.5)
	t.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	done := make(chan struct{})
	timer := t.clock.AfterFunc(d, func() { close(done) })
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether an error is worth another attempt: transport
// failures and 5xx replies are; 404 (absence) and other 4xx (the peer
// answered and rejected the request) are not.
func retryable(err error) bool {
	if err == nil || errors.Is(err, errNotFound) || errors.Is(err, ErrShed) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.status >= 500
	}
	return true // connection refused, timeout, reset, ...
}

// statusError is a non-2xx reply.
type statusError struct {
	method, url string
	status      int
	body        string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("node: %s %s: status %d: %s", e.method, e.url, e.status, e.body)
}

// hostOf extracts the host:port a URL targets (breaker key).
func hostOf(rawurl string) string {
	u, err := url.Parse(rawurl)
	if err != nil || u.Host == "" {
		return rawurl
	}
	return u.Host
}

// doJSONURL is doJSON for a URL not yet parsed.
func doJSONURL(ctx context.Context, rt http.RoundTripper, method, rawurl string, body []byte, out any, timeout time.Duration) error {
	u, err := url.Parse(rawurl)
	if err != nil {
		return fmt.Errorf("node: %s %s: %w", method, rawurl, err)
	}
	return doJSON(ctx, rt, method, rawurl, u, body, out, timeout)
}

// doJSON performs one HTTP attempt with a per-request deadline, decoding
// the JSON reply into out (out may be nil). u is rawurl parsed. The
// response body is always drained and closed so the underlying
// connection returns to the pool.
func doJSON(ctx context.Context, rt http.RoundTripper, method, rawurl string, u *url.URL, body []byte, out any, timeout time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req := newRequest(ctx, method, u, body)
	// Propagate the caller's remaining budget so downstream queue waiters
	// whose caller gave up stop consuming slots.
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl) / time.Millisecond; ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(int64(ms), 10))
		}
	}
	if tid := TenantFromContext(ctx); tid != "" {
		req.Header.Set(TenantHeader, tid)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return fmt.Errorf("node: %s %s: %w", method, rawurl, err)
	}
	// Every early return below rides on this drain+close, so error
	// replies (shed, 4xx, 5xx) never leak the keep-alive connection.
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return errNotFound
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return &peerShedError{url: rawurl, retryAfter: parseRetryAfter(resp.Header)}
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &statusError{method: method, url: rawurl, status: resp.StatusCode, body: string(b)}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// jsonContentType is the request Content-Type header value, shared so a
// request's header map holds it without a copy.
var jsonContentType = []string{"application/json"}

// newRequest builds one attempt's request from the parsed URL, as
// http.NewRequestWithContext would from the string.
func newRequest(ctx context.Context, method string, u *url.URL, body []byte) *http.Request {
	req := &http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, 3),
		Host:       u.Host,
	}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		// GetBody lets the transport replay the body when a reused
		// keep-alive connection turns out to be dead.
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
		req.Header["Content-Type"] = jsonContentType
	}
	return req.WithContext(ctx)
}

// parseRetryAfter reads a 429 reply's retry hint: the millisecond
// header when present, else the standard whole-second Retry-After, else
// a 100ms default (a hint of some kind keeps the fail-fast window
// meaningful).
func parseRetryAfter(h http.Header) time.Duration {
	if v := h.Get(RetryAfterMsHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	if v := h.Get("Retry-After"); v != "" {
		if s, err := strconv.ParseInt(v, 10, 64); err == nil && s > 0 {
			return time.Duration(s) * time.Second
		}
	}
	return 100 * time.Millisecond
}

// drainClose consumes any unread bytes before closing, so keep-alive
// connections are reusable. The drain is capped: a huge unread body is
// cheaper to close than to read.
func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	_ = rc.Close()
}
