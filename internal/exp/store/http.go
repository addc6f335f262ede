package store

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"pracsim/internal/fault"
	"pracsim/internal/retry"
)

// MaxEntryBytes bounds how much of an entry either end of the wire will
// buffer: a misbehaving peer must cost a bounded read, never an OOM.
// Real encoded RunResults are kilobytes. Shared with the server so the
// size bound cannot drift between the two ends.
const MaxEntryBytes = 256 << 20

// GzipMinBytes is the smallest body worth compressing in either
// direction; below it the gzip header overhead beats the savings.
const GzipMinBytes = 1 << 10

// breakerTrip is the client's failure memory: after this many
// consecutive transport failures (timeouts, refused or black-holed
// connections — not HTTP error statuses, which prove the server is
// reachable) the circuit opens and operations fail fast instead of
// dialing. After BreakerCooldown the breaker goes half-open: exactly one
// probe request is let through, and its outcome either closes the
// circuit (any response) or re-opens it for another cooldown. Without
// this, a firewalled-dead server would cost a full per-attempt timeout
// per run, serially, turning a seconds-long sweep into minutes of
// stalls — and without the half-open probe, a revived server would
// never be re-used.
const breakerTrip = 5

// TokenEnv names the environment variable the HTTP client reads its
// bearer token (one of the server's pracsimd -tokens) from — an env var
// so the secret never appears in argv or shard-dispatch command lines.
// It is pracsimd's one client token variable: tpracsim -pull-token
// defaults to it too.
const TokenEnv = "PRACSIMD_TOKEN"

// HTTPOptions tunes the client's failure policy. The zero value means
// defaults, so OpenHTTPWith(url, HTTPOptions{}) == OpenHTTP(url).
type HTTPOptions struct {
	// Timeout bounds each request attempt with a context deadline
	// (default 10s). This replaces a whole-client timeout: a retried
	// operation gets a fresh deadline per attempt, so one black-holed
	// GET costs Timeout, not Timeout×Attempts of stall before anything
	// is retried.
	Timeout time.Duration
	// Attempts is the per-operation try budget, including the first
	// (default 3). Only transport failures, timeouts and 5xx responses
	// are retried; 404s, other 4xx and frame-validation failures are
	// permanent.
	Attempts int
	// RetryBase is the backoff before the first retry (default 50ms);
	// waits double per retry, capped at 8×, with deterministic jitter.
	RetryBase time.Duration
	// BreakerCooldown is how long an open circuit rejects operations
	// before going half-open and probing the server again (default 2s).
	BreakerCooldown time.Duration
}

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Attempts < 1 {
		o.Attempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	return o
}

// HTTP is the remote backend: a client for the pracsimd store routes
// (the FrameRoutes a FrameHandler serves). Every
// entry travels as the same self-validating frame the disk backend
// stores, so checksums are verified on both ends of both directions —
// the server rejects corrupt uploads before publishing, the client
// treats corrupt downloads as misses. Transport failures, timeouts and
// unexpected statuses are retried under one policy (per-attempt
// deadlines, capped jittered backoff) and then degrade to misses at the
// Store front; the remote stats keep every error, retry and fast-fail
// visible.
type HTTP struct {
	base   string // normalized base URL, no trailing slash
	token  string
	client *http.Client
	policy retry.Policy

	hits, misses, writes, errs, skipped, retries, bytesRead, bytesWritten atomic.Int64

	// failsSinceOK counts transport failures since the last response of
	// any kind; at breakerTrip the circuit opens until openUntil
	// (unix-nanos), after which probing gates a single half-open probe.
	failsSinceOK atomic.Int64
	openUntil    atomic.Int64
	probing      atomic.Bool
	cooldown     time.Duration
}

// OpenHTTP returns a client backend for a pracsimd base URL with the
// default failure policy. The bearer token, when the server requires
// one, comes from $PRACSIMD_TOKEN. Only the URL is validated here — the
// server is contacted lazily, and an unreachable server degrades every
// operation rather than failing open.
func OpenHTTP(rawurl string) (*HTTP, error) {
	return OpenHTTPWith(rawurl, HTTPOptions{})
}

// OpenHTTPWith returns a client backend with an explicit failure policy
// — the -store-timeout / -store-retries surface.
func OpenHTTPWith(rawurl string, opts HTTPOptions) (*HTTP, error) {
	u, err := url.Parse(rawurl)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("store: invalid remote store URL %q (want http://host:port)", rawurl)
	}
	opts = opts.withDefaults()
	base := strings.TrimRight(u.String(), "/")
	return &HTTP{
		base:  base,
		token: os.Getenv(TokenEnv),
		// No whole-client timeout: each attempt carries its own context
		// deadline, so retries are paced by the policy, not serialized
		// behind one 30s stall.
		client: &http.Client{},
		policy: retry.Policy{
			Attempts: opts.Attempts,
			Base:     opts.RetryBase,
			PerTry:   opts.Timeout,
			Seed:     hashSeed(base),
		},
		cooldown: opts.BreakerCooldown,
	}, nil
}

// hashSeed derives a stable jitter seed from the base URL so two clients
// of the same server pace identically across runs.
func hashSeed(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Spec reports the server base URL.
func (h *HTTP) Spec() string { return h.base }

// RemoteStats snapshots the wire-traffic counters.
func (h *HTTP) RemoteStats() RemoteStats {
	return RemoteStats{
		Hits:         h.hits.Load(),
		Misses:       h.misses.Load(),
		Writes:       h.writes.Load(),
		Errors:       h.errs.Load(),
		Skipped:      h.skipped.Load(),
		Retries:      h.retries.Load(),
		BytesRead:    h.bytesRead.Load(),
		BytesWritten: h.bytesWritten.Load(),
	}
}

func (h *HTTP) entryURL(key string) string { return h.base + "/v1/e/" + Hash(key) }

// circuitOpen reports whether this attempt should fail fast instead of
// dialing a server that hasn't answered in breakerTrip attempts. Once
// the cooldown elapses the breaker is half-open: the first caller wins
// the probe slot and dials; everyone else keeps failing fast until that
// probe's outcome either closes the circuit or re-opens it.
func (h *HTTP) circuitOpen() bool {
	if h.failsSinceOK.Load() < breakerTrip {
		return false
	}
	if time.Now().UnixNano() < h.openUntil.Load() {
		return true
	}
	return !h.probing.CompareAndSwap(false, true)
}

// transportFail records a transport-level failure for the breaker.
func (h *HTTP) transportFail() {
	if h.failsSinceOK.Add(1) >= breakerTrip {
		h.openUntil.Store(time.Now().Add(h.cooldown).UnixNano())
	}
	h.probing.Store(false)
}

// transportOK records proof of server reachability: any response — a
// hit, a 404, even a 500 — closes the circuit.
func (h *HTTP) transportOK() {
	h.failsSinceOK.Store(0)
	h.probing.Store(false)
}

var errCircuitOpen = fmt.Errorf("store: remote unreachable, circuit open (failing fast)")

// do performs one request attempt. body is bytes, not a Reader, so a
// retried attempt rebuilds its own reader. The returned fault.Action is
// non-nil only for body-mangling kinds (trunc, corrupt) the caller must
// apply to what it reads; transport-shaped faults (err, timeout,
// http500) are realized here, feeding the breaker and error counters
// exactly like organic failures.
func (h *HTTP) do(ctx context.Context, method, url string, body []byte, contentEncoding, point string) (*http.Response, *fault.Action, error) {
	if h.circuitOpen() {
		h.skipped.Add(1)
		return nil, nil, retry.Permanent(errCircuitOpen)
	}
	var act *fault.Action
	if a := fault.Fire(point); a != nil {
		switch a.Kind {
		case fault.Err:
			h.transportFail()
			h.errs.Add(1)
			return nil, nil, a.Err(method + " " + url)
		case fault.Timeout:
			h.transportFail()
			h.errs.Add(1)
			return nil, nil, fmt.Errorf("store: %s %s: injected %w", method, url, context.DeadlineExceeded)
		case fault.HTTP500:
			h.transportOK()
			return &http.Response{
				Status:     "500 Internal Server Error (injected)",
				StatusCode: http.StatusInternalServerError,
				Body:       io.NopCloser(strings.NewReader("")),
			}, nil, nil
		default:
			act = a
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, retry.Permanent(fmt.Errorf("store: %w", err))
	}
	if h.token != "" {
		req.Header.Set("Authorization", "Bearer "+h.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if contentEncoding != "" {
		req.Header.Set("Content-Encoding", contentEncoding)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.transportFail()
		h.errs.Add(1)
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	h.transportOK()
	return resp, act, nil
}

// run executes op under the retry policy and folds its retry count into
// the remote stats.
func (h *HTTP) run(what string, fn func(ctx context.Context) error) error {
	retries, err := h.policy.Do(context.Background(), what+" "+h.base,
		func(ctx context.Context, _ int) error { return fn(ctx) })
	h.retries.Add(int64(retries))
	return err
}

// drain discards and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
}

// statusErr folds an unexpected status into the error counters. 5xx is
// transient — the server may recover — so it stays retryable; anything
// else (auth failures, bad requests) will not improve on retry.
func (h *HTTP) statusErr(resp *http.Response, what string) error {
	h.errs.Add(1)
	code := resp.StatusCode
	drain(resp)
	err := fmt.Errorf("store: %s %s: server returned %s", what, h.base, resp.Status)
	if code >= 500 {
		return err
	}
	return retry.Permanent(err)
}

// Get fetches and validates the frame stored under key. The response
// frame is checked exactly like a disk entry — checksum and embedded
// key — so a truncated body, a bit-flipped payload or a server bug all
// degrade to a miss. Transport failures and 5xx retry under the policy;
// a frame that fails validation does not (the copy is bad, not the
// wire).
func (h *HTTP) Get(key string) ([]byte, error) {
	var payload []byte
	err := h.run("get", func(ctx context.Context) error {
		resp, act, err := h.do(ctx, http.MethodGet, h.entryURL(key), nil, "", fault.StoreHTTPGet)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusNotFound {
			h.misses.Add(1)
			drain(resp)
			return retry.Permanent(ErrNotFound)
		}
		if resp.StatusCode != http.StatusOK {
			return h.statusErr(resp, "get")
		}
		frame, err := io.ReadAll(io.LimitReader(resp.Body, MaxEntryBytes))
		resp.Body.Close()
		if err != nil {
			h.errs.Add(1)
			return fmt.Errorf("store: reading %s: %w", h.base, err)
		}
		if act != nil {
			switch act.Kind {
			case fault.Trunc:
				frame = frame[:len(frame)/2]
			case fault.Corrupt:
				frame = fault.CorruptByte(frame)
			}
		}
		payload, err = DecodeFrame(frame, key)
		if err != nil {
			h.errs.Add(1)
			//praclint:allow degrade a corrupt remote copy is re-fetchable, not quarantinable from the client; the counting Store front classifies this error and degrades it to a miss
			return retry.Permanent(err)
		}
		h.hits.Add(1)
		h.bytesRead.Add(int64(len(payload)))
		return nil
	})
	if err != nil {
		//praclint:allow degrade propagates the closure's decode error; see the retry.Permanent note above — the Store front degrades it to a miss
		return nil, err
	}
	return payload, nil
}

// Put uploads the framed entry for key; bodies past GzipMinBytes travel
// gzip-compressed. The server validates the frame (checksum, key/hash
// agreement) before publishing atomically, so a connection cut mid-PUT
// can lose the write but never tear an entry — which is also what makes
// the retry safe: re-PUTting a content-addressed entry is idempotent.
func (h *HTTP) Put(key string, payload []byte) error {
	frame := EncodeFrame(key, payload)
	body, encoding := frame, ""
	if len(frame) >= GzipMinBytes {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(frame)
		if err := zw.Close(); err == nil {
			body, encoding = buf.Bytes(), "gzip"
		}
	}
	return h.run("put", func(ctx context.Context) error {
		resp, _, err := h.do(ctx, http.MethodPut, h.entryURL(key), body, encoding, fault.StoreHTTPPut)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusNoContent {
			return h.statusErr(resp, "put")
		}
		drain(resp)
		h.writes.Add(1)
		h.bytesWritten.Add(int64(len(payload)))
		return nil
	})
}

// Stat describes the entry under key without fetching its payload.
func (h *HTTP) Stat(key string) (Info, error) {
	var info Info
	err := h.run("stat", func(ctx context.Context) error {
		resp, _, err := h.do(ctx, http.MethodGet, h.base+"/v1/stat/"+Hash(key), nil, "", fault.StoreHTTPGet)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusNotFound {
			drain(resp)
			return retry.Permanent(ErrNotFound)
		}
		if resp.StatusCode != http.StatusOK {
			return h.statusErr(resp, "stat")
		}
		derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info)
		resp.Body.Close()
		if derr != nil {
			h.errs.Add(1)
			return retry.Permanent(fmt.Errorf("store: decoding stat from %s: %w", h.base, derr))
		}
		return nil
	})
	if err != nil {
		return Info{}, err
	}
	return info, nil
}

// List enumerates the server's entries — the maintenance surface, so
// -store-info and -store-prune work against a remote exactly like a
// directory.
func (h *HTTP) List() ([]Info, error) {
	var infos []Info
	err := h.run("list", func(ctx context.Context) error {
		resp, _, err := h.do(ctx, http.MethodGet, h.base+"/v1/list", nil, "", fault.StoreHTTPGet)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return h.statusErr(resp, "list")
		}
		derr := json.NewDecoder(io.LimitReader(resp.Body, MaxEntryBytes)).Decode(&infos)
		resp.Body.Close()
		if derr != nil {
			h.errs.Add(1)
			return retry.Permanent(fmt.Errorf("store: decoding list from %s: %w", h.base, derr))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return infos, nil
}

// ListEach streams the server's listing entry by entry, decoding the
// JSON array tokenwise so a million-entry listing never materializes
// client-side. Once any entry has been delivered to fn the operation
// will not retry — a replay would hand the caller duplicates — so a
// mid-stream transport cut surfaces as an error instead.
func (h *HTTP) ListEach(fn func(Info) error) error {
	delivered := false
	return h.run("list", func(ctx context.Context) error {
		resp, _, err := h.do(ctx, http.MethodGet, h.base+"/v1/list", nil, "", fault.StoreHTTPGet)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return h.statusErr(resp, "list")
		}
		defer resp.Body.Close()
		noRetry := func(err error) error {
			h.errs.Add(1)
			if delivered {
				return retry.Permanent(err)
			}
			return err
		}
		dec := json.NewDecoder(io.LimitReader(resp.Body, MaxEntryBytes))
		if tok, err := dec.Token(); err != nil {
			return noRetry(fmt.Errorf("store: decoding list from %s: %w", h.base, err))
		} else if delim, ok := tok.(json.Delim); !ok || delim != '[' {
			return noRetry(fmt.Errorf("store: decoding list from %s: expected array, got %v", h.base, tok))
		}
		for dec.More() {
			var info Info
			if err := dec.Decode(&info); err != nil {
				return noRetry(fmt.Errorf("store: decoding list from %s: %w", h.base, err))
			}
			delivered = true
			if err := fn(info); err != nil {
				return retry.Permanent(err)
			}
		}
		return nil
	})
}

// Delete removes the entry under key on the server.
func (h *HTTP) Delete(key string) error {
	return h.run("delete", func(ctx context.Context) error {
		resp, _, err := h.do(ctx, http.MethodDelete, h.entryURL(key), nil, "", fault.StoreHTTPPut)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusNotFound {
			drain(resp)
			return retry.Permanent(ErrNotFound)
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
			return h.statusErr(resp, "delete")
		}
		drain(resp)
		return nil
	})
}
