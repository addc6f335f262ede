// Package httpd holds pracsimd's HTTP plumbing: bearer-token
// authentication and Prometheus text-format metrics, including
// per-endpoint request counters and a coarse latency histogram. Every
// authenticated route — the job API, the lease protocol and the
// pracsimd store routes — mounts through this package, so the daemon
// presents one auth contract and one metrics dialect.
package httpd

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
)

// Tokens is a bearer-token set. An empty set means the server is open:
// every request passes and authenticates as the empty identity. A
// non-empty set requires `Authorization: Bearer <token>` where the
// token is a member; the matched token doubles as the caller's tenant
// identity (per-token quotas and fairness key off it).
type Tokens struct {
	set      map[string]bool
	failures atomic.Int64
}

// ParseTokens builds a token set from a comma-separated list, the CLI
// flag form. Empty elements are dropped; an empty spec is the open set.
func ParseTokens(spec string) *Tokens {
	t := &Tokens{set: make(map[string]bool)}
	for _, tok := range strings.Split(spec, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			t.set[tok] = true
		}
	}
	return t
}

// Open reports whether the set accepts unauthenticated requests.
func (t *Tokens) Open() bool { return len(t.set) == 0 }

// AuthFailures counts requests rejected for a missing or wrong token.
func (t *Tokens) AuthFailures() int64 { return t.failures.Load() }

// tokenKey carries the authenticated bearer token through the request
// context.
type tokenKey struct{}

// Require wraps a handler with the bearer-token check: 401 on a missing
// or wrong token, and the authenticated token injected into the request
// context (see Token) on success. An open set passes every request.
func (t *Tokens) Require(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.Open() {
			tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || !t.set[tok] {
				t.failures.Add(1)
				http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
				return
			}
			r = r.WithContext(context.WithValue(r.Context(), tokenKey{}, tok))
		}
		h(w, r)
	})
}

// Token returns the authenticated bearer token stored by Require, or ""
// for an open server.
func Token(ctx context.Context) string {
	tok, _ := ctx.Value(tokenKey{}).(string)
	return tok
}
