// Package retry is the pipeline's one retry/backoff/deadline policy:
// capped exponential backoff with deterministic jitter and a per-attempt
// context deadline. The store client, the job queue's item requeue, the
// pull worker and the CLIs' merge paths all schedule retries through it, so
// "how failure is paced" is one tunable policy instead of scattered
// constants — and, seeded, it is reproducible.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Policy paces retries of one class of operation.
type Policy struct {
	// Attempts is the total tries, including the first (minimum 1).
	Attempts int
	// Base is the backoff before the second attempt; each further wait
	// doubles, capped at Max. Zero disables waiting.
	Base time.Duration
	// Max caps a single backoff wait (default 8×Base).
	Max time.Duration
	// PerTry bounds each attempt with a context deadline. Zero means the
	// caller's context alone bounds the attempt.
	PerTry time.Duration
	// Seed drives the jitter draws; two policies with the same seed pace
	// identically for the same op strings.
	Seed uint64
}

func (p Policy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

func (p Policy) max() time.Duration {
	if p.Max > 0 {
		return p.Max
	}
	return 8 * p.Base
}

// Delay returns the backoff before the given retry of op (attempt 1 is
// the first retry, i.e. the wait after the first failure): the capped
// exponential with deterministic half-to-full jitter drawn from
// (seed, op, attempt). Exported so non-blocking schedulers — the job
// queue's requeue — can pace with the policy instead of sleeping.
func (p Policy) Delay(op string, attempt int) time.Duration {
	if p.Base <= 0 || attempt < 1 {
		return 0
	}
	d := p.Base << uint(attempt-1)
	if max := p.max(); d > max || d <= 0 { // <=0 catches shift overflow
		d = max
	}
	// Half-to-full jitter: wait in [d/2, d), deterministic per
	// (seed, op, attempt) so retry storms decorrelate but replay exactly.
	frac := splitmix(p.Seed ^ hashString(op) ^ uint64(attempt))
	return d/2 + time.Duration(frac%uint64(d/2+1))
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as not-retryable: Do returns it immediately,
// unwrapped. Use it for failures where another attempt cannot help — a
// 404, a frame that fails validation, an open circuit.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Do runs fn under the policy: up to Attempts tries, each bounded by
// PerTry, with jittered backoff between failures. It stops early on
// success, a Permanent error, or caller-context cancellation, and
// returns the retry count (attempts beyond the first) alongside the
// final error. fn receives the per-attempt context and the 1-based
// attempt number.
func (p Policy) Do(ctx context.Context, op string, fn func(ctx context.Context, attempt int) error) (retries int, err error) {
	attempts := p.attempts()
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.PerTry > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerTry)
		}
		err = fn(actx, attempt)
		cancel()
		if err == nil {
			return attempt - 1, nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return attempt - 1, pe.err
		}
		if attempt >= attempts {
			return attempt - 1, fmt.Errorf("%s: %d attempts: %w", op, attempts, err)
		}
		if ctx.Err() != nil {
			return attempt - 1, ctx.Err()
		}
		if d := p.Delay(op, attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return attempt - 1, ctx.Err()
			}
		}
	}
}

// hashString is FNV-1a, inlined to keep Delay allocation-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
