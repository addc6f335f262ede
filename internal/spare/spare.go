// Package spare keeps the storage of finished simulations for the next
// ones. An experiment grid builds System after System of a few shapes;
// each component hands its per-run storage (way arrays, MSHR slabs,
// reorder buffers, queues, counter tables) to a Stack when its System
// is done, and the next component of the same shape takes it instead of
// allocating.
package spare

import "sync"

// Stack holds spare values of type V, a LIFO stack per key K. It is
// safe for concurrent use. A value is put back only after it was taken
// or built for a live user, so a key's stack never holds more values
// than were once live at the same time, and a Put allocates only when
// its key's stack grows past every height it had before.
type Stack[K comparable, V any] struct {
	name  string
	mu    sync.Mutex
	byKey map[K][]V
	held  int
}

// registry lists every Stack, for Held.
var registry struct {
	sync.Mutex
	stacks []interface{ count() (string, int) }
}

// New returns an empty Stack. name identifies it in Held; a package
// declares each of its stacks once, at package level.
func New[K comparable, V any](name string) *Stack[K, V] {
	s := &Stack[K, V]{name: name, byKey: map[K][]V{}}
	registry.Lock()
	registry.stacks = append(registry.stacks, s)
	registry.Unlock()
	return s
}

// Take pops a spare value for key k. ok is false when k's stack is
// empty; the caller then builds a new value.
func (s *Stack[K, V]) Take(k K) (v V, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stack := s.byKey[k]
	n := len(stack)
	if n == 0 {
		return v, false
	}
	v = stack[n-1]
	var zero V
	stack[n-1] = zero // the stack must not keep a value it handed out
	s.byKey[k] = stack[:n-1]
	s.held--
	return v, true
}

// Put pushes v onto key k's stack. The caller must not use v again.
func (s *Stack[K, V]) Put(k K, v V) {
	s.mu.Lock()
	s.byKey[k] = append(s.byKey[k], v)
	s.held++
	s.mu.Unlock()
}

func (s *Stack[K, V]) count() (string, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.name, s.held
}

// Held reports how many spare values each Stack holds, by name.
func Held() map[string]int {
	registry.Lock()
	defer registry.Unlock()
	held := make(map[string]int, len(registry.stacks))
	for _, s := range registry.stacks {
		name, n := s.count()
		held[name] += n
	}
	return held
}
