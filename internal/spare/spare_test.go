package spare

import "testing"

// TestStackIsLIFOPerKey checks that each key has its own stack, served
// last in first out, and that Held counts what the stacks hold.
func TestStackIsLIFOPerKey(t *testing.T) {
	s := New[int, *int]("spare.test.lifo")
	if _, ok := s.Take(1); ok {
		t.Fatal("Take on an empty stack reported a value")
	}
	a, b, c := new(int), new(int), new(int)
	s.Put(1, a)
	s.Put(1, b)
	s.Put(2, c)
	if n := Held()["spare.test.lifo"]; n != 3 {
		t.Fatalf("Held = %d, want 3", n)
	}
	for _, want := range []struct {
		key int
		v   *int
	}{{1, b}, {2, c}, {1, a}} {
		if v, ok := s.Take(want.key); !ok || v != want.v {
			t.Fatalf("Take(%d) = %p, %v; want %p", want.key, v, ok, want.v)
		}
	}
	if _, ok := s.Take(1); ok {
		t.Fatal("Take on a drained stack reported a value")
	}
	if n := Held()["spare.test.lifo"]; n != 0 {
		t.Fatalf("Held = %d after draining, want 0", n)
	}
}

// TestTakeDropsReference checks that a stack does not keep a value it
// handed out: the slot below its top is zeroed on Take.
func TestTakeDropsReference(t *testing.T) {
	s := New[int, *int]("spare.test.drop")
	s.Put(0, new(int))
	s.Take(0)
	if stack := s.byKey[0]; cap(stack) == 0 || stack[:1][0] != nil {
		t.Fatal("the stack still references a value it handed out")
	}
}

// TestPutAllocFree checks that returning storage allocates nothing once
// a key's stack has grown to the number of values ever spare at once.
func TestPutAllocFree(t *testing.T) {
	s := New[[2]int, []byte]("spare.test.alloc")
	key := [2]int{3, 4}
	bufs := [][]byte{make([]byte, 8), make([]byte, 8)}
	for _, b := range bufs {
		s.Put(key, b)
	}
	allocs := testing.AllocsPerRun(100, func() {
		x, _ := s.Take(key)
		y, _ := s.Take(key)
		s.Put(key, x)
		s.Put(key, y)
	})
	if allocs != 0 {
		t.Errorf("a Take/Put cycle allocates %.2f objects, want 0", allocs)
	}
}
