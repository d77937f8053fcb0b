package scratch

import "testing"

func TestSlotsReuseIdleWorkspaces(t *testing.T) {
	s := New[[]int]()
	a, b := s.Get(), s.Get()
	if a == b {
		t.Fatal("two Gets with nothing idle returned the same workspace")
	}
	s.Put(a)
	if got := s.Get(); got != a {
		t.Error("Get did not return the idle workspace")
	}
	// More workspaces than slots: Put drops the extras, and Get hands out
	// each idle workspace once.
	seen := map[*[]int]bool{}
	for range len(s) + 2 {
		s.Put(new([]int))
	}
	for range len(s) {
		w := s.Get()
		if seen[w] {
			t.Fatal("one idle workspace handed out twice")
		}
		seen[w] = true
	}
}
