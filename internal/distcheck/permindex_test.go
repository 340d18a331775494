package distcheck

import (
	"testing"

	"pctwm/internal/memmodel"
)

// TestPermIndexBijective: the Lehmer encoding is a bijection over the
// orderings actually fed to it.
func TestPermIndexBijective(t *testing.T) {
	seen := map[int]bool{}
	var rec func(rest []memmodel.ThreadID, cur []memmodel.ThreadID)
	rec = func(rest, cur []memmodel.ThreadID) {
		if len(rest) == 0 {
			idx := permIndex(cur)
			if idx < 0 || idx >= 24 || seen[idx] {
				t.Fatalf("permIndex(%v) = %d (dup=%v)", cur, idx, seen[idx])
			}
			seen[idx] = true
			return
		}
		for i, tid := range rest {
			next := append(append([]memmodel.ThreadID{}, rest[:i]...), rest[i+1:]...)
			rec(next, append(cur, tid))
		}
	}
	rec([]memmodel.ThreadID{1, 2, 3, 4}, nil)
	if len(seen) != 24 {
		t.Fatalf("covered %d/24 indices", len(seen))
	}
}
