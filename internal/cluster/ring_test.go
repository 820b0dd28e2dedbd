package cluster

import (
	"fmt"
	"testing"
)

func TestRingPickStableAndDistinct(t *testing.T) {
	r := newRing([]string{"a", "b", "c"})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		got := r.pick(key, 3)
		if len(got) != 3 {
			t.Fatalf("pick(%q, 3) = %v, want 3 distinct members", key, got)
		}
		seen := map[string]bool{}
		for _, m := range got {
			if seen[m] {
				t.Fatalf("pick(%q) repeated member %q: %v", key, m, got)
			}
			seen[m] = true
		}
		if got[0] != r.owner(key) {
			t.Fatalf("pick(%q)[0] = %q, owner = %q", key, got[0], r.owner(key))
		}
		// Determinism: a rebuilt identical ring routes identically.
		if again := newRing([]string{"c", "a", "b"}).owner(key); again != got[0] {
			t.Fatalf("owner(%q) unstable across member order: %q vs %q", key, got[0], again)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	members := []string{"r1", "r2", "r3", "r4"}
	r := newRing(members)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, m := range members {
		share := float64(counts[m]) / keys
		if share < 0.10 || share > 0.45 {
			t.Errorf("member %s owns %.1f%% of keys, want roughly 25%%: %v", m, share*100, counts)
		}
	}
}

// Removing one member must only move the keys it owned: consistent
// hashing's whole point — the other replicas' caches stay hot.
func TestRingRemovalMovesOnlyOwnedKeys(t *testing.T) {
	full := newRing([]string{"a", "b", "c"})
	without := newRing([]string{"a", "b"})
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := full.owner(key), without.owner(key)
		if before != "c" && before != after {
			t.Fatalf("key %q moved %s -> %s though its owner stayed", key, before, after)
		}
		if before == "c" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key owned by the removed member — distribution broken")
	}
}

func TestRingEmpty(t *testing.T) {
	var r *ring
	if got := r.pick("k", 2); got != nil {
		t.Fatalf("nil ring pick = %v, want nil", got)
	}
	if got := newRing(nil).owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
}
