package abndp

import (
	"runtime"
	"testing"
)

// TestColdRunsRecycleTagArrays: every Run returns its Traveller tag arrays
// to the geometry pool, so a second cold design-O run of the same shape
// reuses them instead of allocating the ~200 MB of tag state again.
func TestColdRunsRecycleTagArrays(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	run := func() {
		if _, err := Run("pr", DesignO, DefaultConfig(), Params{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	const limit = 32 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("second cold run allocated %d MB, want < %d MB", got>>20, limit>>20)
	} else {
		t.Logf("second cold run allocated %.1f MB", float64(got)/(1<<20))
	}
}
