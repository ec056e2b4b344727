package difftest

import "testing"

// TestGroupedCoreDifferential holds the cached region-group core to an
// independent reference — the bare compute core over a fresh substrate —
// cold and warm at 1 and 4 workers, and after a one-spec edit.
func TestGroupedCoreDifferential(t *testing.T) {
	seeds := []int64{0, 3, 6}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		divs, err := RunGroupedCoreCase(seed, t.TempDir())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range divs {
			t.Errorf("seed %d: %s", seed, d.String())
		}
	}
}
