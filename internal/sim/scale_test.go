package sim

import (
	"strings"
	"testing"
)

// TestScaleByName pins the one definition of the named protocols.
func TestScaleByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scale
	}{
		{"tiny", Scale{CacheWarm: 50_000, Warm: 50_000, Measure: 250_000, MaxCycles: 50_000_000}},
		{"quick", Scale{CacheWarm: 300_000, Warm: 150_000, Measure: 700_000, MaxCycles: 60_000_000}},
		{"paper", Scale{CacheWarm: 10_000_000, Warm: 1_000_000, Measure: 6_000_000}},
	} {
		got, err := ScaleByName(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if _, err := ScaleByName("huge"); err == nil || !strings.Contains(err.Error(), `"huge"`) {
		t.Errorf("unknown name: err = %v, want an error naming it", err)
	}
}
