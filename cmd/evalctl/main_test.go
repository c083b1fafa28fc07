package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckSize: 0 keeps an experiment's default and a positive finite
// value overrides it; a negative or non-finite size is an error naming
// the flag instead of a silent run of the default.
func TestCheckSize(t *testing.T) {
	for _, ok := range []float64{0, 0.3, 1800} {
		if err := checkSize("horizon", ok); err != nil {
			t.Errorf("-horizon %g rejected: %v", ok, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		if err := checkSize("horizon", bad); err == nil || !strings.Contains(err.Error(), "-horizon") {
			t.Errorf("-horizon %g: got %v, want an error naming -horizon", bad, err)
		}
	}
}
