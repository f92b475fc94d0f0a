package costmodel_test

import (
	"testing"

	"pmblade/internal/engine"
)

// TestDefaultParamsScale: the thresholds the engine derives for the cost
// models (engine.DefaultCostParams, the one set of defaults there is) are
// ordered and fit inside the PM they are fractions of.
func TestDefaultParamsScale(t *testing.T) {
	const pm = 1 << 30
	for _, partitions := range []int{1, 8} {
		p := engine.DefaultCostParams(pm, partitions)
		if p.TauM <= p.TauW || p.TauT <= 0 || p.TauM > pm {
			t.Fatalf("%d partitions: default thresholds implausible: %+v", partitions, p)
		}
	}
}
