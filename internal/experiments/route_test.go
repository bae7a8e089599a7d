package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestRouteRecallGateSmoke runs the routed-approximate sweep at tiny
// scale and gates on answer quality: the exact row must report recall
// exactly 1, and the routed approximate mode at the default RouteTarget
// must keep recall@10 >= 0.95. Timing columns are ignored, so the gate
// itself is deterministic; guarded behind CSSI_ROUTE_SMOKE=1 to keep a
// regular `go test ./...` fast.
func TestRouteRecallGateSmoke(t *testing.T) {
	if os.Getenv("CSSI_ROUTE_SMOKE") == "" {
		t.Skip("set CSSI_ROUTE_SMOKE=1 to run the route recall-gate smoke")
	}
	tab, err := routeApproxTable(Setup{Scale: 0.05, Queries: 40, K: 10, Lambda: 0.5, Dim: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	sawDefault := false
	for _, row := range tab.Rows {
		mode, recallCell := row[0], row[3]
		recall, err := strconv.ParseFloat(recallCell, 64)
		if err != nil {
			t.Fatalf("recall cell %q (%s): %v", recallCell, mode, err)
		}
		switch {
		case mode == "cssi exact":
			if recall != 1 {
				t.Errorf("%s: recall %s, want exactly 1.0000", mode, recallCell)
			}
		case strings.HasPrefix(mode, "routed@default"):
			sawDefault = true
			if recall < 0.95 {
				t.Errorf("%s: recall@10 %s, want >= 0.95", mode, recallCell)
			}
		case mode == "routed@1.00":
			if recall < 0.95 {
				t.Errorf("%s: recall@10 %s, want >= 0.95", mode, recallCell)
			}
		}
		t.Logf("%-22s recall %s", mode, recallCell)
	}
	if !sawDefault {
		t.Error("sweep has no routed@default row")
	}
}
