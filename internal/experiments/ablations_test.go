package experiments

import (
	"math"
	"testing"
)

// TestAblationShapes asserts the claims the ablations table's notes make.
func TestAblationShapes(t *testing.T) {
	res, err := Ablations(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	sameCost := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	if res.AStarNodes >= res.DijkstraNodes {
		t.Errorf("A* expanded %d nodes, Dijkstra %d: the heuristic saved nothing", res.AStarNodes, res.DijkstraNodes)
	}
	if !sameCost(res.AStarCost, res.DijkstraCost) {
		t.Errorf("A* plan cost %g != Dijkstra's %g: the heuristic is not admissible", res.AStarCost, res.DijkstraCost)
	}
	if res.MinimalNodes > res.NonMinimalNodes {
		t.Errorf("minimal search expanded %d nodes, non-minimal %d", res.MinimalNodes, res.NonMinimalNodes)
	}
	if !sameCost(res.MinimalCost, res.NonMinimalCost) {
		t.Errorf("minimal plan cost %g != non-minimal %g on linear costs", res.MinimalCost, res.NonMinimalCost)
	}
	if res.OracleRatesCost > res.EWMACost+1e-9 {
		t.Errorf("ONLINE with oracle rates cost %g, more than with EWMA rates (%g)", res.OracleRatesCost, res.EWMACost)
	}
	if len(res.IndexScales) != 2 || res.IndexScales[1] != 10*res.IndexScales[0] {
		t.Fatalf("index scales = %v, want two a factor of 10 apart", res.IndexScales)
	}
	if res.SCost[1] < 2*res.SCost[0] {
		t.Errorf("unindexed S batch %g at 10x the rows, %g at 1x: want at least 2x", res.SCost[1], res.SCost[0])
	}
	if math.Abs(res.PSCost[1]/res.PSCost[0]-1) >= 0.1 {
		t.Errorf("indexed PS batch %g at 10x the rows, %g at 1x: want within 10%%", res.PSCost[1], res.PSCost[0])
	}
}
