package core

import (
	"math/rand"
	"testing"

	"dgs/internal/match"
)

func randomGraph(rng *rand.Rand, nLeft, nRight int) *match.Graph {
	g := match.NewGraph(nLeft, nRight)
	for i := 0; i < nLeft; i++ {
		for j := 0; j < nRight; j++ {
			if rng.Float64() < 0.3 {
				_ = g.AddEdge(i, j, 0.5+rng.Float64()*10)
			}
		}
	}
	return g
}

// stable runs the stable matching on a new Scratch per call, so a result
// outlives the next call (a Scratch reuses its slices).
func stable(g *match.Graph) match.Matching {
	return new(match.Scratch).Stable(g)
}

func TestHysteresisReducesChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	plain := stable
	sticky := WithHysteresis(stable, 3.0)

	// Two slightly different consecutive graphs: perturb weights a little.
	base := randomGraph(rng, 30, 20)
	perturb := func(g *match.Graph, eps float64, seed int64) *match.Graph {
		r := rand.New(rand.NewSource(seed))
		out := match.NewGraph(g.NLeft(), g.NRight())
		for _, e := range g.Edges() {
			_ = out.AddEdge(e.Left, e.Right, e.Weight*(1+eps*(r.Float64()-0.5)))
		}
		return out
	}

	churn := func(m func(*match.Graph) match.Matching) int {
		prev := m(base)
		changes := 0
		cur := prev
		for k := int64(0); k < 20; k++ {
			next := m(perturb(base, 0.4, k))
			for i := range next.LeftToRight {
				if next.LeftToRight[i] != cur.LeftToRight[i] {
					changes++
				}
			}
			cur = next
		}
		return changes
	}

	plainChurn := churn(plain)
	stickyChurn := churn(sticky)
	t.Logf("assignment changes over 20 slots: plain %d, hysteresis %d", plainChurn, stickyChurn)
	if stickyChurn >= plainChurn {
		t.Fatalf("hysteresis should reduce churn: %d >= %d", stickyChurn, plainChurn)
	}
}

func TestHysteresisReportsOriginalValue(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 15, 10)
	sticky := WithHysteresis(stable, 4.0)
	m1 := sticky(g)
	if err := match.IsValid(g, m1); err != nil {
		t.Fatal(err)
	}
	opt := match.MaxWeight(g)
	if m1.Value > opt.Value+1e-9 {
		t.Fatalf("hysteresis value %v exceeds optimal %v: value not recomputed on original weights", m1.Value, opt.Value)
	}
	// Second call must still be valid and value-consistent.
	m2 := sticky(g)
	if err := match.IsValid(g, m2); err != nil {
		t.Fatal(err)
	}
	if m2.Value > opt.Value+1e-9 {
		t.Fatalf("second call value %v exceeds optimal %v", m2.Value, opt.Value)
	}
}

func TestHysteresisBoostBelowOneClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 10, 10)
	m := WithHysteresis(stable, 0.1)(g)
	if err := match.IsValid(g, m); err != nil {
		t.Fatal(err)
	}
}
