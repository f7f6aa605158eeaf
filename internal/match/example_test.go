package match_test

import (
	"fmt"

	"dgs/internal/match"
)

// The paper's core scheduling step: satellites (left) and ground stations
// (right) form a weighted bipartite graph; Gale-Shapley stable matching
// picks the links for this slot. One Scratch serves every slot.
func ExampleScratch_Stable() {
	g := match.NewGraph(3, 2)
	_ = g.AddEdge(0, 0, 9.0) // satellite 0 values station 0 highly
	_ = g.AddEdge(0, 1, 4.0)
	_ = g.AddEdge(1, 0, 7.0)
	_ = g.AddEdge(2, 1, 5.0)

	var sc match.Scratch
	m := sc.Stable(g)
	for sat, gs := range m.LeftToRight {
		fmt.Printf("satellite %d -> station %d\n", sat, gs)
	}
	fmt.Println("total value:", m.Value)
	// Output:
	// satellite 0 -> station 0
	// satellite 1 -> station -1
	// satellite 2 -> station 1
	// total value: 14
}

// The paper's considered alternative, optimal matching, can extract more
// total value but lets individual pairs be worse off.
func ExampleMaxWeight() {
	g := match.NewGraph(2, 2)
	_ = g.AddEdge(0, 0, 10)
	_ = g.AddEdge(0, 1, 9)
	_ = g.AddEdge(1, 0, 9)

	stable := new(match.Scratch).Stable(g)
	optimal := match.MaxWeight(g)
	fmt.Println("stable:", stable.Value, "optimal:", optimal.Value)
	// Output: stable: 10 optimal: 18
}
