// Package lib holds one declaration of each kind deadcheck tells apart.
package lib

// Used is called by the binary.
func Used() int { return Green }

// The binary uses one name of this iota block, which keeps the block.
const (
	Red = iota
	Green
	Blue
)

// Shape is the interface the binary calls Area through.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

// Area is reached only through an interface call.
func (s square) Area() float64 { return s.side * s.side }

// Perimeter is a method of a live type that only a test calls.
func (s square) Perimeter() float64 { return 4 * s.side }

// Shapes returns the shapes the binary sums.
func Shapes() []Shape { return []Shape{square{side: 2}} }

// Total sums the shapes' areas through Shape.
func Total(shapes []Shape) float64 {
	t := 0.0
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// testOnly is an unexported helper only a test calls.
func testOnly() int { return viaTestOnly() + 1 }

// viaTestOnly is reached only through testOnly.
func viaTestOnly() int { return 2 }

// BenchOnly is called by the benchmark alone.
func BenchOnly() int { return 3 }

// exposed is handed to the external test by export_test.go.
func exposed() int { return 4 }
