package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if testOnly() != 3 {
		t.Fatal("testOnly")
	}
}

func TestPerimeter(t *testing.T) {
	if (square{side: 1}).Perimeter() != 4 {
		t.Fatal("Perimeter")
	}
}
