package lib_test

import (
	"testing"

	"fixture/lib"
)

func TestExposed(t *testing.T) {
	if lib.Exposed() != 4 {
		t.Fatal("Exposed")
	}
}
