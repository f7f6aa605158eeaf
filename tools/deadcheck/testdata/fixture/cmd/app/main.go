// Command app is the fixture's binary: the root every reachable
// declaration is reached from.
package main

import "fixture/lib"

func main() {
	println(lib.Used(), lib.Total(lib.Shapes()))
}
