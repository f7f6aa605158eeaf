// Command bench is the fixture's benchmark.
package main

import "fixture/lib"

func main() { println(lib.BenchOnly()) }
