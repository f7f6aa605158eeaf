// Command demo is a program outside cmd/ and tools/: the repository does
// not ship it, so its main is no root and keeps nothing alive.
package main

import "fixture/lib"

var n = lib.DemoInit()

func main() { println(lib.DemoOnly(), n) }
