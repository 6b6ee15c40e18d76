// Command m is the fixture's one binary.
package main

import "fixture/internal/c"

type speaker interface{ Speak() string }

// speakers hides the dynamic type, so Speak is called through the interface.
var speakers = []speaker{c.Impl{}}

func main() {
	c.Direct()
	var s c.Stack[int]
	s.Push(1)
	for _, sp := range speakers {
		println(sp.Speak())
	}
}
