// Package c declares one function for each rule of the reachability gate;
// cmd/m is the module's one binary.
package c

// Direct is called by main; it calls inClosure only inside a closure.
func Direct() { apply(func() { inClosure() }) }

func apply(f func()) { f() }

func inClosure() {}

// Stack is generic; main calls Push of an instance.
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Impl's Speak is called only through an interface.
type Impl struct{}

func (Impl) Speak() string { return "impl" }

// ForOtherTests is used only by b's tests.
func ForOtherTests() {}

func unreached() {}
