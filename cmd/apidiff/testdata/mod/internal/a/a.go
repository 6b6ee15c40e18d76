// Package a declares one identifier for each rule of the unused gate.
package a

// Used is used by package b.
func Used() Reached { return Reached{} }

// Reached is named only in Used's signature; Named only in its field.
type Reached struct{ N Named }

// Own is used only by a's own tests.
func (Reached) Own() {}

// Named has a String method, which implements fmt.Stringer.
type Named int

func (Named) String() string { return "named" }

// Box is generic; b uses Get of an instance.
type Box[T any] struct{ V T }

func (b Box[T]) Get() T { return b.V }

// OwnTestOnly is used only by a's in-package tests, XTestOnly only by its
// external tests, OtherTestOnly only by b's tests.
func OwnTestOnly()   {}
func XTestOnly()     {}
func OtherTestOnly() {}

// Inside is used only inside a.
func Inside() int { return 1 }

func helper() int { return Inside() }
