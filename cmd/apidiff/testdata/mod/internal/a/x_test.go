package a_test

import "fixture/internal/a"

func useX() {
	a.XTestOnly()
	_ = a.Helper()
}
