// Package b uses a.
package b

import "fixture/internal/a"

var (
	_ = a.Used()
	_ = a.Box[int]{}.Get()
	_ = a.Race
)
