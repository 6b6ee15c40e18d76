package b

import (
	"fixture/internal/a"
	"fixture/internal/c"
)

func useOther() {
	a.OtherTestOnly()
	c.ForOtherTests()
}
