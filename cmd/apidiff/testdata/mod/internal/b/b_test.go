package b

import "fixture/internal/a"

func useOther() { a.OtherTestOnly() }
