package a

func useOwn() {
	OwnTestOnly()
	Reached{}.Own()
}
