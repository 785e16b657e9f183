package stale

func flagged() {}

// live carries a directive that suppresses the finding below it.
func live() {
	//lint:ignore flagcall the call is the point of the fixture
	flagged()
}

// stale carries directives that suppress nothing.
func stale() {
	//lint:ignore flagcall nothing below is flagged // want "lint:ignore flagcall suppresses nothing here"
	_ = 1
	//lint:ignore nosuch no analyzer has this name // want "lint:ignore nosuch names no registered analyzer"
	flagged() // want "call to flagged"
}
