// Package framework exercises the analysis driver itself: inline
// suppression, and the justification, staleness and unknown-analyzer
// warnings. The tests run a stub analyzer that flags every function
// whose name starts with Flag.
package framework

func FlagMe() int { return 1 }

//lint:allow stub waived with a justification
func FlagWaived() int { return 2 }

func FlagInline() int { return 3 } //lint:allow stub

//lint:allow stub nothing on the next line triggers, so this is stale
func Quiet() int { return 4 }

//lint:allow
func Malformed() int { return 5 }

//lint:allow nosuch names no analyzer of the run, so it waives nothing
func FlagOther() int { return 6 }
