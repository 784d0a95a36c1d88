// Package gostmt is the gostmt analyzer fixture: a deterministic
// package may not start goroutines.
//
//kollaps:deterministic
package gostmt

// Spawn starts a goroutine, joined or not: flagged.
func Spawn(done chan struct{}) {
	go func() { close(done) }() // want `go statement in deterministic package gostmt`
	<-done
}

// Inline does the same work on the caller's goroutine: clean.
func Inline(done chan struct{}) {
	close(done)
}
