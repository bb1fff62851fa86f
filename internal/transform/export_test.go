package transform

// Pending names the pass Settled found work for ("" if none), so that
// the coverage floor in settled_test.go can say which trigger a miss
// came from.
var Pending = pending
