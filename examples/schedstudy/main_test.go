package main

import "testing"

// TestMainRuns runs the example end to end; a log.Fatal or panic in
// main fails it.
func TestMainRuns(t *testing.T) { main() }
