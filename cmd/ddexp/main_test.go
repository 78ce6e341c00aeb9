package main

import "testing"

// TestCheckOnly: a -only name no workload answers to is refused before any
// experiment runs (it used to print an empty table and exit 0).
func TestCheckOnly(t *testing.T) {
	if err := checkOnly([]string{"CG", "kmeans", "water-spatial"}); err != nil {
		t.Errorf("known names refused: %v", err)
	}
	if err := checkOnly(nil); err != nil {
		t.Errorf("empty filter refused: %v", err)
	}
	if err := checkOnly([]string{"CG", "nosuch"}); err == nil {
		t.Error("unknown workload accepted")
	}
}
