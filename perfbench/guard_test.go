package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoDeletionListIdentifiers keeps the benchmark off the APIs the
// roadmap plans to delete, so removing them never needs a benchmark
// change. This file is the only one allowed to name them.
func TestNoDeletionListIdentifiers(t *testing.T) {
	banned := []string{
		"FastPath", "FastPathRows", "RowExec", "plan.Bind",
		"AcquireBound", "ReleaseBound", "RunBound", "-peers",
	}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "guard_test.go" {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range banned {
			if strings.Contains(string(b), id) {
				t.Errorf("%s references %s", f, id)
			}
		}
	}
}
