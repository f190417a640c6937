package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFlagSurface pins the -h output — every flag name, default and
// usage string — byte for byte against testdata/help.golden.
func TestFlagSurface(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, &stderr); code != 2 {
		t.Errorf("-h exit %d, want 2", code)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stderr.String() != string(want) {
		t.Errorf("-h output differs from testdata/help.golden:\ngot:\n%s\nwant:\n%s", stderr.String(), want)
	}
}
