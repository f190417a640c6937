package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFlagSurface pins the -h output — every flag name, default and
// usage string — byte for byte against testdata/help.golden.
func TestFlagSurface(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "benchfsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building benchfsim: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-h")
	cmd.Args[0] = "benchfsim" // the usage header names argv[0]
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("-h: %v\n%s", err, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stderr.String() != string(want) {
		t.Errorf("-h output differs from testdata/help.golden:\ngot:\n%s\nwant:\n%s", stderr.String(), want)
	}
}
