package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestReadmeBlock: README's quick-start output block is what run prints,
// byte for byte.
func TestReadmeBlock(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	// The output block is the fenced block after the one holding the
	// command.
	_, rest, ok := strings.Cut(string(readme), "go run ./examples/quickstart\n```\n")
	if !ok {
		t.Fatal("README.md has no `go run ./examples/quickstart` block")
	}
	_, rest, ok = strings.Cut(rest, "```\n")
	block, _, closed := strings.Cut(rest, "```\n")
	if !ok || !closed {
		t.Fatal("README.md has no output block after `go run ./examples/quickstart`")
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != block {
		t.Errorf("README.md quick-start block differs from the program's output.\nREADME:\n%s\noutput:\n%s", block, got)
	}
}
