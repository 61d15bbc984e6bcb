package main

import (
	"fmt"
	"strings"
	"testing"

	"execrecon"
	"execrecon/internal/prod"
	"execrecon/internal/pt"
)

func TestRequireWholeRejectsOverflowedRing(t *testing.T) {
	mod, err := er.Compile("t", `
func main() int {
	int n = input32("n");
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) {
		if ((i & 1) == 0) { acc = acc + i; }
	}
	abort("end of request");
	return acc;
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	w := er.NewWorkload().Add("n", 100000)

	// A ring smaller than the trace (but past one sync point) wraps
	// and loses its prefix.
	_, ring := new(prod.Recorder).Run(mod, "main", w.Clone(), 1, true, 6000)
	small, err := pt.Decode(ring)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !small.Truncated {
		t.Fatal("test bug: a 6000-byte ring did not overflow")
	}
	err = requireWhole(small)
	if err == nil {
		t.Fatal("truncated trace accepted")
	}
	if want := fmt.Sprintf("%d bytes lost", small.LostBytes); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry the lost-byte count %q", err, want)
	}

	whole, _, err := er.RecordTrace(mod, w, 1)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := requireWhole(whole); err != nil {
		t.Fatalf("whole trace rejected: %v", err)
	}
}
