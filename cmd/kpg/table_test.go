package main

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := &table{header: []string{"name", "value"}}
	tb.add("a", 1)
	tb.add("longer-name", 123456)
	var sb strings.Builder
	tb.write(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %d", len(lines))
	}
	if !strings.HasPrefix(lines[2], "longer-name  ") {
		t.Fatalf("alignment: %q", lines[2])
	}
}
