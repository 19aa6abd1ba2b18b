package main

import (
	"flag"
	"strings"
	"testing"
)

// parseServe parses a serve command line the way main does, on a fresh
// flag set (-workers defaults to 4 here, so cases do not depend on the
// machine's CPU count).
func parseServe(t *testing.T, line string) serveConfig {
	t.Helper()
	fs := flag.NewFlagSet("kpg", flag.ContinueOnError)
	var c serveConfig
	fs.IntVar(&c.workers, "workers", 4, "")
	c.register(fs)
	if err := fs.Parse(strings.Fields(line)); err != nil {
		t.Fatalf("parse %q: %v", line, err)
	}
	c.set = setFlags(fs)
	return c
}

// TestValidateServeFlags covers every bad combination scripts/peer_smoke.sh
// and scripts/net_smoke.sh reject, the flags nothing would read, and the
// one-process cluster flags that must stay legal.
func TestValidateServeFlags(t *testing.T) {
	two := "-peers 127.0.0.1:7601,127.0.0.1:7602"
	bad := []struct{ line, want string }{
		// scripts/peer_smoke.sh
		{"-process 1", "-process names a rank"},
		{two + " -process 2", "out of range"},
		{"-peers 127.0.0.1:7601,,127.0.0.1:7602", "entry 1 is empty"},
		{"-workers 3 " + two, "positive multiple"},
		{two + " -listen 127.0.0.1:0", "incompatible with -peers"},
		{two + " -spill-bytes 1000000", "one-process run"},
		{two + " -peer-grace -1s", "-peer-grace must be >= 0"},
		{"-peer-grace 5s", "requires -peers"},
		{two + " -max-lag 4", "one-process run"},
		// scripts/net_smoke.sh
		{"-recover", "-recover requires -data-dir"},
		{"-checkpoint-every -1 -data-dir d", "-checkpoint-every must be >= 0"},
		{"-listen 127.0.0.1:0 -rounds 3", "[-rounds]"},
		{"-fsync", "-fsync requires -data-dir"},
		{"-data-dir d -group-commit-ms 5", "requires -fsync"},
		{"-checkpoint-bytes 1024", "-checkpoint-bytes requires -data-dir"},
		{"-sub-lag 100", "requires -listen"},
		// flags nothing on the chosen path reads
		{"-max-lag 9", "nothing else reads it"},
		{"-peers 127.0.0.1:7693 -process 0 -max-lag 9", "nothing else reads it"},
		{"-peers 127.0.0.1:7601 -spill-bytes 2048", "-spill-bytes requires -data-dir"},
		{"-workers 0 -data-dir d", "-workers must be positive"},
		{"-group-commit-ms -1", "-group-commit-ms must be >= 0"},
		{"-spill-bytes -1", "-spill-bytes must be >= 0"},
		{"-checkpoint-bytes -1", "-checkpoint-bytes must be >= 0"},
	}
	for _, tc := range bad {
		err := parseServe(t, tc.line).validate()
		if err == nil {
			t.Errorf("kpg %s serve: accepted", tc.line)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("kpg %s serve: %v, want an error mentioning %q", tc.line, err, tc.want)
		}
	}

	good := []string{
		"",
		"-nodes 500 -churn 40 -rounds 3",
		"-data-dir d -max-lag 4 -spill-bytes 2048 -fsync -group-commit-ms 5",
		"-data-dir d -recover -checkpoint-every 0 -checkpoint-bytes 4096",
		"-peers 127.0.0.1:7601 -process 0 -data-dir d -spill-bytes 2048 -max-lag 2",
		two + " -process 1 -data-dir d -recover -peer-grace 30s -checkpoint-every 5",
		"-listen 127.0.0.1:0 -max-lag 3 -sub-lag 100",
		"-listen 127.0.0.1:0 -data-dir d -recover -spill-bytes 4096",
	}
	for _, line := range good {
		if err := parseServe(t, line).validate(); err != nil {
			t.Errorf("kpg %s serve: %v", line, err)
		}
	}
}
