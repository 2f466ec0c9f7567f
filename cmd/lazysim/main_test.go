package main

import (
	"io"
	"testing"
)

// TestCommandsRejectFlagsTheyDoNotRead: every subcommand declares only
// the flags it reads, so a flag meant for another one, or one that no
// longer exists, is an error rather than silently ignored — and so is a
// stray positional argument.
func TestCommandsRejectFlagsTheyDoNotRead(t *testing.T) {
	rejected := map[string][]string{
		"figure5":    {"-clientcap", "-policy-regions", "-mechs", "-iters"},
		"table2":     {"-requests", "-mechs"},
		"exhaustive": {"-iters", "-requests"},
		"table3":     {"-out", "-j"},
		"policy":     {"-workers", "-chaos-seed", "-trace-out"},
		"fleet":      {"-backends", "-workers", "-size", "-sizes"},
		"run":        {"-j", "-out"},
		"asm":        {"-base", "-out"},
		"trace":      {"-mech", "-out"},
		"snapshots":  {"-j", "-out"},
	}
	for _, c := range commands() {
		flags, ok := rejected[c.name]
		if !ok {
			t.Errorf("no rejected flags listed for %s", c.name)
		}
		for _, flag := range flags {
			if err := c.run([]string{flag, "1"}, io.Discard); err == nil {
				t.Errorf("%s accepted %s", c.name, flag)
			}
		}
		if c.name == "run" || c.name == "asm" || c.name == "trace" {
			continue // these take a file argument
		}
		if err := c.run([]string{"stray"}, io.Discard); err == nil {
			t.Errorf("%s accepted a positional argument", c.name)
		}
	}
}
