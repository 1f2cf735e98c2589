package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateRunFlags sweeps the -retries / -step-timeout / -fault
// combinations: every invalid combination must fail with a one-line
// diagnostic naming the offending flag, and every valid one must
// produce the expected fault plan without touching the appliance.
func TestValidateRunFlags(t *testing.T) {
	cases := []struct {
		name     string
		retries  int
		timeout  time.Duration
		fault    string
		wantErr  string // substring; empty = must succeed
		wantPlan bool   // expect a non-nil fault plan on success
	}{
		{name: "all defaults", retries: 0, timeout: 0, fault: ""},
		{name: "retries with timeout", retries: 3, timeout: time.Second, fault: ""},
		{name: "explicit fault rule", retries: 1, timeout: 0,
			fault: "fail:step=1,node=2", wantPlan: true},
		{name: "seeded fault plan", retries: 2, timeout: 500 * time.Millisecond,
			fault: "seed=42", wantPlan: true},
		{name: "fault without retries", retries: 0, timeout: 0,
			fault: "fail:step=0", wantPlan: true},
		{name: "negative retries", retries: -1, timeout: 0, fault: "",
			wantErr: "-retries"},
		{name: "negative timeout", retries: 0, timeout: -time.Second, fault: "",
			wantErr: "-step-timeout"},
		{name: "negative retries with valid fault", retries: -2, timeout: 0,
			fault: "seed=7", wantErr: "-retries"},
		{name: "malformed fault kind", retries: 0, timeout: 0,
			fault: "explode:step=1", wantErr: "invalid -fault"},
		{name: "malformed fault seed", retries: 0, timeout: 0,
			fault: "seed=banana", wantErr: "invalid -fault"},
		{name: "empty fault rules", retries: 0, timeout: 0,
			fault: ";", wantErr: "invalid -fault"},
		{name: "load is not a fault site", retries: 0, timeout: 0,
			fault: "fail:op=load", wantErr: "invalid -fault"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg, err := validateRunFlags(c.retries, c.timeout, c.fault)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("expected error mentioning %q, got config %+v", c.wantErr, cfg)
				}
				if !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %q does not mention %q", err, c.wantErr)
				}
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("diagnostic must be one line, got %q", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if cfg.MaxRetries != c.retries || cfg.StepTimeout != c.timeout {
				t.Fatalf("config mangled the values: %+v", cfg)
			}
			if (cfg.Faults != nil) != c.wantPlan {
				t.Fatalf("fault plan presence = %v, want %v", cfg.Faults != nil, c.wantPlan)
			}
		})
	}
}
